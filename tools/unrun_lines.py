"""Print each statement of ``src/oblicon/`` that the tier-1 suite never runs.

No coverage package is needed: the suite runs in this process under a
``sys.settrace`` line tracer that records only frames whose code lives in
``src/oblicon/``.  A statement counts as run when any line of its own (its
header, for a compound statement) raised a line event; a statement whose
lines compile to no bytecode is skipped.  Code run in a subprocess is not
seen.  Tracing slows the suite several times over, so a test with a time
bound may fail here while it passes untraced; the report stands either way.

Standard library only (plus pytest, which runs the suite).  Run from the
repository root; extra arguments go to pytest:

    python3 tools/unrun_lines.py [PYTEST_ARGS...]
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oblicon"


def code_lines(code: CodeType) -> set[int]:
    """The lines that ``code`` and the code objects nested in it hold bytecode for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def statements(tree: ast.Module) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every statement; a statement's own lines
    are its span less the spans of the statements nested in it, and a
    decorated definition starts at its first decorator."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((node, first))
    own = []
    for node, first in spans:
        lines = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        own.append((first, lines))
    return sorted(own)


def unrun(path: Path, ran: set[int]) -> list[int]:
    """First lines of the statements in ``path`` that hold bytecode and never ran."""
    source = path.read_text(encoding="utf-8")
    compiled = code_lines(compile(source, str(path), "exec"))
    return [
        first for first, lines in statements(ast.parse(source))
        if lines & compiled and not lines & ran
    ]


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.settrace(global_trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"), *argv]
        )
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = unrun(path, ran.get(str(path), set()))
        total += len(lines)
        if lines:
            print(f"\n{path.relative_to(ROOT)}: {len(lines)} statements never ran")
            for line in lines:
                print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"\n{total} statements never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
