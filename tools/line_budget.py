"""Print the line budget of each module of ``src/oblicon/``: total lines,
code lines (lines holding a token other than a comment, after the lines of
docstrings are taken out) and docstring lines, then their sums.

Standard library only; docstrings are found with ``ast`` and code lines
with ``tokenize``.  Run from the repository root:

    python3 tools/line_budget.py [PACKAGE_DIR]
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module, its classes and its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def budget(path: Path) -> tuple[int, int, int]:
    """Total, code and docstring lines of one module."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "oblicon"
    root = Path(argv[1]) if len(argv) > 1 else default
    sums = [0, 0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}{'doc':>7}")
    for path in sorted(root.glob("*.py")):
        counts = budget(path)
        sums = [a + b for a, b in zip(sums, counts)]
        print(f"{path.stem:<16}" + "".join(f"{c:>7,}" for c in counts))
    print(f"{'sum':<16}" + "".join(f"{c:>7,}" for c in sums))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
