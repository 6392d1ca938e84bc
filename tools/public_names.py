"""Print each public top-level name and public method of ``src/oblicon/``
with the number of references to it in ``src/``, ``bench/``, ``tools/`` and
``tests/test_acceptance.py``, and flag the names that have none.

A name is public when it does not start with an underscore, so dunder
methods are left out.  A reference is a use of the name as an identifier or
an attribute, or a string constant that equals it (``bench/tracing.py``
hooks functions by name).  Definitions and imports are not references, and
``src/oblicon/__init__.py`` is not read, since it only re-exports.  Names
are matched by spelling alone: a name that something else also bears may
be counted as used when it is not, but a flagged name is never used there.

Standard library only; names are found with ``ast``.  Run from anywhere:

    python3 tools/public_names.py

The exit status is 1 when a flagged name is not one of ``KEPT``, the names
kept on purpose although nothing listed above calls them:

- ``cli.adversary_to_doc`` is the document ``save_adversary`` writes, as a
  dict: the inverse of ``adversary_from_doc``.  The writer's tests compare
  its streamed bytes with a plain ``json.dumps`` of this dict.
- ``decision.check_protected_chain`` checks the paper's chained-protection
  lemma on a refinement trace; the decision tests check ``decide`` against
  the lemma with it.
"""
from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oblicon"

KEPT = {"cli.adversary_to_doc", "decision.check_protected_chain"}


def public_names(tree: ast.Module) -> list[str]:
    """Each public top-level name of a module, then each public method as
    ``Class.method``, in the order they are defined."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        names += [name for name in defined if not name.startswith("_")]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return names


def references(tree: ast.AST) -> Counter:
    """How often each spelling is used as a name, an attribute or a string."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value] += 1
    return uses


def sources() -> list[Path]:
    """The files whose references count."""
    files = [p for p in sorted((ROOT / "src").rglob("*.py")) if p != PACKAGE / "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def main() -> int:
    uses: Counter = Counter()
    for path in sources():
        uses += references(ast.parse(path.read_text(encoding="utf-8")))
    unexplained = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name in public_names(ast.parse(path.read_text(encoding="utf-8"))):
            count = uses[name.rpartition(".")[2]]
            qualified = f"{path.stem}.{name}"
            flag = "" if count else "  <- kept" if qualified in KEPT else "  <- no reference"
            unexplained += not count and qualified not in KEPT
            print(f"{qualified:<56}{count:>6}{flag}")
    print(f"{unexplained} public names without a reference, {len(KEPT)} kept on purpose")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
