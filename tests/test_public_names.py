"""Every public name of ``src/oblicon/`` is used outside its own tests.

``tools/public_names.py`` exits 1 when a public top-level name or method is
referenced nowhere in ``src/``, ``bench/``, ``tools/`` or the acceptance
suite, apart from the names it keeps on purpose; this test runs it.
"""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "public_names.py"


def test_every_public_name_is_referenced():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
