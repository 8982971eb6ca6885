"""A fresh interpreter for the tests that check what one process loads,
binds or measures, which the test runner's own process cannot show: no
site (-I -S), this tree's package first on sys.path."""

import subprocess
import sys
from pathlib import Path

import pelleis

SRC = Path(pelleis.__file__).resolve().parents[1]


def run(code: str, timeout: float = 60) -> str:
    """stdout of code run in a fresh interpreter; a non-zero exit or a run
    past timeout seconds fails the calling test."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=timeout,
                          check=True).stdout
