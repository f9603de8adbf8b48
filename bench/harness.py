"""Run one quatcalc CLI job in-process.

Standard library only, so that the set-up probe can time the first import of
numpy and quatcalc itself.  A job is the CLI's real argv plus the text that
would arrive on stdin; stdout is captured, stderr is discarded.
"""

from __future__ import annotations

import io
import os
import sys
from pathlib import Path

#: BLAS and OpenMP pools are pinned to one thread before numpy is imported.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Pseudo exit code recorded when ``cli.run`` raises instead of returning.
CRASHED = -1


def pin_threads():
    os.environ.update(THREAD_ENV)


def program_present():
    return (SRC_DIR / "quatcalc" / "cli.py").is_file()


def use_source_tree():
    """Import quatcalc from this checkout's ``src``, never from elsewhere."""
    path = str(SRC_DIR)
    if path not in sys.path:
        sys.path.insert(0, path)


def run_job(cli, argv, text):
    """Return ``(exit_code, stdout_text)`` for one job."""
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin = io.StringIO(text)
    sys.stdout = out
    sys.stderr = io.StringIO()
    try:
        code = cli.run(argv)
    except Exception:  # a crash is a job outcome, checked like any other
        code = CRASHED
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
    return code, out.getvalue()
