import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"

# The checkout's package comes first, ahead of any installed copy, and the
# tests directory makes helpers such as `gradcheck` and `run_cli` importable.
sys.path.insert(0, str(SRC_DIR))
sys.path.insert(0, str(TESTS_DIR))


def run_cli(args, cwd, env_extra=None):
    """Run `python -m epu.cli` on the checkout's `src` from `cwd`.

    The absolute `src` path goes at the front of the child's PYTHONPATH, so
    the child imports the same package as the test process whatever `cwd` is.
    """
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "epu.cli", *args],
        capture_output=True,
        text=True,
        cwd=str(cwd),
        env=env,
    )


@pytest.fixture(scope="session", autouse=True)
def no_stray_children():
    """Fail the run if the pytest process ends with a child it never reaped:
    a worker that `evaluate` forked and left running, or a zombie."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test process still has a child process (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
