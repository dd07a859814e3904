"""Package metadata has one source of truth."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_version_is_the_package_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
