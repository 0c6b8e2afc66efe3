"""Settings and fixtures shared by the test suite.

Property tests run under one fixed hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline and few
examples, so that the suite stays deterministic and quick.

``run_python`` runs a fresh interpreter on the package's sources, for the
checks that must still hold under ``python -O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60, database=None)
    settings.load_profile("deterministic")

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def run_python():
    """``run_python(*args)`` runs ``python *args`` with src on the path and returns the finished process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    return run
