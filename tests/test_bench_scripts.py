"""Every measurement script in ``bench/`` still starts against ``src/``.

The scripts import the netsample names they use when they load, so a name
renamed or removed in ``src/`` fails here, not in the next measurement.
``--help`` loads a script and parses its options, and measures nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "bench").glob("*.py"))


def test_bench_holds_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_bench_script_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")
