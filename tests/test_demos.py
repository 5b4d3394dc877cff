"""The demos print what their goldens hold, so a wrong printed number fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_has_a_golden():
    goldens = sorted(p.name for p in (ROOT / "tests" / "golden").glob("demo_*.txt"))
    assert goldens == [f"demo_{demo.name[:2]}.txt" for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, check=False
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    golden = ROOT / "tests" / "golden" / f"demo_{demo.name[:2]}.txt"
    assert proc.stdout == golden.read_text(), f"output drifted from {golden}"
