"""The demos print what they printed when their output was recorded.

Each script under demos/ runs in a fresh interpreter with src/ on the
path; its stdout must equal tests/demo_output/<name>.txt exactly.  A
change that moves any printed digit shows up here.  After an intended
change, record the new text with

    PYTHONPATH=src python3 demos/<name>.py > tests/demo_output/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_recorded_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_output").glob("*.txt"))
    assert recorded == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, check=True
    )
    want = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text()
    assert done.stdout == want
