"""The demos print exactly their recorded output.

Each demo under ``demos/`` runs in a fresh interpreter against ``src/``; its
standard output must match ``tests/data/demos/<demo>.txt`` byte for byte, so
a change that moves any printed verdict, estimate or digit shows here.
Re-record a file only for a change that is meant to move that output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
RECORDED = ROOT / "tests" / "data" / "demos"


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_byte_identical(demo):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    assert run.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()
