"""The demos are the README's walkthrough: each one runs to completion as a
standalone script, and the picture one of them redraws stays byte for byte
the committed file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SVG = ROOT / "demos" / "hexagon_diagram.svg"


@pytest.mark.parametrize(
    "demo", ["mutation_hexagon", "diagram_completion", "diagram_mutation", "broken_lines"]
)
def test_demo_runs(demo):
    before = SVG.read_bytes()
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert SVG.read_bytes() == before
