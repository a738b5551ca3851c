"""The demos are the README's walkthrough: each one runs to completion as a
standalone script, its stdout is byte for byte ``demo_stdout/<demo>.txt``,
and the picture one of them draws is byte for byte the committed file.  Each
runs as a copy in a temporary directory, so the picture lands there and the
checkout stays untouched."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SVG = "hexagon_diagram.svg"


@pytest.mark.parametrize(
    "demo", ["mutation_hexagon", "diagram_completion", "diagram_mutation", "broken_lines"]
)
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(ROOT / "demos" / f"{demo}.py", tmp_path)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    res = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == (ROOT / "tests" / "demo_stdout" / f"{demo}.txt").read_text()
    drawn = tmp_path / SVG
    if demo == "diagram_completion":
        assert drawn.read_bytes() == (ROOT / "demos" / SVG).read_bytes()
    else:
        assert not drawn.exists()
