"""Each demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py")) + [ROOT / "demos" / "08_cli_tour.sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    # the shell tour cd's to a temp dir, so src goes on the path as absolute
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runner = "bash" if demo.suffix == ".sh" else sys.executable
    out = subprocess.run(
        [runner, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
