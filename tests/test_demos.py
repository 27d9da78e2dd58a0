"""Each demo runs to completion as a script."""
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    if demo.name == "network_realization.py":
        assert "agreement: True" in proc.stdout
    if demo.name == "prototype_walkthrough.py":
        # one_class_linear has nu_x = 0 and k' = 1: the budget is 3 pi
        match = re.search(r"winding spent (\S+) of budget (\S+)", proc.stdout)
        spent, budget = float(match[1]), float(match[2])
        assert spent <= budget and budget == pytest.approx(3 * math.pi, abs=1e-4)
