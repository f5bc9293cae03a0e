"""A solve warns about its plant's stability once, not once per round."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# a contracting plant: every chain build's stability check warns
CONTRACTING = (
    '{"process": {"a": 0.25, "noise_var": 1.0}, '
    '"actions": {"levels": [0, 4], "saturation_radius": 12}, '
    '"grid": {"half_width": 20, "n_points": 401}}'
)

SOLVE = """
import json, sys
from remotepower import build_geometry, build_problem, load_config, solve, solve_discounted
cfg = load_config(sys.argv[1])
problem = build_problem(cfg)
geometry = build_geometry(cfg, problem)
if sys.argv[2] == "solve":
    result = solve(problem, geometry, depth=cfg["solver"]["depth"])
    result.chain  # built again when the last round was rejected
else:
    result = solve_discounted(problem, geometry, 0.9, depth=cfg["solver"]["depth"])
print(result.iterations)
"""


@pytest.mark.parametrize("call", ["solve", "solve_discounted"])
def test_a_contracting_plant_warns_once_per_solve(call, tmp_path):
    config = tmp_path / "contracting.json"
    config.write_text(CONTRACTING)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-c", SOLVE, str(config), call], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 1  # more than one round built a chain
    warned = [line for line in proc.stderr.splitlines() if "process is not unstable" in line]
    assert len(warned) == 1, proc.stderr
