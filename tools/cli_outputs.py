"""Write the command-line outputs that a refactor must leave byte-identical.

    python3 tools/cli_outputs.py OUTDIR

Runs the ``remotepower`` command of this checkout (the ``src`` directory
beside this script) on the benchmark inputs and on a tiny one-gain problem,
and runs the demos, writing each output under OUTDIR:

- ``solve`` on ``bench/inputs/solve-canonical.json``, and on the same
  defaults at depth 10, whose depth cap has 1024 nodes;
- check-canonical's ``simulate`` (seed 1, one thread), once more with the
  closed-form estimator, and ``verify-structure`` (seed 1, 400 samples) on
  the frozen canonical policy;
- on the tiny problem: ``verify-structure`` (seed 3, 40 samples), ``sweep``
  over alpha 0.1:0.2:1.3, a one-round ``solve`` (which ends on the max-power
  baseline and exits 2), ``evaluate`` of an on-off, a full-power constant
  and a zero-power constant baseline, and a ``simulate`` of the on-off
  baseline with the posterior-mean estimator (2 replications of 5000 steps
  on two processes) that writes the per-step trace
  ``simulate-tiny-trace.csv``;
- ``verify-structure`` on a contracting plant whose order probes' radius,
  24, lies past its +-20 grid (exit 3);
- ``validate`` on both benchmark inputs and on a two-gain channel whose
  worst gain, 0.05, alone could not stabilize the plant;
- ``rearrange-demo {}``;
- the standard output of every script in ``demos/``, with its wall-clock
  reading masked.

Each output NAME comes with ``NAME.exit``: the exit code, then the command's
own ``error:``/``warning:`` lines from standard error (Python warnings and
tracebacks carry file paths and line numbers, so they are left out).  The
inputs go to ``OUTDIR/inputs`` (``bench/inputs`` is only read), and every
command runs in OUTDIR on relative paths.  To check a change against its
parent, run this script in each checkout, each into its own directory (when
the change edits the script, copy it into the parent's ``tools`` first, so
both sides run the same commands); then

    diff -r PARENT_OUT CHANGE_OUT

is the whole check.  A run took 24 s on a two-vCPU Intel Xeon VM.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_INPUTS = ROOT / "bench" / "inputs"

TINY = {
    "channel": {"gains": [1.0], "transition": [[1.0]]},
    "actions": {"levels": [0.0, 4.0], "saturation_radius": 6.0},
    "grid": {"half_width": 20.0, "n_points": 401, "convolution": "direct"},
    "solver": {"depth": 3},
    "simulate": {"horizon": 20_000, "replications": 3, "base_seed": 7},
}


def baseline_file(baseline: str, param: float, enforce: bool) -> dict:
    """A stored baseline policy on the tiny problem's levels and grid."""
    return {
        "mode": "baseline",
        "baseline": baseline,
        "baseline_param": param,
        "enforce": enforce,
        "levels": TINY["actions"]["levels"],
        "saturation_radius": TINY["actions"]["saturation_radius"],
        "grid": {k: TINY["grid"][k] for k in ("half_width", "n_points")},
        "default": None,
        "states": [],
    }


INPUTS = {
    "depth-10.json": {"solver": {"depth": 10}},
    "tiny.json": TINY,
    "tiny-one-round.json": {**TINY, "solver": {"depth": 3, "max_rounds": 1}},
    "on-off.json": baseline_file("on_off", 1.5, True),
    "full-power.json": baseline_file("constant", 4.0, True),
    "silent.json": baseline_file("constant", 0.0, False),
    # (L - 6 sigma_w) / |a| = (12 - 6) / 0.25 = 24
    "contracting.json": {
        "process": {"a": 0.25, "noise_var": 1.0},
        "actions": {"levels": [0, 4], "saturation_radius": 12},
        "grid": {"half_width": 20, "n_points": 401},
    },
    # q(u_max, 0.05) = 0.18 < 1 - 1/a^2, yet a^2 rho(diag(1 - q(u_max, h)) P) = 0.943
    "low-gain.json": {"channel": {"gains": [0.05, 2.0], "transition": [[0.8, 0.2], [0.3, 0.7]]}},
}

CHECK = ["inputs/check-canonical.json", "--policy", "inputs/canonical_policy.json", "--seed", "1"]

# (output name, CLI arguments); "{out}" is the output file, else stdout is kept
COMMANDS = [
    ("solve-canonical.json", ["solve", "inputs/solve-canonical.json"]),
    ("solve-depth-10.json", ["solve", "inputs/depth-10.json"]),
    ("simulate-check-canonical.json", ["simulate", *CHECK, "--threads", "1"]),
    ("simulate-check-canonical-closed-form.json",
     ["simulate", *CHECK, "--threads", "1", "--estimator", "closed_form"]),
    ("verify-structure-check-canonical.txt", ["verify-structure", *CHECK, "--samples", "400"]),
    ("verify-structure-tiny.txt",
     ["verify-structure", "inputs/tiny.json", "--seed", "3", "--samples", "40"]),
    ("sweep-tiny.csv", ["sweep", "inputs/tiny.json", "--alpha", "0.1:0.2:1.3", "-o", "{out}"]),
    ("solve-tiny-one-round.json", ["solve", "inputs/tiny-one-round.json"]),
    ("evaluate-on-off.json", ["evaluate", "inputs/tiny.json", "--policy", "inputs/on-off.json"]),
    ("evaluate-full-power.json",
     ["evaluate", "inputs/tiny.json", "--policy", "inputs/full-power.json"]),
    ("evaluate-silent.json", ["evaluate", "inputs/tiny.json", "--policy", "inputs/silent.json"]),
    ("simulate-tiny-trace.json",
     ["simulate", "inputs/tiny.json", "--policy", "inputs/on-off.json", "--estimator",
      "belief_mean", "--replications", "2", "--horizon", "5000", "--threads", "2",
      "--trace", "simulate-tiny-trace.csv"]),
    ("verify-structure-contracting.txt", ["verify-structure", "inputs/contracting.json"]),
    ("rearrange-demo.csv", ["rearrange-demo", "inputs/defaults.json", "-o", "{out}"]),
    ("validate-solve-canonical.txt", ["validate", "inputs/solve-canonical.json"]),
    ("validate-check-canonical.txt", ["validate", "inputs/check-canonical.json"]),
    ("validate-low-gain.txt", ["validate", "inputs/low-gain.json"]),
]

OWN_LINE = re.compile(r"^(config |i/o )?(error|warning): ")
WALL_TIME = re.compile(r"\d+\.\d+s$", re.MULTILINE)


def run(out: Path, name: str, argv: list[str], env: dict) -> None:
    """Run `argv` in `out`; keep its standard output as `name` unless it
    writes that file itself."""
    path = out / name
    path.unlink(missing_ok=True)
    proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
    if str(path) not in argv:
        path.write_text(proc.stdout)
    own = [line for line in proc.stderr.splitlines() if OWN_LINE.match(line)]
    (out / f"{name}.exit").write_text("".join(f"{line}\n" for line in [str(proc.returncode), *own]))
    print(f"{name}: exit {proc.returncode}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for source in BENCH_INPUTS.glob("*.json"):
        shutil.copyfile(source, inputs / source.name)
    for name, data in {**INPUTS, "defaults.json": {}}.items():
        (inputs / name).write_text(json.dumps(data, indent=2) + "\n")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, args in COMMANDS:
        args = [str(out / name) if a == "{out}" else a for a in args]
        run(out, name, [sys.executable, "-m", "remotepower.cli", *args], env)

    for demo in sorted((ROOT / "demos").glob("*.py")):
        name = f"demo-{demo.stem}.txt"
        run(out, name, [sys.executable, str(demo)], env)
        path = out / name
        path.write_text(WALL_TIME.sub("<wall time>", path.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
