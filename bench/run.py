"""Benchmark for remotepower: two workloads driven in-process through
``remotepower.cli.run(argv)``, the entry point behind the ``remotepower``
command.

    python3 bench/run.py --workload solve-canonical --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

``solve-canonical`` is the paper's first step, solving the canonical problem;
``check-canonical`` is the other two, checking a frozen copy of its policy by
Monte Carlo (posterior-mean estimator) and by the structure verifier.  A run
repeats its workload's operation, one or more CLI calls, for ``--seconds``
and checks every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates traced and untraced operations and reports the
per-layer metrics, self time and call counts per public function of the
package, recorded by ``tracing.py`` around the calls into each module.  Set-up
is measured in this process and in ``SETUP_PROBES`` fresh processes.  The last
line of standard output is one JSON object; the exit code is 1 when any
output check failed and 2 when the package source is missing.  Run records,
with provenance, go to ``.bench-results/`` at the checkout root.

``--workload all`` runs every workload in its own process and prints one
table of metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the numbers measure the program, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gzip
import importlib
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(BENCH, "inputs")
POLICY = os.path.join(INPUTS, "canonical_policy.json")
RESULTS = os.path.join(ROOT, ".bench-results")

SETUP_PROBES = 2
LAYERS = ("belief", "solver", "simulator", "rearrange", "policy", "config")

# The canonical problem's optimal average cost (depth 8, 4001-point grid).
# 1e-3 admits the known depth-cap tail correction (6e-5) and catches a broken chain.
RHO_STAR = 0.8311110501
RHO_TOL = 1e-3
# simulate's cost_mean must lie within 4 standard errors of RHO_STAR.  Its
# replication count (inputs/check-canonical.json) is 32 because the check's
# false-alarm rate per seed is the two-sided tail of Student's t with
# replications - 1 degrees of freedom at 4: 3.7e-4 for 32, 5.2e-3 for 8.
SIM_COST_SIGMAS = 4.0
ESTIMATOR_GAP_TOL = 1e-8
VERIFY_ROWS = 4

# A workload's operation: CLI calls made in order, each with its output checked.
# Every operation of a run gets the run's seed, so all do the same work.
WORKLOADS = {
    "solve-canonical": [["solve", "{config}"]],
    "check-canonical": [
        ["simulate", "{config}", "--policy", "{policy}", "--seed", "{seed}", "--threads", "1"],
        ["verify-structure", "{config}", "--policy", "{policy}", "--seed", "{seed}",
         "--samples", "400"],
    ],
}

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "policy.load_s": "s",
    "cli.self_s": "s",
    "belief.self_s": "s",
    "solver.self_s": "s",
    "simulator.self_s": "s",
    "rearrange.self_s": "s",
    "policy.self_s": "s",
    "config.self_s": "s",
    "belief.calls": "count",
    "belief.propagate.calls": "count",
    "belief.propagate.self_s": "s",
    "belief.propagate.ms_p50": "ms",
    "belief.post_failure.self_s": "s",
    "belief.stage_cost.calls": "count",
    "belief.stage_cost.self_s": "s",
    "belief.success_prob.calls": "count",
    "belief.success_prob.self_s": "s",
    "belief.expected_power.calls": "count",
    "belief.expected_power.self_s": "s",
    "solver.propagate.calls": "count",
    "cli.propagate.calls": "count",
    "solver.build_chain.calls": "count",
    "solver.build_chain.self_s": "s",
    "solver.evaluate_policy.self_s": "s",
    "solver.improve_policy.self_s": "s",
    "solver.structure_witness.self_s": "s",
    "solver.rounds": "count",
    "solver.states": "count",
    "simulator.simulate.self_s": "s",
    "simulator.steps": "count",
    "simulator.ns_per_step": "ns",
    "simulator.steps_per_s": "1/s",
    "simulator.propagate.calls": "count",
    "rearrange.random_relation_pair.calls": "count",
    "rearrange.random_relation_pair.self_s": "s",
    "rearrange.rearranged_action.calls": "count",
    "rearrange.rearranged_action.self_s": "s",
    "rearrange.relation_R.calls": "count",
    "rearrange.relation_R.self_s": "s",
    "policy.PowerPolicy.action_of.calls": "count",
    "policy.PowerPolicy.action_of.self_s": "s",
    "policy.PowerPolicy.from_dict.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def config_path(workload: str) -> str:
    return os.path.join(INPUTS, f"{workload}.json")


def workload_argvs(workload: str, seed: int) -> list[list[str]]:
    fields = {"config": config_path(workload), "policy": POLICY, "seed": str(seed)}
    return [[part.format(**fields) for part in argv] for argv in WORKLOADS[workload]]


def simulated_steps(workload: str) -> int:
    with open(config_path(workload)) as f:
        sim = json.load(f).get("simulate")
    return sim["horizon"] * sim["replications"] if sim else 0


# ---------------------------------------------------------------- output checks


def check_solve(out: str) -> str | None:
    r = json.loads(out)
    if not r["converged"]:
        return "solve did not converge"
    if not r["residual"] <= 1e-9:
        return f"residual {r['residual']:.3e} > 1e-9"
    if not abs(r["rho_star"] - RHO_STAR) <= RHO_TOL:
        return f"rho_star {r['rho_star']!r} is not within {RHO_TOL:g} of {RHO_STAR}"
    return None


def check_simulate(out: str) -> str | None:
    payload = json.loads(out)
    m = payload["metrics"]
    gap = abs(m["cost_mean"] - RHO_STAR)
    if not gap <= SIM_COST_SIGMAS * m["cost_se"]:
        return f"cost_mean {m['cost_mean']!r} is {gap:.3e} from {RHO_STAR} (se {m['cost_se']:.3e})"
    if payload["config"]["simulate"]["estimator"] == "belief_mean":
        est_gap = m["max_estimator_gap"]
        if est_gap is None or not est_gap <= ESTIMATOR_GAP_TOL:
            return f"max_estimator_gap {est_gap!r} > {ESTIMATOR_GAP_TOL:g}"
    return None


def check_verify(out: str) -> str | None:
    rows = out.strip().splitlines()
    passed = [row for row in rows if re.search(r"\sPASS(\s|$)", row)]
    if len(rows) != VERIFY_ROWS or len(passed) != VERIFY_ROWS:
        return f"expected {VERIFY_ROWS} PASS rows, got:\n{out}"
    return None


CHECKS = {"solve": check_solve, "simulate": check_simulate, "verify-structure": check_verify}


# ---------------------------------------------------------------- measurement


def measure_setup(workload: str) -> dict[str, float]:
    """Time the first import of the package, then config and policy loading."""
    t0 = perf_counter()
    import remotepower.cli  # noqa: F401
    from remotepower.config import build_geometry, build_problem, load_config
    from remotepower.policy import PowerPolicy

    t1 = perf_counter()
    cfg = load_config(config_path(workload))
    problem = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    t2 = perf_counter()
    if any("{policy}" in argv for argv in WORKLOADS[workload]):
        with open(POLICY) as f:
            PowerPolicy.from_dict(json.load(f)["policy"], problem.actions, geometry)
    t3 = perf_counter()
    return {"import_s": t1 - t0, "config_s": t2 - t1, "policy_s": t3 - t2}


def probe_setup(workload: str) -> dict[str, float]:
    """measure_setup in a fresh interpreter, where nothing is imported yet."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_call(cli, argv: list[str]) -> str | None:
    """One CLI invocation; returns why it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception:  # a call that raises is a failed call
        return traceback.format_exc()
    if rc != 0:
        return f"{argv[0]}: exit code {rc}: {err.getvalue().strip()}"
    try:
        problem = CHECKS[argv[0]](out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        return f"{argv[0]}: unreadable output: {exc!r}"
    return problem and f"{argv[0]}: {problem}"


def run_op(cli, argvs: list[list[str]]) -> dict:
    """One operation, timed: its calls in order, each checked after it returns."""
    wall, cpu, failures = 0.0, 0.0, []
    for argv in argvs:
        wall0, cpu0 = perf_counter(), process_time()
        failure = run_call(cli, argv)
        wall, cpu = wall + perf_counter() - wall0, cpu + process_time() - cpu0
        failures += [failure] if failure else []
    return {"wall_s": wall, "cpu_s": cpu, "failure": "\n".join(failures) or None}


def trace_setup():
    """The tracer, the functions it wraps, and the modules whose bindings it patches."""
    import remotepower.cli as cli
    from remotepower.policy import PowerPolicy

    tracer = tracing.Tracer(
        observers={
            "solver.solve": lambda result: ("solver.rounds", result.iterations),
            "solver.build_chain": lambda chain: ("solver.states", chain.n_states),
        }
    )
    targets = {id(cli.run): ("cli.run", cli.run)}
    for layer in LAYERS:
        targets.update(tracing.public_functions(importlib.import_module(f"remotepower.{layer}")))
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "remotepower" or name.startswith("remotepower.")]
    methods = [(PowerPolicy, "action_of"), (PowerPolicy, "from_dict")]
    return tracer, targets, modules, methods


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer, traced_ops, plain_ops, setups, steps) -> tuple[dict[str, float], float]:
    """Per-layer metrics per traced operation, with set-up times as medians over
    `setups`, and the self time of all spans per traced operation."""
    n = len(traced_ops)
    summary = tracing.summarize(tracer.spans)
    metrics = {name: summary.get(name, 0.0) / n for name in PER_LAYER_UNITS}
    metrics["belief.propagate.ms_p50"] = summary.get("belief.propagate.ms_p50", 0.0)
    metrics.update({k: float(v) for k, v in tracer.counters.items()})
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["config.load_s"] = statistics.median(s["config_s"] for s in setups)
    metrics["policy.load_s"] = statistics.median(s["policy_s"] for s in setups)
    metrics["simulator.steps"] = float(steps)
    if steps:
        metrics["simulator.ns_per_step"] = 1e9 * metrics["simulator.simulate.self_s"] / steps
        metrics["simulator.steps_per_s"] = steps / (summary["simulator.replicate.ms_p50"] / 1e3)
    metrics["trace.wall_s"] = summary["wall_s"] / n
    metrics["trace.overhead_s"] = statistics.median(op["wall_s"] for op in traced_ops) - \
        statistics.median(op["wall_s"] for op in plain_ops)
    return metrics, summary["self_s"] / n


def provenance(args, argvs: list[list[str]]) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        head = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        head = None
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu_model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), cpu_model)
    import numpy
    import scipy

    return {
        "git_head": head,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "argv": argvs,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def write_spans(path: str, spans) -> None:
    with gzip.open(path, "wt") as f:
        f.write("name,site,start,end,parent,run\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            f.write(f"{s.name},{s.site},{s.start!r},{s.end!r},{parent},{s.run}\n")


def run_workload(args) -> int:
    setups = [measure_setup(args.workload)]
    import remotepower.cli as cli

    setups += [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    argvs = workload_argvs(args.workload, args.seed)
    hooks = trace_setup() if args.trace else None
    ops: list[dict] = []
    start = perf_counter()
    # stop before an operation of median length would overrun the run time
    while len(ops) < (2 if hooks else 1) or perf_counter() - start + statistics.median(
        op["wall_s"] for op in ops
    ) <= args.seconds:
        traced = hooks is not None and len(ops) % 2 == 1
        if traced:
            hooks[0].run = len(ops)
            with tracing.patched(*hooks):
                op = run_op(cli, argvs)
        else:
            op = run_op(cli, argvs)
        op["traced"] = traced
        ops.append(op)
        if len(ops) == 1:
            # later operations reuse the heap the first one grew, as no CLI user's process does
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if op["failure"]:
            print(f"operation {len(ops)} failed: {op['failure']}", file=sys.stderr)

    failed = sum(1 for op in ops if op["failure"])
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    correct = failed == 0
    if hooks:
        tracer = hooks[0]
        metrics, self_sum = layer_metrics(tracer, [op for op in ops if op["traced"]], plain,
                                          setups, simulated_steps(args.workload))
        # every span lies inside one root cli.run span, so self times partition its wall time
        correct &= abs(self_sum - metrics["trace.wall_s"]) <= 1e-6 * max(1.0, self_sum)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(sum(s.values()) for s in setups),
            "op_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if hooks:
        write_spans(stem + ".spans.csv.gz", tracer.spans)
    record = {"provenance": provenance(args, argvs), "setup": setups, "ops": ops,
              "failed_frac": failed / len(ops), "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    tail = tail_percentile(walls)
    print(f"{'op_s samples':<40} {len(walls):>16d}"
          + (f"  p{tail[0]} {tail[1]:.6g} s" if tail else "  (no percentile has 10 beyond it)"))
    print(f"{'failed_frac':<40} {failed / len(ops):>16.6g} ratio")
    if hooks:
        print(f"{'trace.self_sum_s':<40} {self_sum:>16.6g} s")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {done.returncode})", file=sys.stderr)
            status = 1
            continue
        if done.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((workload, "failed_frac", result["failed"] / result["attempted"], "ratio"))
        rows.extend((workload, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    for workload, name, value, unit in rows:
        print(f"{workload:<22} {name:<40} {value:>16.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up timings of one fresh process and exit")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "remotepower", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(json.dumps(measure_setup(args.workload)))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
