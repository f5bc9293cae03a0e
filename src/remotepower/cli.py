"""Batch front end: config in, JSON/CSV artifacts out.

Every artifact embeds the resolved config (heuristic grid width included) and
the seed that produced it, so a result file is a complete record of its run.
Exit codes: 0 success, 1 a validation or structure check failed, 2 the solver
stopped without converging, 3 anything wrong with inputs or I/O.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

import numpy as np

from .belief import (
    ActionFunction,
    BeliefGrid,
    GridGeometryError,
    SupportOverflowError,
)
from .config import (
    ConfigError,
    _check_simulate,
    build_geometry,
    build_problem,
    default_config,
    load_config,
)
from .model import (
    ControlProblem,
    ModelError,
    reception_prob,
    validate_channel,
    validate_stability,
)
from .policy import PolicyDomainError, PowerPolicy
from .rearrange import MeasureMatchError, rearranged_action
from .simulator import replicate
from .solver import (
    ChainStructureError,
    build_chain,
    evaluate_policy,
    solve,
    verify_structure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_BAD_INPUT = 3

# The most alpha values one sweep solves; that many solves already take hours.
_MAX_SWEEP_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """Argparse variant that reports usage problems as config errors (exit 3)
    instead of calling sys.exit directly."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="remotepower", description=__doc__.splitlines()[0])
    p.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the fully populated default config as JSON and exit",
    )
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("validate", help="check channel, stability and reception monotonicity")
    v.add_argument("config")

    s = sub.add_parser("solve", help="compute the optimal policy and average cost")
    s.add_argument("config")
    s.add_argument("-o", "--output", default=None, help="result JSON (stdout when omitted)")

    e = sub.add_parser("evaluate", help="exact chain evaluation of a stored policy")
    e.add_argument("config")
    e.add_argument("--policy", required=True, help="policy JSON (a solve output also works)")
    e.add_argument("-o", "--output", default=None)

    m = sub.add_parser("simulate", help="Monte Carlo rollout of a stored policy")
    m.add_argument("config")
    m.add_argument("--policy", required=True)
    m.add_argument("-T", "--horizon", type=int, default=None)
    m.add_argument("--seed", type=int, default=None)
    m.add_argument("--replications", type=int, default=None)
    m.add_argument("--estimator", choices=("closed_form", "belief_mean"), default=None)
    m.add_argument("--threads", type=int, default=1)
    m.add_argument("-o", "--output", default=None)
    m.add_argument("--trace", default=None, help="per-step CSV for one replication")

    w = sub.add_parser("verify-structure", help="structural checks on a solved policy")
    w.add_argument("config")
    w.add_argument("--policy", default=None, help="policy JSON; solves in-process when omitted")
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--samples", type=int, default=40, help="randomized probe count")

    sw = sub.add_parser("sweep", help="power/distortion tradeoff across cost weights")
    sw.add_argument("config")
    sw.add_argument("--alpha", required=True, help="start:step:stop (inclusive) or one value")
    sw.add_argument("-o", "--output", required=True, help="sweep CSV")

    d = sub.add_parser("rearrange-demo", help="tabulate a rule and its rearranged twin")
    d.add_argument("config")
    d.add_argument("-o", "--output", required=True, help="demo CSV")

    return p


def _load(config_path: str):
    cfg = load_config(config_path)
    problem = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    cfg = copy.deepcopy(cfg)
    cfg["grid"]["half_width"] = geometry.half_width
    return cfg, problem, geometry


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _config_comment(cfg: dict, seed: int | None) -> list[str]:
    return [
        "config: " + json.dumps(cfg, sort_keys=True),
        f"seed: {'null' if seed is None else seed}",
    ]


def _load_policy(path: str, problem: ControlProblem, geometry) -> PowerPolicy:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if isinstance(data, dict) and isinstance(data.get("policy"), dict):
        data = data["policy"]
    try:
        return PowerPolicy.from_dict(data, problem.actions, geometry)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"policy file {path} does not match the config: {exc}") from exc


def _print_table(rows: list[tuple[str, bool, str]]) -> bool:
    all_ok = True
    for name, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail else ""
        print(f"{name:<44} {mark}{suffix}")
        all_ok &= ok
    return all_ok


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    try:
        problem = build_problem(cfg)
    except ModelError as exc:
        _print_table([("model construction", False, str(exc))])
        return EXIT_CHECK_FAILED

    rows: list[tuple[str, bool, str]] = []
    stability = validate_stability(
        problem.process, problem.channel, problem.reception, problem.actions
    )
    for report in (validate_channel(problem.channel), stability):
        for name, ok in report.checks.items():
            rows.append((name, ok, ""))
    # reception monotonicity probes across the power range, per gain
    powers = np.linspace(0.0, problem.actions.u_max, 33)
    for gi, h in enumerate(problem.channel.gains):
        q = reception_prob(problem.reception, powers, h)
        rows.append((f"reception.zero_power_zero[h={h:g}]", float(q[0]) == 0.0, ""))
        rows.append(
            (f"reception.monotone_in_power[h={h:g}]", bool(np.all(np.diff(q) >= -1e-12)), "")
        )
        rows.append(
            (f"reception.range[h={h:g}]", bool(np.all((q >= 0.0) & (q <= 1.0))), "")
        )
    q_top = [
        reception_prob(problem.reception, problem.actions.u_max, h)
        for h in sorted(problem.channel.gains)
    ]
    rows.append(("reception.monotone_in_gain", bool(np.all(np.diff(q_top) >= -1e-12)), ""))

    ok = _print_table(rows)
    a = problem.process.a
    h_min = min(problem.channel.gains)
    q_floor = float(reception_prob(problem.reception, problem.actions.u_max, h_min))
    margin = q_floor - (1.0 - 1.0 / a**2)
    print(f"stability margin: {margin:.6g}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _solver_args(cfg: dict) -> dict:
    sp = cfg["solver"]
    return {
        "depth": sp["depth"],
        "tol_rho": sp["tol_rho"],
        "max_rounds": sp["max_rounds"],
        "threshold_points": sp["threshold_points"],
    }


def _solve_payload(cfg: dict, result) -> dict:
    return {
        "config": cfg,
        "seed": None,
        "rho_star": result.rho_star,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "rho_history": [float(r) for r in result.rho_history],
        "tail_occupancy": result.tail_occupancy,
        "power_mean": result.evaluation.power_mean,
        "error_mean": result.evaluation.error_mean,
        "success_rate": result.evaluation.success_rate,
        "policy": result.policy.to_dict(),
    }


def _cmd_solve(args) -> int:
    cfg, problem, geometry = _load(args.config)
    result = solve(problem, geometry, **_solver_args(cfg))
    _emit_json(_solve_payload(cfg, result), args.output)
    if not result.converged:
        print("warning: solver stopped before convergence; best policy kept", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg, problem, geometry = _load(args.config)
    policy = _load_policy(args.policy, problem, geometry)
    chain = build_chain(problem, geometry, policy, cfg["solver"]["depth"])
    ev = evaluate_policy(chain, problem.cost)
    payload = {
        "config": cfg,
        "seed": None,
        "rho": ev.rho,
        "power_mean": ev.power_mean,
        "error_mean": ev.error_mean,
        "success_rate": ev.success_rate,
        "tail_occupancy": ev.tail_occupancy,
        "residual": ev.residual,
    }
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cfg, problem, geometry = _load(args.config)
    sim = cfg["simulate"]
    overrides = {"horizon": args.horizon, "base_seed": args.seed,
                 "replications": args.replications, "estimator": args.estimator}
    sim.update({key: value for key, value in overrides.items() if value is not None})
    _check_simulate(sim)
    seed = sim["base_seed"]
    policy = _load_policy(args.policy, problem, geometry)
    summary = replicate(
        problem,
        geometry,
        policy,
        sim["replications"],
        sim["horizon"],
        seed,
        threads=args.threads,
        estimator_mode=sim["estimator"],
        depth=cfg["solver"]["depth"],
        window=sim["window"],
        _trace=None if args.trace is None else (args.trace, _config_comment(cfg, seed)),
    )
    payload = {"config": cfg, "seed": seed, "metrics": summary.to_dict()}
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_verify_structure(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    cfg, problem, geometry = _load(args.config)
    if args.seed is not None:
        cfg["simulate"]["base_seed"] = args.seed
        _check_simulate(cfg["simulate"])
    if args.policy is not None:
        policy = _load_policy(args.policy, problem, geometry)
        chain = build_chain(problem, geometry, policy, cfg["solver"]["depth"])
        ev = evaluate_policy(chain, problem.cost)
    else:
        result = solve(problem, geometry, **_solver_args(cfg))
        if not result.converged:
            print("warning: in-process solve did not converge", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        chain, ev = result.chain, result.evaluation

    try:
        rows = verify_structure(chain, ev, samples=args.samples, seed=cfg["simulate"]["base_seed"])
    except ValueError as exc:  # an order radius past the grid; subclasses keep their lines
        if type(exc) is not ValueError:
            raise
        raise ConfigError(str(exc)) from exc
    ok = _print_table(rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_alpha_range(text: str) -> list[float]:
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError("expected start:step:stop")
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad --alpha range {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad --alpha range {text!r}: values must be finite")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ConfigError(f"bad --alpha range {text!r}: need step > 0 and stop >= start")
    span = (stop - start) / step
    if not span + 1e-9 < _MAX_SWEEP_POINTS:  # an infinite span fails too
        raise ConfigError(f"bad --alpha range {text!r}: too many points")
    count = int(span + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _cmd_sweep(args) -> int:
    cfg, _, geometry = _load(args.config)
    alphas = _parse_alpha_range(args.alpha)
    any_unconverged = False
    lines = ["alpha,rho_star,mean_power,mean_error"]
    for alpha in alphas:
        cfg_a = copy.deepcopy(cfg)
        cfg_a["cost"]["alpha"] = alpha
        problem_a = build_problem(cfg_a)
        result = solve(problem_a, geometry, **_solver_args(cfg))
        any_unconverged |= not result.converged
        lines.append(
            f"{alpha!r},{result.rho_star!r},"
            f"{result.evaluation.power_mean!r},{result.evaluation.error_mean!r}"
        )
    with open(args.output, "w", newline="") as f:
        for line in _config_comment(cfg, None):
            f.write(f"# {line}\n")
        f.write("\n".join(lines) + "\n")
    if any_unconverged:
        print("warning: at least one sweep point did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _demo_inputs(problem: ControlProblem, geometry) -> tuple[BeliefGrid, ActionFunction]:
    """Asymmetric bimodal belief plus an asymmetric rule, both scaled to the
    saturation radius so the demo works on any grid."""
    L = problem.actions.saturation_radius
    nodes = geometry.nodes()
    dens = 0.65 * np.exp(-0.5 * ((nodes + 0.15 * L) / (0.07 * L)) ** 2) / (0.07 * L)
    dens += 0.35 * np.exp(-0.5 * ((nodes - 0.22 * L) / (0.10 * L)) ** 2) / (0.10 * L)
    theta = BeliefGrid(geometry, dens / (geometry.cell_widths() @ dens))

    levels = problem.actions.levels
    values = np.full(geometry.n_points, levels[0])
    mid = levels[len(levels) // 2]
    values[(nodes > -0.30 * L) & (nodes <= -0.12 * L)] = mid
    values[nodes > 0.075 * L] = problem.actions.u_max
    values[np.abs(nodes) >= L] = problem.actions.u_max
    return theta, ActionFunction(values, problem.actions, geometry)


def _csv_cell(value: float) -> str:
    return repr(float(value))


def _cmd_rearrange_demo(args) -> int:
    from .rearrange import symmetric_decreasing_rearrangement

    cfg, problem, geometry = _load(args.config)
    theta, action = _demo_inputs(problem, geometry)
    theta_hat = symmetric_decreasing_rearrangement(theta)
    twin = rearranged_action(action, theta, theta_hat)
    with open(args.output, "w", newline="") as f:
        for line in _config_comment(cfg, None):
            f.write(f"# {line}\n")
        f.write("e,a,a_sigma,theta,theta_hat\n")
        for j, e in enumerate(geometry.nodes()):
            cells = (e, action.values[j], twin.values[j], theta.weights[j], theta_hat.weights[j])
            f.write(",".join(_csv_cell(c) for c in cells) + "\n")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "verify-structure": _cmd_verify_structure,
    "sweep": _cmd_sweep,
    "rearrange-demo": _cmd_rearrange_demo,
}


def run(argv: list[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = _build_parser().parse_args(args_list)
        if parsed.print_default_config:
            _emit_json(default_config(), None)
            return EXIT_OK
        if parsed.command is None:
            raise ConfigError("a subcommand is required (see --help)")
        return _COMMANDS[parsed.command](parsed)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ChainStructureError, GridGeometryError, MeasureMatchError, MemoryError,
            SupportOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except PolicyDomainError as exc:  # a KeyError, whose str() quotes the message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
