"""Monte Carlo rollout of the closed loop the chain models analytically.

The simulator never tracks the raw plant state over long horizons (it diverges
geometrically for |a| > 1); everything the metrics need is a function of the
estimation innovation, which resets on every successful transmission.  The
plant state itself is only materialized when a trace file is requested.

Policy lookups snap the innovation to the nearest grid node and read the
rule's own power and success probability there, so a rollout exercises
exactly the decision function the chain evaluates.  Rules and beliefs are read
from the solver's failure-history tree, the one the chain build reads, filled
only down to the deepest level a rollout visits; a rollout walks the tree's
integer node ids.
"""

from __future__ import annotations

import csv
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import logsumexp

from .belief import (
    DegenerateSuccessError,
    GridGeometry,
    SupportOverflowError,
    _failure_center,
    _level_success,
    mean as belief_mean,
)
from .model import ControlProblem, ScalarProcess, _is_int
from .policy import PowerPolicy
from .solver import _HistoryTree

logger = logging.getLogger(__name__)

STREAM_NOISE = 0
STREAM_CHANNEL = 1
STREAM_RECEPTION = 2


def _generator(base_seed: int, replication: int, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(replication, stream))
    return np.random.Generator(np.random.Philox(seq))


def estimate_closed_form(process: ScalarProcess, x_received: float, steps_since_success: int) -> float:
    """Estimate with the innovation mean taken as zero: a^k times the last
    received state."""
    return process.a**steps_since_success * x_received


def estimate_belief_mean(
    process: ScalarProcess,
    x_received: float,
    steps_since_success: int,
    innovation_mean: float,
) -> float:
    """Posterior-mean estimate: the closed form shifted by the conditional
    innovation mean given the failure history."""
    return estimate_closed_form(process, x_received, steps_since_success) + innovation_mean


@dataclass
class TrajectoryMetrics:
    """Time averages from one rollout."""

    horizon: int
    seed: int
    replication: int
    estimator_mode: str
    avg_cost: float
    avg_power: float
    avg_error: float
    success_rate: float
    gain_occupancy: list[float]
    root_attempts: list[int]
    root_successes: list[int]
    tail_fraction: float
    max_estimator_gap: float | None
    error_windows: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class _StateMemo:
    """Per-state rollout quantities read off one failure-history tree.

    rows[i * G + g] holds the rule's power and success probability per grid
    node, the innovation mean at tree node i, the failure-branch centre at
    (i, g) and the node a failure leads to.  The mean and the centre stay zero
    for the closed-form estimator, and from a node whose belief propagation
    failed.  One memo serves every replication a process runs.
    """

    def __init__(self, problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy,
                 depth: int, centred: bool):
        self.tree = _HistoryTree(problem, geometry, policy, depth)
        self.centred = centred
        self.rows: list[tuple | None] = [None] * (len(self.tree.nodes) * self.tree.n_gains)
        self._warned: set[ValueError] = set()

    def fill(self, s: int) -> tuple[np.ndarray, np.ndarray, float, float, int]:
        tree = self.tree
        i, g = divmod(s, tree.n_gains)
        action = tree.action_at(i, g)
        q = _level_success(action, tree.problem.reception, tree.problem.channel.gains[g])
        inn_mean = centre = 0.0
        if self.centred:
            try:
                theta = tree.belief_at(i)
            except (SupportOverflowError, DegenerateSuccessError) as exc:
                # the tree raises one error for a node and all its descendants
                if exc not in self._warned:
                    self._warned.add(exc)
                    logger.warning(
                        "belief propagation failed at failure history %s (%s); "
                        "falling back to closed-form estimates from here on",
                        tree.nodes[i], exc)
            else:
                inn_mean, centre = belief_mean(theta), _failure_center(theta, q)
        entry = self.rows[s] = (action.values, q, inn_mean, centre, int(tree.child[i, g]))
        return entry


def simulate(
    problem: ControlProblem,
    geometry: GridGeometry,
    policy: PowerPolicy,
    estimator_mode: str,
    horizon: int,
    seed: int,
    *,
    depth: int = 8,
    replication: int = 0,
    window: int = 100_000,
    trace_path: str | None = None,
    trace_comment: list[str] | None = None,
    _memo: _StateMemo | None = None,
) -> TrajectoryMetrics:
    """Roll the closed loop forward and return time-averaged metrics.

    estimator_mode "closed_form" centers the error cost at zero; "belief_mean"
    centers it at the conditional failure-branch mean and additionally tracks
    the worst gap between the two estimators.  Randomness comes from three
    counter-based streams (noise, channel, reception) derived from
    (seed, replication), so runs are reproducible regardless of scheduling.
    `_memo` lets replications in one process share the per-state quantities.
    """
    if estimator_mode not in ("closed_form", "belief_mean"):
        raise ValueError("estimator_mode must be 'closed_form' or 'belief_mean'")
    if not (_is_int(horizon) and horizon >= 1):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    if not (_is_int(window) and window >= 1):
        raise ValueError(f"window must be an integer >= 1, got {window!r}")
    channel = problem.channel
    process = problem.process
    G = len(channel.gains)
    centred = estimator_mode == "belief_mean"
    memo = _memo if _memo is not None else _StateMemo(problem, geometry, policy, depth, centred)
    rows = memo.rows
    n_inner = memo.tree.n_inner
    E = geometry.half_width
    dx = geometry.spacing
    n_pts = geometry.n_points

    noise_gen = _generator(seed, replication, STREAM_NOISE)
    chan_gen = _generator(seed, replication, STREAM_CHANNEL)
    rec_gen = _generator(seed, replication, STREAM_RECEPTION)
    x0 = float(noise_gen.normal(0.0, math.sqrt(process.init_var)))
    w = noise_gen.normal(0.0, math.sqrt(process.noise_var), horizon + 1)
    u_chan = chan_gen.random(horizon + 1)
    u_rec = rec_gen.random(horizon + 1)

    # next_gain[h][k]: the gain after step k from gain h
    next_gain = [np.minimum(np.searchsorted(row, u_chan, side="right"), G - 1).tolist()
                 for row in np.cumsum(np.asarray(channel.transition), axis=1)]

    trace_file = None
    writer = None
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="")
        for line in trace_comment or ():
            trace_file.write(f"# {line}\n")
        writer = csv.writer(trace_file)
        writer.writerow(
            ["k", "x", "x_hat_closed", "x_hat_belief", "e", "u", "h",
             "gamma", "power_cost", "error_cost"]
        )

    alpha = problem.cost.alpha
    i = 0
    g = channel.initial_gain_index
    e = float(w[0])
    x = x0
    x_last = x0
    steps_since = 1

    cost_sum = 0.0
    power_sum = 0.0
    error_sum = 0.0
    successes = 0
    gain_counts = [0] * G
    root_att = [0] * G
    root_suc = [0] * G
    tail_steps = 0
    max_gap = 0.0 if centred else None
    windows: list[float] = []
    win_err = 0.0
    win_count = 0

    for k in range(1, horizon + 1):
        gain_counts[g] += 1
        if i >= n_inner:
            tail_steps += 1
        values, q_node, inn_mean, center, fail_child = rows[i * G + g] or memo.fill(i * G + g)
        idx = int((e + E) / dx + 0.5)
        if idx < 0:
            idx = 0
        elif idx >= n_pts:
            idx = n_pts - 1
        u = float(values[idx])
        q = float(q_node[idx])
        received = u_rec[k] < q

        if centred and abs(inn_mean) > max_gap:
            max_gap = abs(inn_mean)

        if i == 0:
            root_att[g] += 1
            if received:
                root_suc[g] += 1

        err_term = 0.0 if received else (e - center) ** 2
        cost_sum += alpha * u + err_term
        power_sum += u
        error_sum += err_term
        win_err += err_term
        win_count += 1
        if win_count == window:
            windows.append(win_err / window)
            win_err = 0.0
            win_count = 0

        if writer is not None:
            if received:
                x_hat_closed = x
                x_hat_belief = x
            else:
                x_hat_closed = estimate_closed_form(process, x_last, steps_since)
                x_hat_belief = estimate_belief_mean(process, x_last, steps_since, inn_mean)
            writer.writerow(
                [k, repr(x), repr(x_hat_closed), repr(x_hat_belief), repr(e),
                 repr(u), repr(channel.gains[g]), int(received),
                 repr(alpha * u), repr(err_term)]
            )

        if received:
            successes += 1
            x_last = x
            i = 0
            steps_since = 1
            e = float(w[k])
        else:
            i = fail_child
            steps_since += 1
            e = process.a * e + float(w[k])
        if writer is not None:
            x = process.a * x + float(w[k])
        g = next_gain[g][k]

    if trace_file is not None:
        trace_file.close()

    return TrajectoryMetrics(
        horizon=horizon,
        seed=seed,
        replication=replication,
        estimator_mode=estimator_mode,
        avg_cost=cost_sum / horizon,
        avg_power=power_sum / horizon,
        avg_error=error_sum / horizon,
        success_rate=successes / horizon,
        gain_occupancy=[c / horizon for c in gain_counts],
        root_attempts=root_att,
        root_successes=root_suc,
        tail_fraction=tail_steps / horizon,
        max_estimator_gap=max_gap,
        error_windows=windows,
    )


@dataclass
class ReplicationSummary:
    """Cross-replication aggregate with the standard error of the mean cost."""

    replications: int
    horizon: int
    costs: list[float]
    cost_mean: float
    cost_se: float
    power_mean: float
    error_mean: float
    success_rate_mean: float
    max_estimator_gap: float | None
    per_replication: list[TrajectoryMetrics]

    def to_dict(self) -> dict:
        return asdict(self)


def _replicate_worker(args) -> list[TrajectoryMetrics]:
    (problem, geometry, policy, estimator_mode, horizon, base_seed, reps, depth, window,
     trace) = args
    memo = _StateMemo(problem, geometry, policy, depth, estimator_mode == "belief_mean")
    trace_path, trace_comment = trace or (None, None)
    return [
        simulate(
            problem, geometry, policy, estimator_mode, horizon, base_seed,
            depth=depth, replication=r, window=window,
            trace_path=trace_path if r == 0 else None, trace_comment=trace_comment, _memo=memo,
        )
        for r in reps
    ]


def replicate(
    problem: ControlProblem,
    geometry: GridGeometry,
    policy: PowerPolicy,
    replications: int,
    horizon: int,
    base_seed: int,
    *,
    threads: int = 1,
    estimator_mode: str = "closed_form",
    depth: int = 8,
    window: int = 100_000,
    _trace: tuple[str, list[str]] | None = None,
) -> ReplicationSummary:
    """Run independent replications and aggregate in replication order.

    Replication r draws from streams keyed by (base_seed, r), so the summary
    is bit-identical for any thread count; threads only change wall time.
    Each process runs a contiguous block of replications on one shared
    failure-history tree.  `_trace` = (path, comment lines) writes
    replication 0's per-step CSV while that replication runs.
    """
    if not (_is_int(replications) and replications >= 1):
        raise ValueError(f"replications must be an integer >= 1, got {replications!r}")
    if not (_is_int(threads) and threads >= 1):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    n_jobs = min(threads, replications)
    cuts = [replications * k // n_jobs for k in range(n_jobs + 1)]
    jobs = [
        (problem, geometry, policy, estimator_mode, horizon, base_seed, range(lo, hi),
         depth, window, _trace)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    if n_jobs == 1:
        results = _replicate_worker(jobs[0])
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = [m for block in pool.map(_replicate_worker, jobs) for m in block]

    costs = [m.avg_cost for m in results]
    arr = np.asarray(costs)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    gaps = [m.max_estimator_gap for m in results if m.max_estimator_gap is not None]
    return ReplicationSummary(
        replications=replications,
        horizon=horizon,
        costs=costs,
        cost_mean=float(arr.mean()),
        cost_se=se,
        power_mean=float(np.mean([m.avg_power for m in results])),
        error_mean=float(np.mean([m.avg_error for m in results])),
        success_rate_mean=float(np.mean([m.success_rate for m in results])),
        max_estimator_gap=max(gaps) if gaps else None,
        per_replication=results,
    )


def error_growth_windows(
    process: ScalarProcess, horizon: int, window: int, seed: int
) -> list[float]:
    """Log of windowed mean squared innovation when nothing is ever received.

    e_k = sum_j a^(k-1-j) w_j grows like a^k for |a| > 1, so the recursion runs
    on the bounded rescaling s_k = e_k / a^k and window means are assembled
    with logsumexp.  Returns log E-hat[e^2] per window; for an unstable plant
    these should increase roughly linearly at rate 2 log a.
    """
    if not (_is_int(window) and _is_int(horizon) and 1 <= window <= horizon):
        raise ValueError(
            f"need integers 1 <= window <= horizon, got window={window!r}, horizon={horizon!r}"
        )
    a = process.a
    if a <= 0:
        raise ValueError("growth diagnostic assumes a positive plant coefficient")
    gen = _generator(seed, 0, STREAM_NOISE)
    gen.normal(0.0, math.sqrt(process.init_var))  # stream-aligned with simulate
    w = gen.normal(0.0, math.sqrt(process.noise_var), horizon)
    k = np.arange(1, horizon + 1)
    with np.errstate(divide="ignore"):
        if a > 1.0:
            # rescaling keeps the recursion bounded; the factors underflow
            # harmlessly once the increments stop mattering
            s = np.cumsum(w * np.exp(-k * math.log(a)))
            log_e2 = 2.0 * np.log(np.abs(s)) + 2.0 * k * math.log(a)
        else:
            # scipy.signal pulls in scipy.stats, .interpolate and .optimize:
            # load it here, not with the package
            from scipy.signal import lfilter

            e = lfilter([1.0], [1.0, -a], w)
            log_e2 = 2.0 * np.log(np.abs(e))
    out = []
    for start in range(0, horizon - window + 1, window):
        block = log_e2[start : start + window]
        out.append(float(logsumexp(block) - math.log(window)))
    return out
