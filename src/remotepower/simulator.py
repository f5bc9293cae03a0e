"""Monte Carlo rollout of the closed loop the chain models analytically.

The simulator never tracks the raw plant state over long horizons (it diverges
geometrically for |a| > 1); everything the metrics need is a function of the
estimation innovation, which resets on every successful transmission.  The
plant state itself is only materialized when a trace file is requested.

Policy lookups snap the innovation to the nearest grid node and read the
rule's own power and success probability there, so a rollout exercises
exactly the decision function the chain evaluates.  Rules and beliefs are read
from the solver's failure-history tree, the one the chain build reads; a
rollout walks the tree's integer node ids.

A rollout runs in array passes over time blocks of ``_BLOCK_STEPS`` steps,
not one step at a time.  The three random streams are drawn a block at a
time.  In each block:

- the gain path comes from the channel draws alone;
- every failure run that could start in the block is stepped at once, one
  pass per run position, through rule tables (the power and success
  probability per grid node, one row per distinct rule and gain);
- the true path chases run lengths from the block's first step;
- the path needs rules only, so beliefs are read after it is known, through
  the tree's ``read``, which steps only the nodes the path visits and their
  ancestors, and streams the depth cap's nodes instead of storing them;
- the cost terms are summed with cumulative sums, so every total is the
  one the per-step loop makes, bit for bit.

The trace is written from the same arrays.  The work per step grows with
the length of the runs that could start there, so a policy that almost
never gets through (runs as long as a block) steps far slower than one
that does.
"""

from __future__ import annotations

import csv
import errno
import logging
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .belief import (
    BeliefGrid,
    DegenerateSuccessError,
    GridGeometry,
    SupportOverflowError,
    _failure_center,
    _level_success,
    mean as belief_mean,
)
from .model import ControlProblem, ScalarProcess, _is_int
from .policy import PowerPolicy
from .solver import _HistoryTree, _fork_pool

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


# Steps per time block: the streams are drawn, and the path walked, this
# many steps at a time.  A 1e6-step closed-form canonical replication ran
# as fast with 1 << 14 as with 1 << 16 and peaked 17 MB lower; 1 << 12 was
# a third slower.
_BLOCK_STEPS = 1 << 14


class _StateMemo:
    """Per-state rollout quantities read off one failure-history tree.

    State s = i * G + g is tree node i at gain g.  ``row[s]`` is the row of
    ``power`` and ``success`` that holds the rule's power and success
    probability per grid node there, one row per distinct (rule, gain) of
    the tree's rule table, built once; it is -1 where the policy gives no
    rule, whose error the tree's ``rule_errors[s]`` holds.  So the memo holds
    a row for every (rule, gain) the policy has, visited or not: 40 on the
    canonical policy, but one per state for a policy with a table of its own
    at every state (at depth 8 on the canonical grid, up to 1024 rows of 32
    KB in each of the two tables, the order ``build_chain`` holds for such a
    policy too).  ``mean[s]`` is the innovation mean at node i and
    ``centre[s]`` the failure-branch centre at (i, g); both stay zero for
    the closed-form estimator and from a node whose belief propagation
    failed, and the centre at a state with no rule.  When a rollout first
    visits one of a node's states, the memo reads the whole node through
    the tree's ``read``, which decides how its belief is kept (a cap node's
    is streamed, not stored), and takes every gain's mean and centre.
    ``best[g]`` is the highest success probability in any row at gain g.
    One memo serves every replication a process runs.
    """

    def __init__(self, problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy,
                 depth: int):
        self.tree = tree = _HistoryTree(problem, geometry, policy, depth)
        G = tree.n_gains
        ruled = tree.rule >= 0
        pairs, rows = np.unique(tree.rule[ruled] * G + np.flatnonzero(ruled) % G,
                                return_inverse=True)
        self.row = np.full(len(tree.rule), -1, dtype=np.intp)
        self.row[ruled] = rows
        rules, gains = np.divmod(pairs, G)
        actions = [tree.rules[r] for r in rules.tolist()]
        self.power = np.array([action.values for action in actions])
        self.success = np.array([
            _level_success(action, problem.reception, problem.channel.gains[g])
            for action, g in zip(actions, gains.tolist())
        ])
        self.best = np.array([self.success[gains == g].max() for g in range(G)])
        self.read = np.zeros(len(tree.rule), dtype=bool)
        self.mean = np.zeros(len(tree.rule))
        self.centre = np.zeros(len(tree.rule))
        self._warned: set[ValueError] = set()

    def centring(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The innovation mean and failure-branch centre at each of a path's
        states.  The nodes of the states read for the first time are read
        whole, then their failures logged in the order of their first visit."""
        tree = self.tree
        new = states[~self.read[states]]
        if new.size:
            new, first = np.unique(new // tree.n_gains, return_index=True)
            failed: dict[int, ValueError] = {}
            tree.read(new, partial(self._take, failed))
            self.read[(new[:, None] * tree.n_gains + np.arange(tree.n_gains)).ravel()] = True
            # the tree hands one error for a node and all its descendants
            for i in new[np.argsort(first)].tolist():
                err = failed.get(i)
                if err is None or err in self._warned:
                    continue
                if not isinstance(err, (SupportOverflowError, DegenerateSuccessError)):
                    raise err
                self._warned.add(err)
                logger.warning(
                    "belief propagation failed at failure history %s (%s); "
                    "falling back to closed-form estimates from here on", tree.nodes[i], err)
        return self.mean[states], self.centre[states]

    def _take(self, failed: dict, rows: list[int], weights: np.ndarray, errors: list) -> None:
        """Every gain's mean and every ruled state's centre at each node of
        a block the tree hands over; a failed node's error goes to `failed`."""
        G = self.tree.n_gains
        for i, row, err in zip(rows, weights, errors):
            if err is not None:
                failed[i] = err
                continue
            theta = BeliefGrid._view(self.tree.geometry, row)
            self.mean[i * G : (i + 1) * G] = belief_mean(theta)
            for s in range(i * G, (i + 1) * G):
                if self.row[s] >= 0:
                    self.centre[s] = _failure_center(theta, self.success[self.row[s]])


def _gain_path(cum: np.ndarray, u_chan: np.ndarray, g: int) -> tuple[np.ndarray, int]:
    """The channel gain at each step of a block that starts at gain g, and
    the gain after its last step.  After step t the next gain is the first
    whose cumulative transition probability from the current one exceeds
    u_chan[t].  The block's chunks of about sqrt(n) steps are walked from
    every gain at once, a pass per chunk position, then joined in order."""
    G, n = len(cum), len(u_chan)
    if G == 1:
        return np.zeros(n, dtype=np.intp), 0
    size = math.isqrt(n - 1) + 1
    chunks = -(-n // size)
    table = np.zeros((G, chunks * size), dtype=np.intp)
    for h, row in enumerate(cum):
        table[h, :n] = np.minimum(np.searchsorted(row, u_chan, side="right"), G - 1)
    table = table.reshape(G, chunks, size)
    walk = np.empty((size + 1, G, chunks), dtype=np.intp)
    walk[0] = np.arange(G)[:, None]
    cols = np.arange(chunks)
    for t in range(size):
        walk[t + 1] = table[walk[t], cols, t]
    ends = walk[size].T.tolist()
    starts = []
    for c in range(chunks):
        starts.append(g)
        g = ends[c][g]
    last = n - (chunks - 1) * size
    return walk[:size, starts, cols].T.ravel()[:n], int(walk[last, starts[-1], -1])


@dataclass
class _Path:
    """A rollout's steps through one time block: state, innovation, power
    and outcome per step; the node and innovation the next block starts at;
    and, when the rollout fails at a step, its error (the path stops before
    that step)."""

    state: np.ndarray
    e: np.ndarray
    u: np.ndarray
    received: np.ndarray
    next_node: int
    next_e: float
    error: Exception | None

    def cut(self, m: int, error: Exception) -> _Path:
        """The path's first m steps, failing at the next one with `error`."""
        return _Path(self.state[:m], self.e[:m], self.u[:m], self.received[:m], 0, 0.0, error)


def _walk(memo: _StateMemo, gains: np.ndarray, w: np.ndarray, u_rec: np.ndarray,
          node0: int, e0: float) -> _Path:
    """The rollout's path through a block of n steps that starts at node
    node0 with innovation e0.

    Lane t is the failure run that would start at step t: lane 0 from
    (node0, e0), every other lane from the root with innovation w[t - 1].
    A run can start at step t > 0 only after a success at step t - 1, so
    only where u_rec[t - 1] is below the best success probability of any
    rule at that step's gain.  Without that choice, runs as long as the
    block would take time and memory quadratic in its length.  The
    path then chases run lengths from lane 0, and its lanes' steps are the
    path's steps.
    """
    n = len(gains)
    lane = np.flatnonzero(np.concatenate(([True], u_rec[:-1] < memo.best.take(gains[:-1]))))
    # a long run's innovation may overflow; simulate stops the path at the
    # first squared error that does
    with np.errstate(over="ignore"):
        passes, stop, left, jammed = _step_lanes(memo, lane, gains, w, u_rec, node0, e0)

    stops = stop.tolist()
    t, starts = 0, [0]
    while stops[t] < n:
        t = stops[t]
        starts.append(t)
    if t in jammed:
        m, s = jammed[t]
        error, (next_node, next_e) = memo.tree.rule_errors[s], (0, 0.0)
    else:
        m, error = n, None
        next_node, next_e = left.get(t, (0, float(w[-1])))
    on_path = np.zeros(n, dtype=bool)
    on_path[starts] = True
    pos, lane, *steps = (np.concatenate(v) for v in zip(*passes))
    keep = np.flatnonzero(on_path.take(lane))
    at = pos.take(keep)
    path = [np.empty(m, dtype=v.dtype) for v in steps]
    for out, v in zip(path, steps):
        out[at] = v.take(keep)
    return _Path(*path, next_node, next_e, error)


def _step_lanes(memo: _StateMemo, lane: np.ndarray, gains: np.ndarray, w: np.ndarray,
                u_rec: np.ndarray, node0: int, e0: float):
    """Step the runs of `lane` at once, one pass per run position, until
    each succeeds, steps past the block or reaches a state the policy gives
    no rule for.  Returns each pass's (step, lane, state, innovation, power,
    outcome) arrays; the step after each lane's run (n for none in the
    block); the state after the block of the lane that leaves it; and the
    step and state at which a lane found no rule."""
    tree = memo.tree
    G, child = tree.n_gains, tree.child.ravel()  # child[s]: the node a miss at s leads to
    a = tree.problem.process.a
    geometry = tree.geometry
    E, dx, n_pts = geometry.half_width, geometry.spacing, geometry.n_points
    n = len(gains)
    node = np.zeros(len(lane), dtype=np.intp)
    node[0] = node0
    e = w.take(lane - 1)
    e[0] = e0
    stop = np.full(n, n)
    left: dict[int, tuple[int, float]] = {}
    jammed: dict[int, tuple[int, int]] = {}
    passes = []
    j = 0
    while lane.size:
        pos = lane + j
        state = node * G + gains.take(pos)
        rows = memo.row.take(state)
        if rows.min() < 0:
            ruled = rows >= 0
            for t, s in zip(lane[~ruled].tolist(), state[~ruled].tolist()):
                jammed[t] = (t + j, s)
            stop[lane[~ruled]] = n  # a chase stops at such a lane
            lane, pos, state, rows, e = (v[ruled] for v in (lane, pos, state, rows, e))
        x = (e + E) / dx + 0.5
        at = np.minimum(np.maximum(x, 0.0, out=x), n_pts - 1, out=x).astype(np.intp)
        at += rows * n_pts
        u = memo.power.take(at)
        received = u_rec.take(pos) < memo.success.take(at)
        passes.append((pos, lane, state, e, u, received))
        stop[lane] = pos + 1
        failed = (~received).nonzero()[0]
        lane, pos, e = lane.take(failed), pos.take(failed), e.take(failed)
        node = child.take(state.take(failed))
        e = a * e + w.take(pos)
        if lane.size and pos[-1] == n - 1:  # the one lane at the block's last step
            left[int(lane[-1])] = (int(node[-1]), float(e[-1]))
            lane, node, e = lane[:-1], node[:-1], e[:-1]
        j += 1
    return passes, stop, left, jammed


def _summed(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added in that order (to inf, as
    Python floats add, when the sum overflows)."""
    with np.errstate(over="ignore"):
        return float(np.cumsum(np.concatenate(([total], terms)))[-1])


class _Totals:
    """A rollout's running sums and counts, each added to in step order, so
    every sum is the one a step-by-step loop makes, bit for bit."""

    def __init__(self, n_gains: int, window: int, alpha: float, n_inner: int):
        self.window, self.alpha, self.n_inner = window, alpha, n_inner
        self.cost = self.power = self.error = 0.0
        self.successes = self.tail = 0
        self.gains = np.zeros(n_gains, dtype=np.int64)
        self.root_attempts = np.zeros(n_gains, dtype=np.int64)
        self.root_successes = np.zeros(n_gains, dtype=np.int64)
        self.max_gap = 0.0
        self.windows: list[float] = []
        self.win_err = 0.0
        self.win_count = 0

    def add(self, gains: np.ndarray, node: np.ndarray, received: np.ndarray, u: np.ndarray,
            err: np.ndarray) -> None:
        G = len(self.gains)
        self.gains += np.bincount(gains, minlength=G)
        self.tail += int(np.count_nonzero(node >= self.n_inner))
        root = node == 0
        self.root_attempts += np.bincount(gains[root], minlength=G)
        self.root_successes += np.bincount(gains[root & received], minlength=G)
        self.successes += int(np.count_nonzero(received))
        self.cost = _summed(self.cost, self.alpha * u + err)
        self.power = _summed(self.power, u)
        self.error = _summed(self.error, err)
        # error windows: the open one's rest, whole ones, then a new open one
        window = self.window
        head = min(window - self.win_count, len(err))
        self.win_err = _summed(self.win_err, err[:head])
        self.win_count += head
        if self.win_count == window:
            self.windows.append(self.win_err / window)
            self.win_err, self.win_count = 0.0, 0
        rest = err[head:]
        whole = len(rest) // window * window
        if whole:
            sums = np.cumsum(rest[:whole].reshape(-1, window), axis=1)[:, -1]
            self.windows.extend((sums / window).tolist())
        if whole < len(rest):
            self.win_err = _summed(0.0, rest[whole:])
            self.win_count = len(rest) - whole


class _Trace:
    """A rollout's per-step CSV, written a block at a time.  It carries the
    plant state and the last received state, which only the trace reads."""

    def __init__(self, file, comment: list[str] | None, problem: ControlProblem, x0: float):
        for line in comment or ():
            file.write(f"# {line}\n")
        self.writer = csv.writer(file)
        self.writer.writerow(
            ["k", "x", "x_hat_closed", "x_hat_belief", "e", "u", "h",
             "gamma", "power_cost", "error_cost"]
        )
        self.problem = problem
        self.x = self.x_last = x0
        self.steps_since = 1

    def write(self, k: int, path: _Path, gains: np.ndarray, mean: np.ndarray,
              err: np.ndarray, w: np.ndarray) -> None:
        process = self.problem.process
        alpha = self.problem.cost.alpha
        h = self.problem.channel.gains
        x, x_last, steps_since = self.x, self.x_last, self.steps_since
        rows = []
        for e, u, g, received, inn_mean, err_term, w_k in zip(
            path.e.tolist(), path.u.tolist(), gains.tolist(), path.received.tolist(),
            mean.tolist(), err.tolist(), w.tolist(),
        ):
            if received:
                x_hat_closed = x
                x_hat_belief = x
            else:
                x_hat_closed = estimate_closed_form(process, x_last, steps_since)
                x_hat_belief = estimate_belief_mean(process, x_last, steps_since, inn_mean)
            rows.append(
                [k, repr(x), repr(x_hat_closed), repr(x_hat_belief), repr(e),
                 repr(u), repr(h[g]), int(received), repr(alpha * u), repr(err_term)]
            )
            k += 1
            if received:
                x_last = x
                steps_since = 1
            else:
                steps_since += 1
            x = process.a * x + w_k
        self.writer.writerows(rows)
        self.x, self.x_last, self.steps_since = x, x_last, steps_since


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
    The streams are drawn and the loop rolled out a time block at a time
    (see the module docstring); the metrics do not depend on the blocks.
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
    memo = _memo if _memo is not None else _StateMemo(problem, geometry, policy, depth)

    noise_gen = _generator(seed, replication, STREAM_NOISE)
    chan_gen = _generator(seed, replication, STREAM_CHANNEL)
    rec_gen = _generator(seed, replication, STREAM_RECEPTION)
    x0 = float(noise_gen.normal(0.0, math.sqrt(process.init_var)))
    noise_sd = math.sqrt(process.noise_var)
    # each stream's draw 0: the first innovation, and two that no step reads
    e = float(noise_gen.normal(0.0, noise_sd))
    chan_gen.random()
    rec_gen.random()
    cum = np.cumsum(np.asarray(channel.transition), axis=1)

    totals = _Totals(G, window, problem.cost.alpha, memo.tree.n_inner)
    node, g = 0, channel.initial_gain_index
    trace = open(trace_path, "w", newline="") if trace_path is not None else nullcontext()
    with trace as trace_file:
        writer = None if trace_file is None else _Trace(trace_file, trace_comment, problem, x0)
        k = 1
        while k <= horizon:
            n = min(_BLOCK_STEPS, horizon + 1 - k)
            # draws k .. k + n - 1 of each stream
            w = noise_gen.normal(0.0, noise_sd, n)
            u_chan = chan_gen.random(n)
            u_rec = rec_gen.random(n)
            gains, next_g = _gain_path(cum, u_chan, g)
            path = _walk(memo, gains, w, u_rec, node, e)
            if centred:
                mean, centre = memo.centring(path.state)
            else:
                mean, centre = np.zeros(len(path.state)), 0.0
            with np.errstate(over="ignore"):
                err = np.float_power(path.e - centre, 2.0)
            err[path.received] = 0.0
            over = np.flatnonzero(np.isinf(err))
            if over.size:  # where a Python float's power raises, numpy's is inf
                error = OverflowError(errno.ERANGE, "Numerical result out of range")
                path = path.cut(over[0], error)
            m = len(path.state)
            mean, err = mean[:m], err[:m]
            if centred:
                totals.max_gap = max(totals.max_gap, float(np.abs(mean).max(initial=0.0)))
            totals.add(gains[:m], path.state // G, path.received, path.u, err)
            if writer is not None:
                writer.write(k, path, gains[:m], mean, err, w[:m])
            if path.error is not None:
                raise path.error
            k += n
            node, e, g = path.next_node, path.next_e, next_g

    return TrajectoryMetrics(
        horizon=horizon,
        seed=seed,
        replication=replication,
        estimator_mode=estimator_mode,
        avg_cost=totals.cost / horizon,
        avg_power=totals.power / horizon,
        avg_error=totals.error / horizon,
        success_rate=totals.successes / horizon,
        gain_occupancy=[c / horizon for c in totals.gains.tolist()],
        root_attempts=totals.root_attempts.tolist(),
        root_successes=totals.root_successes.tolist(),
        tail_fraction=totals.tail / horizon,
        max_estimator_gap=totals.max_gap if centred else None,
        error_windows=totals.windows,
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
    memo = _StateMemo(problem, geometry, policy, depth)
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
    With more than one thread, each of that many forked processes runs a
    contiguous block of replications on one shared failure-history tree
    (where fork is unavailable, the blocks run one after another here).
    `_trace` = (path, comment lines) writes replication 0's per-step CSV
    while that replication runs.
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
    pool = _fork_pool(n_jobs) if n_jobs > 1 else None
    if pool is None:
        results = [m for job in jobs for m in _replicate_worker(job)]
    else:
        with pool:
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
    # scipy.special is loaded here, not with the package, as lfilter is
    from scipy.special import logsumexp

    out = []
    for start in range(0, horizon - window + 1, window):
        block = log_e2[start : start + window]
        out.append(float(logsumexp(block) - math.log(window)))
    return out
