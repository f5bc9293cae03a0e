"""Average-cost policy optimization on the failure-history chain.

Between two successful transmissions the controller's belief depends only on
the sequence of channel gains seen since the last success, so the reachable
belief space unfolds into a finite tree of gain histories once the depth is
capped.  States are (history node, current gain) pairs; the chain couples the
belief recursion with the gain process and policy evaluation reduces to sparse
linear algebra on it.

Beliefs and rules come from one failure-history tree per policy, filled one
level at a time on demand: the chain build reads every node of it, and the
Monte Carlo simulator reads the nodes a rollout visits (asking for a node
fills its whole level).  Only the tree knows its shape; both readers walk its
integer node ids.  The tree keeps its beliefs as the rows of one
(nodes, points) array and steps each level itself: a level's nodes are one
run of rows, which go through the batched belief step straight into the
array in blocks of ``belief._BLOCK_ROWS`` rows taken off one queue.  When
the process may use two CPUs and the level has more than one block, a
worker thread, kept for the life of the process, takes blocks beside the
calling thread.  Each rule the policy holds is expanded once per tree, and
rules and their success vectors are made on the calling thread before any
block is stepped.  Policy improvement and the structure witness read one
greedy pass, which takes the ring minimum of ``_BLOCK_ROWS`` states at one
gain at once.

``verify_structure``'s randomized probes go one at a time through the
public functions: each draws a relation pair with ``random_relation_pair``,
a threshold rule and a gain, and rewrites the rule with
``rearranged_action``.  A cost probe is two ``stage_cost`` calls; an order
probe is two ``propagate`` calls and one ``relation_R`` call.  The radii the
probes are drawn inside are fixed, inside the grid, before any draw, so no
draw fails.  With ``_POOL_MIN_PROBES`` probes a pass or more, in a process
that may use more than one CPU, the passes are scored by one pool of forked
worker processes, one per CPU, in contiguous chunks handed out before the
rule-shape check and the structure witness run, which then overlap the
probes.  The caller still makes every draw in order, so each probe and the
generator's final state are those of the serial loop.  The first probe
that fails, in probe order, raises its error.  Each pass logs its probe
count, worker count and seconds to the ``remotepower.solver`` logger at INFO.

``solve`` and ``solve_discounted`` hold one tree at a time: each round's
chain, and with it the tree's array, is dropped once its improvement sweep
is done and before the next round builds its own.  ``SolveResult.chain`` is
the chain still in hand when the loop ended on a repeated rule set or on
``max_rounds``; when the last round was rejected, the best policy's chain is
gone by then, and the first read of ``chain`` builds it again.

Depth capping makes the tail nodes approximate: their beliefs are frozen and
they transmit at full power, so a failure at the cap self-loops.  The solver
reports tail occupancy so callers can confirm the cap does not matter.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import math
import os
import threading
import time
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations_with_replacement
from queue import Empty, SimpleQueue

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .belief import (
    DEGENERATE_SUCCESS_TOL,
    SUPPORT_OVERFLOW_TOL,
    _BLOCK_ROWS,
    ActionFunction,
    BeliefGrid,
    DegenerateSuccessError,
    GridGeometry,
    GridGeometryError,
    SupportOverflowError,
    _failure_center,
    _grid_arrays,
    _level_success,
    _node_distortion,
    _rule_vectors,
    _step_rows,
    gaussian_grid,
    propagate,
    stage_cost,
    success_prob,
)
from .model import (
    ActionSet,
    ControlProblem,
    CostWeights,
    _is_int,
    reception_prob,
    validate_stability,
)
from .policy import (
    NodeKey,
    PowerPolicy,
    Rule,
    StateKey,
    ThresholdAction,
    check_symmetric_monotone,
    extract_threshold_action,
    max_power_action,
    threshold_grid,
)
from .rearrange import (
    _relation_pair_draws,
    random_relation_pair,
    rearranged_action,
    relation_R,
)

logger = logging.getLogger(__name__)

STATIONARY_RESIDUAL_TOL = 1e-10
RHO_CROSSCHECK_TOL = 1e-8
CENTER_SNAP_TOL = 1e-9
CENTER_ITERATIONS = 5
STRUCTURE_GAP_TOL = 1e-5
COST_ORDER_TOL = 1e-6

# A probe pass goes to a process pool from this many probes.  A pool of two
# forked workers costs a pass about 25 ms (13 ms to start and stop it, the
# rest the caller's draws and the last chunk's wait); a cost probe takes
# about 1.3 ms on the canonical grid and 0.5 ms on a 401-point grid, and an
# order probe about 2.3 times as long.  Two workers beat one from about 40
# probes on the canonical grid and 100 on the 401-point grid.
_POOL_MIN_PROBES = 100
# Contiguous chunks of probes per pool worker; a worker done with one chunk
# takes the next.  2 to 32 took the same time on the canonical probes.
_CHUNKS_PER_WORKER = 4


class ChainStructureError(RuntimeError):
    """The policy's chain has no usable single recurrent class."""


@dataclass
class UnfoldedChain:
    """Finite belief chain induced by one policy.

    nodes[i] is the tuple of gain indices observed at the consecutive failures
    since the last success (root = ()).  State s = i * n_gains + g.  Nodes at
    the depth cap are flagged in tail_mask; nodes whose parent edge is an
    (almost surely) successful transmission carry a placeholder root belief
    and are flagged virtual (they are unreachable, but keeping them makes the
    state indexing policy-independent).
    """

    problem: ControlProblem
    geometry: GridGeometry
    depth: int
    nodes: list[NodeKey]
    node_index: dict[NodeKey, int]
    child: np.ndarray
    beliefs: list[BeliefGrid]
    actions: list[ActionFunction]
    phi: np.ndarray
    power: np.ndarray
    distortion: np.ndarray
    P: sp.csr_matrix
    tail_mask: np.ndarray
    virtual_mask: np.ndarray

    ref_state = 0

    @property
    def n_gains(self) -> int:
        return len(self.problem.channel.gains)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_states(self) -> int:
        return len(self.nodes) * self.n_gains

    def state_key(self, s: int) -> StateKey:
        return self.nodes[s // self.n_gains], s % self.n_gains

    def stage_vector(self, weights: CostWeights) -> np.ndarray:
        return weights.alpha * self.power + self.distortion

    def tail_states(self) -> np.ndarray:
        return np.repeat(self.tail_mask, self.n_gains)

    def virtual_states(self) -> np.ndarray:
        return np.repeat(self.virtual_mask, self.n_gains)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_pool(workers: int):
    """A pool of `workers` processes forked from this one, or None where
    fork is unavailable.

    Fork, not spawn or forkserver: a forked worker starts with this
    process's modules loaded, where a spawned one would import the package
    again (about 0.4 s).  The one thread the package starts, the step
    worker, holds no lock between levels, and a forked child forgets it.
    The pool's own modules load here, not with the package."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


# The one thread that steps blocks beside the calling thread.  It starts with
# the first level that needs it and is kept, so every level reuses its malloc
# arena: with a thread per level, a new thread could start before the last
# one had handed its arena back, and a 30-solve run held three arenas of
# about 2.6 MB each instead of one.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _step_worker() -> ThreadPoolExecutor:
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="belief-step")
        return _worker


def _forget_step_worker() -> None:
    """In a forked child, which has no copy of the parent's worker thread."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_step_worker)


class _HistoryTree:
    """Failure-history tree of one policy, filled one level at a time.

    The one owner of the tree's shape.  Nodes are numbered level by level
    from the root 0: the child of inner node i (i < n_inner) at gain g is
    G*i + 1 + g, and a node at the depth cap is its own child.  ``nodes``,
    ``node_index`` and ``child`` expose that numbering.  The rule at (i, g)
    is the policy's rule, or full power at the cap; each rule the policy
    holds is expanded once and shared, keyed by the rule (a table by the
    policy's own array), so the policy must not change while its tree lives.
    Asking for a belief fills every level down to the node's; beliefs are
    the rows of one (nodes, points) array the tree owns, handed out as
    views.  A level's nodes are one run of rows, stepped from their parents'
    rows in blocks of ``_BLOCK_ROWS`` rows by the calling thread and, when
    the process may use two CPUs and the level has more than one block, by
    the step worker too.  A child whose step fails stores its error, which
    is raised again for that node and for every node below it; its siblings
    go on.  A failed node's children are stepped with the rest and then take
    its error.  The policy must be built on the tree's grid.
    """

    def __init__(
        self, problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy, depth: int
    ):
        own = (policy.geometry.half_width, policy.geometry.n_points)
        if own != (geometry.half_width, geometry.n_points):
            raise GridGeometryError(
                f"policy built on the grid +-{own[0]} with {own[1]} points cannot be read "
                f"on the grid +-{geometry.half_width} with {geometry.n_points} points"
            )
        self.problem = problem
        self.geometry = geometry
        self.policy = policy
        self.n_gains = G = len(problem.channel.gains)
        self.n_inner = sum(G**k for k in range(depth))
        n_nodes = self.n_inner + G**depth
        # the array first: numpy refuses one too large at once, and the node
        # list below would take minutes to grow to that size
        try:
            self._weights = np.empty((n_nodes, geometry.n_points))
        except (MemoryError, ValueError) as err:
            raise MemoryError(
                f"the failure-history tree of depth {depth} has {n_nodes} nodes of "
                f"{geometry.n_points} points ({8 * n_nodes * geometry.n_points} bytes), "
                "more than this process can allocate; lower the depth"
            ) from err
        self.nodes: list[NodeKey] = [()]
        for c in range(n_nodes - 1):
            self.nodes.append(self.nodes[c // G] + (c % G,))
        self.node_index = {node: i for i, node in enumerate(self.nodes)}
        ids = np.arange(n_nodes)[:, None]
        self.child = np.where(ids < self.n_inner, G * ids + 1 + np.arange(G), ids)
        self.root = gaussian_grid(0.0, problem.process.noise_var, geometry)
        self._full_power = max_power_action(problem.actions).as_action(
            geometry, problem.actions
        )
        self._expanded: dict[ThresholdAction | int, ActionFunction] = {}
        self._weights[0] = self.root.weights
        self._filled = 1
        self._errors: dict[int, ValueError] = {}

    def action(self, node: NodeKey, g: int) -> ActionFunction:
        return self.action_at(self.node_index[node], g)

    def belief(self, node: NodeKey) -> BeliefGrid:
        return self.belief_at(self.node_index[node])

    def action_at(self, i: int, g: int) -> ActionFunction:
        if i >= self.n_inner:
            return self._full_power
        rule = self.policy.rule_for(self.nodes[i], g)
        key = rule if isinstance(rule, ThresholdAction) else id(rule)
        got = self._expanded.get(key)
        if got is None:
            got = self._expanded[key] = self.policy.action_of(self.nodes[i], g)
        return got

    def belief_at(self, i: int) -> BeliefGrid:
        while self._filled <= i:
            self._fill_next_level()
        if i in self._errors:
            raise self._errors[i]
        return BeliefGrid._view(self.geometry, self._weights[i])

    def _fill_next_level(self) -> None:
        G, gains = self.n_gains, self.problem.channel.gains
        n = self._filled
        # nodes n .. G * n are the children of nodes (n - 1) // G .. n - 1, in
        # order; rules and their success vectors are made here, so the steps
        # only read
        vectors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        succ, fail = [], []
        for c in range(n, G * n + 1):
            parent, g = divmod(c - 1, G)
            action = self.action_at(parent, g)
            # an id() names one action only while it lives; _expanded keeps each alive
            key = (id(action), g)
            if key not in vectors:
                vectors[key] = _rule_vectors(action, self.problem.reception, gains[g])
            succ.append(vectors[key][0])
            fail.append(vectors[key][1])
        blocks = SimpleQueue()
        for lo in range(0, len(succ), _BLOCK_ROWS):
            blocks.put((n + lo, succ[lo : lo + _BLOCK_ROWS], fail[lo : lo + _BLOCK_ROWS]))
        if len(succ) > _BLOCK_ROWS and _cpu_count() > 1:
            other = _step_worker().submit(self._step_blocks, blocks)
            self._step_blocks(blocks)
            other.result()
        else:
            self._step_blocks(blocks)
        # a failed node's row is finite, so its children were stepped with the rest
        for c in range(n, G * n + 1):
            err = self._errors.get((c - 1) // G)
            if err is not None:
                self._errors[c] = err
        self._filled = G * n + 1

    def _step_blocks(self, blocks: SimpleQueue) -> None:
        """Step the level's blocks off the queue until it is empty, each
        block's rows straight into the tree's array.  A thread takes the next
        block when it is done with one, so a thread that gets less of a CPU
        steps fewer blocks."""
        while True:
            try:
                lo, succ, fail = blocks.get_nowait()
            except Empty:
                return
            hi = lo + len(succ)
            errors = _step_rows(
                self.geometry, self.problem.process,
                self._weights[(np.arange(lo, hi) - 1) // self.n_gains], succ, fail,
                self._weights[lo:hi],
            )
            self._errors.update({lo + r: err for r, err in enumerate(errors) if err is not None})


def build_chain(
    problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy, depth: int
) -> UnfoldedChain:
    """Unfold the belief recursion under a fixed policy up to `depth` failures.

    The full history tree is materialized (every gain sequence of length up to
    depth) so state indices are stable across policies; rules and beliefs are
    read from the policy's failure-history tree.  Edges whose failure
    probability is below DEGENERATE_SUCCESS_TOL are treated as certain
    successes: the sliver of failure mass moves to the success edge, and the
    orphaned subtree, whose beliefs the tree refuses with
    DegenerateSuccessError, is marked virtual.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rep = validate_stability(
        problem.process, problem.channel, problem.reception, problem.actions
    )
    if not rep.ok:
        warnings.warn("; ".join(rep.messages), stacklevel=2)

    channel = problem.channel
    G = len(channel.gains)
    pi = np.asarray(channel.transition)

    tree = _HistoryTree(problem, geometry, policy, depth)
    nodes, child = tree.nodes, tree.child
    n_nodes = len(nodes)
    beliefs: list[BeliefGrid] = [tree.root] * n_nodes
    virtual = np.zeros(n_nodes, dtype=bool)
    tail = np.arange(n_nodes) >= tree.n_inner
    S = n_nodes * G
    actions = [tree.action_at(i, g) for i in range(n_nodes) for g in range(G)]
    phi = np.empty(S)
    power = np.empty(S)
    distortion = np.empty(S)

    for i in range(n_nodes):
        try:
            beliefs[i] = tree.belief_at(i)
        except DegenerateSuccessError:
            virtual[i] = True
        except SupportOverflowError as err:
            raise SupportOverflowError(
                f"belief after failure history {nodes[i]} overflowed: {err}"
            ) from err
        masses = beliefs[i].cell_masses()
        for g, gain in enumerate(channel.gains):
            s = i * G + g
            q = _level_success(actions[s], problem.reception, gain)
            phi[s], power[s], distortion[s] = _node_rule_terms(
                masses, beliefs[i].nodes, actions[s].values, q
            )

    # per state: the success edges to the root, then the failure edges to the
    # child, one per gain transition of positive probability
    phi_eff = np.where(1.0 - phi < DEGENERATE_SUCCESS_TOL, 1.0, phi)
    branch = pi[np.arange(S) % G]
    split = np.stack((phi_eff, 1.0 - phi_eff), axis=1)
    base = np.stack((np.zeros(S, dtype=int), child.ravel() * G), axis=1)
    s_idx, edge, h = np.nonzero((split > 0)[:, :, None] & (branch > 0)[:, None, :])
    P = sp.coo_matrix(
        (split[s_idx, edge] * branch[s_idx, h], (s_idx, base[s_idx, edge] + h)), shape=(S, S)
    ).tocsr()

    return UnfoldedChain(
        problem=problem,
        geometry=geometry,
        depth=depth,
        nodes=nodes,
        node_index=tree.node_index,
        child=child,
        beliefs=beliefs,
        actions=actions,
        phi=phi,
        power=power,
        distortion=distortion,
        P=P,
        tail_mask=tail,
        virtual_mask=virtual,
    )


def _node_rule_terms(
    masses: np.ndarray, nodes: np.ndarray, u: np.ndarray, q: np.ndarray
) -> tuple[float, float, float]:
    """success_prob, expected_power and stage_cost at alpha = 0 of the node
    rule with levels u and success probabilities q, from the cell masses."""
    phi = min(max(float(masses @ q), 0.0), 1.0)
    return phi, float(masses @ u), _node_distortion(masses, q, nodes)


def _reachable_states(P: sp.csr_matrix, seeds: list[int]) -> np.ndarray:
    """States reachable from `seeds` along the stored entries of P (a stored
    zero is an edge too), grown one step at a time by a sparse
    matrix-vector product on P's pattern."""
    pattern_T = sp.csr_matrix((np.ones(P.nnz), P.indices, P.indptr), shape=P.shape).T
    seen = np.zeros(P.shape[0], dtype=bool)
    seen[seeds] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = (pattern_T @ frontier > 0) & ~seen
        seen |= frontier
    return np.flatnonzero(seen)


def _stationary_on(P: sp.csr_matrix, reach: np.ndarray) -> np.ndarray:
    """Stationary distribution of P restricted to a closed reachable set."""
    Pr = P[reach][:, reach].tocsc()
    m = len(reach)
    M = (Pr.T - sp.identity(m, format="csc")).tolil()
    M[m - 1, :] = 1.0
    b = np.zeros(m)
    b[m - 1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        occ = spsolve(M.tocsc(), b)
    if not np.all(np.isfinite(occ)):
        raise ChainStructureError("stationary solve failed; chain is not unichain")
    occ = np.maximum(occ, 0.0)
    total = occ.sum()
    if total <= 0:
        raise ChainStructureError("stationary solve degenerate; chain is not unichain")
    occ = occ / total
    resid = float(np.max(np.abs(Pr.T @ occ - occ)))
    if resid > STATIONARY_RESIDUAL_TOL:
        raise ChainStructureError(
            f"stationary residual {resid:.3e} exceeds {STATIONARY_RESIDUAL_TOL}; "
            "the chain has more than one recurrent class"
        )
    return occ


@dataclass
class EvaluationResult:
    """Average cost and relative values of one policy on its chain."""

    rho: float
    relative_values: np.ndarray
    occupancy: np.ndarray
    tail_occupancy: float
    power_mean: float
    error_mean: float
    success_rate: float
    residual: float


def evaluate_policy(chain: UnfoldedChain, weights: CostWeights) -> EvaluationResult:
    """Solve the average-cost evaluation equations exactly.

    The gain (rho) comes from the Poisson equation pinned at the reference
    state (root node, gain 0) and is cross-checked against the stationary
    occupancy average; disagreement or an unsolvable stationary system raises
    ChainStructureError.
    """
    S = chain.n_states
    stage = chain.stage_vector(weights)
    P = chain.P

    reach = _reachable_states(P, list(range(chain.n_gains)))
    occ = np.zeros(S)
    occ[reach] = _stationary_on(P, reach)
    success_rate = float(occ @ chain.phi)
    if success_rate < 1e-15:
        raise ChainStructureError(
            "policy never succeeds from the reachable states; "
            "the average cost is not defined on this chain"
        )
    rho_occ = float(occ @ stage)

    eye = sp.identity(S, format="coo")
    A = (eye - P).tocoo()
    keep = A.col != chain.ref_state
    rows = np.concatenate([A.row[keep], np.arange(S)])
    cols = np.concatenate([A.col[keep], np.full(S, chain.ref_state)])
    vals = np.concatenate([A.data[keep], np.ones(S)])
    M = sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        y = spsolve(M, stage)
    if not np.all(np.isfinite(y)):
        raise ChainStructureError("relative-value solve failed; chain is not unichain")
    rho = float(y[chain.ref_state])
    V = y.copy()
    V[chain.ref_state] = 0.0
    residual = float(np.max(np.abs(stage + P @ V - V - rho)))

    if abs(rho - rho_occ) > RHO_CROSSCHECK_TOL * (1.0 + abs(rho)):
        raise ChainStructureError(
            f"average cost mismatch: occupancy {rho_occ!r} vs relative-value {rho!r}"
        )
    return EvaluationResult(
        rho=rho,
        relative_values=V,
        occupancy=occ,
        tail_occupancy=float(occ[chain.tail_states()].sum()),
        power_mean=float(occ @ chain.power),
        error_mean=float(occ @ chain.distortion),
        success_rate=success_rate,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# policy improvement


def _success_table(problem: ControlProblem) -> list[np.ndarray]:
    """Success probability at each power level, one row per channel gain."""
    return [
        np.array([reception_prob(problem.reception, u, h) for u in problem.actions.levels])
        for h in problem.channel.gains
    ]


def _mirror(half: np.ndarray) -> np.ndarray:
    return np.concatenate((half[:0:-1], half))


def _improve_state_tabular(
    belief: BeliefGrid, actions: ActionSet, q_levels: np.ndarray,
    alpha: float, cont_gap: float, center: float,
) -> np.ndarray:
    """Coordinate descent on (node levels, error center) without symmetry;
    returns the level index per node."""
    nodes = belief.nodes
    levels = np.asarray(actions.levels)
    outside = np.abs(nodes) > actions.saturation_radius
    choice = None
    for _ in range(CENTER_ITERATIONS):
        cost = (nodes - center) ** 2 + cont_gap
        objective = alpha * levels[:, None] - q_levels[:, None] * cost[None, :]
        choice = np.argmin(objective, axis=0)
        choice[outside] = len(levels) - 1
        new_center = _failure_center(belief, q_levels[choice])
        if abs(new_center - center) < 1e-12:
            break
        center = new_center
    return choice


def _greedy_states(
    chain: UnfoldedChain,
    q_by_gain: list[np.ndarray],
    weights: CostWeights,
    values: np.ndarray,
    discount: float = 1.0,
) -> Iterator[tuple[int, int, float, np.ndarray, float]]:
    """Greedy backup of every non-tail state, in blocks of _BLOCK_ROWS nodes.

    Yields ``(i, g, gap, choice, center)`` per state (node i, gain g): the
    continuation gap, the pointwise greedy level index per radius ring, taken
    for a block's states at one gain at once, and the failure-branch mean of
    the mirrored ring rule.  Rings keep a mirrored pair of nodes on one level,
    so that rule is even; a running maximum forces it monotone over rings (a
    no-op except on floating-point ties).
    """
    G = chain.n_gains
    pi = np.asarray(chain.problem.channel.transition)
    levels = np.asarray(chain.problem.actions.levels)
    radii = _grid_arrays(chain.geometry).nodes[chain.geometry.n_points // 2 :]
    outside = radii > chain.problem.actions.saturation_radius
    V_root = values[0:G]
    inner = np.flatnonzero(~chain.tail_mask)
    for lo in range(0, len(inner), _BLOCK_ROWS):
        idx = inner[lo : lo + _BLOCK_ROWS]
        gaps = np.array([
            [discount * float(pi[g] @ (values[c * G : (c + 1) * G] - V_root))
             for g, c in enumerate(chain.child[i])]
            for i in idx
        ])
        choices = []
        for g in range(G):
            cost = radii**2 + gaps[:, g, None]
            q = q_by_gain[g]
            # a running minimum over the levels; strict < keeps the first, as argmin does
            best = weights.alpha * levels[0] - q[0] * cost
            choice = np.zeros(cost.shape, dtype=np.intp)
            for k in range(1, len(levels)):
                objective = weights.alpha * levels[k] - q[k] * cost
                choice[objective < best] = k
                np.minimum(best, objective, out=best)
            choice[:, outside] = len(levels) - 1
            choices.append(np.maximum.accumulate(choice, axis=1))
        for r, i in enumerate(idx):
            for g in range(G):
                choice = choices[g][r]
                center = _failure_center(chain.beliefs[i], _mirror(q_by_gain[g][choice]))
                yield i, g, gaps[r, g], choice, center


def _grid_scan_state(
    problem: ControlProblem,
    belief: BeliefGrid,
    gain: float,
    cont_gap: float,
    weights: CostWeights,
    candidates: list[tuple[ThresholdAction, ActionFunction]],
) -> ThresholdAction:
    """Exhaustive search over the expanded candidate switch tuples.

    Ties prefer lower expected power, then lexicographically smaller switch
    radii.  Only viable for small level sets and coarse grids.
    """
    masses = belief.cell_masses()
    best = None
    for rule, action in candidates:
        phi, power, distortion = _node_rule_terms(
            masses, belief.nodes, action.values, _level_success(action, problem.reception, gain)
        )
        key = (weights.alpha * power + distortion + (1.0 - phi) * cont_gap, power, rule.thresholds)
        if best is None or key < best[0]:
            best = (key, rule)
    return best[1]


def improve_policy(
    chain: UnfoldedChain,
    weights: CostWeights,
    values: np.ndarray,
    *,
    switch_grid: np.ndarray | None = None,
    beta: float | None = None,
) -> PowerPolicy:
    """One Bellman improvement sweep against fixed continuation values.

    Continuation values are read at the chain's fixed child slots; the beliefs
    those slots will carry under the new policy are recomputed by the next
    build.  `beta` switches the backup to the discounted form; `switch_grid`
    replaces the pointwise argmin with an exhaustive scan over grid-valued
    switch radii, each nondecreasing switch tuple from the grid expanded once.
    """
    problem = chain.problem
    levels = np.asarray(problem.actions.levels)
    q_by_gain = _success_table(problem)
    discount = 1.0 if beta is None else beta
    if switch_grid is not None:
        combos = combinations_with_replacement(np.sort(switch_grid), problem.actions.n_levels - 1)
        rules_on_grid = [ThresholdAction(tuple(float(t) for t in combo)) for combo in combos]
        candidates = [(r, r.as_action(chain.geometry, problem.actions)) for r in rules_on_grid]

    # a ring rule whose failure-branch mean is zero collapses to exact switch
    # radii (each distinct ring choice is fitted once, as greedy rules repeat
    # across states); otherwise the state falls back to tabular refinement
    rules: dict[StateKey, Rule] = {}
    fitted: dict[bytes, ThresholdAction] = {}
    for i, g, gap, choice, center in _greedy_states(chain, q_by_gain, weights, values, discount):
        node, belief = chain.nodes[i], chain.beliefs[i]
        if switch_grid is not None:
            rules[(node, g)] = _grid_scan_state(
                problem, belief, problem.channel.gains[g], gap, weights, candidates
            )
        elif abs(center) <= CENTER_SNAP_TOL:
            key = choice.tobytes()
            if key not in fitted:
                fitted[key] = extract_threshold_action(
                    _mirror(levels[choice]), chain.geometry, problem.actions
                )
            rules[(node, g)] = fitted[key]
        else:
            rules[(node, g)] = levels[_improve_state_tabular(
                belief, problem.actions, q_by_gain[g], weights.alpha, gap, center
            )]
    return PowerPolicy.from_rules(rules, problem.actions, chain.geometry)


def _rules_signature(policy: PowerPolicy) -> tuple:
    """Hashable identity of a policy's rules and default, for revisit detection."""

    def identity(rule: Rule | None):
        if isinstance(rule, ThresholdAction):
            return rule.thresholds
        return None if rule is None else np.asarray(rule, dtype=float).tobytes()

    items = [(key, identity(policy.rules[key])) for key in sorted(policy.rules)]
    return (*items, identity(policy.default))


@dataclass
class SolveResult:
    """Best policy found by alternating chain builds and improvement sweeps
    from the max-power start `solve` shares with `solve_discounted` (_start).

    ``chain`` is the best policy's chain.  When the loop ended on a repeated
    rule set or on ``max_rounds``, it is the chain `solve` still held.  When
    the last round was rejected, `solve` had dropped the best policy's chain
    before building the rejected one, and the first read of ``chain`` builds
    it again with ``build_chain``; the build is deterministic, so the chain
    matches the dropped one bit for bit.
    """

    policy: PowerPolicy
    rho_star: float
    relative_values: np.ndarray
    iterations: int
    residual: float
    rho_history: list[float]
    tail_occupancy: float
    converged: bool
    evaluation: EvaluationResult
    # the best policy's chain, or the call that builds it again
    _chain: UnfoldedChain | Callable[[], UnfoldedChain] = field(repr=False)

    @cached_property
    def chain(self) -> UnfoldedChain:
        got = self._chain
        return got if isinstance(got, UnfoldedChain) else got()


def solve(
    problem: ControlProblem,
    geometry: GridGeometry,
    *,
    depth: int = 8,
    tol_rho: float = 1e-6,
    max_rounds: int = 200,
    threshold_points: int | None = None,
) -> SolveResult:
    """Minimize the long-run average of alpha * power + squared innovation error.

    Starts from the always-transmit baseline and alternates exact policy
    evaluation with greedy improvement, keeping the best policy seen.  The
    loop stops when a round fails to improve the average cost by more than
    tol_rho, or when the improvement returns the incumbent policy unchanged.
    Because each improvement is scored against the incumbent chain's beliefs,
    monotonicity is enforced by acceptance rather than assumed.  One tree is
    held at a time (see ``SolveResult`` for when its ``chain`` is rebuilt).
    Raises ValueError unless `max_rounds` is an integer >= 1.
    """
    grid, policy = _start(problem, geometry, max_rounds, threshold_points)
    best: tuple[PowerPolicy, EvaluationResult] | None = None
    chain: UnfoldedChain | None = None
    history: list[float] = []
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        chain = None  # the last round's tree goes before this round's is built
        chain = _round_chain(problem, geometry, policy, depth, rounds)
        ev = evaluate_policy(chain, problem.cost)
        history.append(ev.rho)
        if best is not None and ev.rho >= best[1].rho - tol_rho:
            converged = True
            chain = None  # the rejected policy's
            break
        best = (policy, ev)
        improved = improve_policy(
            chain, problem.cost, ev.relative_values, switch_grid=grid
        )
        if _rules_signature(improved) == _rules_signature(policy):
            converged = True
            break
        policy = improved

    assert best is not None
    policy, ev = best
    return SolveResult(
        policy=policy,
        rho_star=ev.rho,
        relative_values=ev.relative_values,
        iterations=rounds,
        residual=ev.residual,
        rho_history=history,
        tail_occupancy=ev.tail_occupancy,
        converged=converged,
        evaluation=ev,
        _chain=chain or partial(build_chain, problem, geometry, policy, depth),
    )


def _start(
    problem: ControlProblem, geometry: GridGeometry, max_rounds: int, threshold_points: int | None
) -> tuple[np.ndarray | None, PowerPolicy]:
    """The start `solve` and `solve_discounted` share: the switch grid of
    `threshold_points` radii (None without it) and the max-power policy.
    Raises ValueError unless `max_rounds` is an integer >= 1."""
    if not (_is_int(max_rounds) and max_rounds >= 1):
        raise ValueError(f"max_rounds must be an integer >= 1, got {max_rounds!r}")
    L = problem.actions.saturation_radius
    grid = None if threshold_points is None else threshold_grid(L, threshold_points)
    return grid, PowerPolicy.max_power(problem.actions, geometry)


def _round_chain(
    problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy, depth: int, rounds: int
) -> UnfoldedChain:
    """build_chain of round `rounds`'s policy.  A SupportOverflowError in
    round 1, the max-power start, names that start as its cause and a half
    width that fits its chain.

    Under max power a miss does not condition the belief, so the belief at
    level `depth` is Gaussian with variance W * sum_{j=0..depth} a^(2j).  The
    grid's quadrature lets out about 10% more than the Gaussian tail (at depth
    7 on the tiny config, +-ceil(z*sd) for a tail of SUPPORT_OVERFLOW_TOL
    still overflows), so the width named leaves half of that tolerance out.
    """
    try:
        return build_chain(problem, geometry, policy, depth)
    except SupportOverflowError as err:
        if rounds > 1:
            raise
        from statistics import NormalDist

        a2 = problem.process.a ** 2
        sd = math.sqrt(problem.process.noise_var * sum(a2**j for j in range(depth + 1)))
        z = NormalDist().inv_cdf(1.0 - SUPPORT_OVERFLOW_TOL / 4.0)
        raise SupportOverflowError(
            f"{err}; the cause is the solver's max-power start, under which a miss does not "
            f"condition the belief: the depth-{depth} belief is Gaussian with sd {sd:.4g}, "
            f"and half_width >= {math.ceil(z * sd)} leaves half of the {SUPPORT_OVERFLOW_TOL:g} "
            "tolerance outside the grid"
        ) from err


@dataclass
class DiscountedResult:
    """Fixed point of the discounted analogue of the solve loop."""

    values: np.ndarray
    policy: PowerPolicy
    residual: float
    iterations: int
    converged: bool
    chain: UnfoldedChain

    def min_value(self) -> float:
        virtual = self.chain.virtual_states()
        return float(self.values[~virtual].min())


def discounted_policy_values(
    chain: UnfoldedChain, weights: CostWeights, beta: float
) -> np.ndarray:
    """Exact beta-discounted total cost of the chain's own policy, per state,
    via one sparse linear solve of (I - beta P) V = c."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    stage = chain.stage_vector(weights)
    M = (sp.identity(chain.n_states, format="csc") - beta * chain.P).tocsc()
    return np.asarray(spsolve(M, stage))


def solve_discounted(
    problem: ControlProblem,
    geometry: GridGeometry,
    beta: float,
    *,
    depth: int = 8,
    max_rounds: int = 200,
    threshold_points: int | None = None,
) -> DiscountedResult:
    """Policy iteration for the beta-discounted total cost from time zero,
    from the max-power start and round build of `solve` (_start, _round_chain).

    Each round solves (I - beta P) V = c exactly, so on convergence the
    discounted Bellman residual is at the linear solver's precision rather
    than a value-iteration tolerance.  Because every round also rebuilds the
    chain's beliefs under the incumbent rules, strict improvement is not
    guaranteed and the alternation can enter a short limit cycle instead of a
    fixed point; revisiting any earlier rule set therefore also counts as
    converged (the recurring policy is returned with its own exact values).
    When ``max_rounds`` runs out first, the last policy evaluated is returned
    with its own values and chain.  One tree is held at a time: each round's
    chain is dropped before the next round builds its own.  Raises
    ValueError unless `max_rounds` is an integer >= 1.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    grid, candidate = _start(problem, geometry, max_rounds, threshold_points)
    chain: UnfoldedChain | None = None
    values = np.zeros(0)
    converged = False
    rounds = 0
    seen: set[tuple] = set()
    for rounds in range(1, max_rounds + 1):
        # the last round's tree goes before this round's is built
        policy, chain = candidate, None
        chain = _round_chain(problem, geometry, policy, depth, rounds)
        values = discounted_policy_values(chain, problem.cost, beta)
        signature = _rules_signature(policy)
        if signature in seen:
            converged = True
            break
        seen.add(signature)
        candidate = improve_policy(
            chain, problem.cost, values, switch_grid=grid, beta=beta
        )
        if _rules_signature(candidate) == signature:
            converged = True
            break

    assert chain is not None
    stage = chain.stage_vector(problem.cost)
    residual = float(np.max(np.abs(stage + beta * (chain.P @ values) - values)))
    return DiscountedResult(
        values=values,
        policy=policy,
        residual=residual,
        iterations=rounds,
        converged=converged,
        chain=chain,
    )


def state_action_value(
    chain: UnfoldedChain,
    state: int,
    action: ActionFunction,
    weights: CostWeights,
    values: np.ndarray,
) -> float:
    """Bellman backup of one candidate action at one chain state (gain-mixing
    constant included, so values are comparable across actions only)."""
    problem = chain.problem
    i, g = divmod(state, chain.n_gains)
    pi = np.asarray(problem.channel.transition)[g]
    gain = problem.channel.gains[g]
    belief = chain.beliefs[i]
    phi = success_prob(belief, gain, action, problem.reception)
    c = chain.child[i, g]
    v_child = values[c * chain.n_gains : (c + 1) * chain.n_gains]
    v_root = values[0 : chain.n_gains]
    cont = float(pi @ (phi * v_root + (1.0 - phi) * v_child))
    return stage_cost(belief, gain, action, problem.reception, weights) + cont


def structure_witness(
    chain: UnfoldedChain, weights: CostWeights, values: np.ndarray
) -> float:
    """Largest amount by which an unrestricted tabular backup beats the best
    symmetric threshold rule, over all non-tail states.  Near zero means the
    threshold class is (numerically) optimal at these continuation values."""
    problem = chain.problem
    G = chain.n_gains
    pi = np.asarray(problem.channel.transition)
    levels = np.asarray(problem.actions.levels)
    q_by_gain = _success_table(problem)
    V_root = values[0:G]

    def backup(i: int, g: int, masses: np.ndarray, choice: np.ndarray) -> float:
        """state_action_value of the node rule with level indices `choice`."""
        q = q_by_gain[g][choice]
        phi, power, distortion = _node_rule_terms(masses, chain.beliefs[i].nodes, levels[choice], q)
        c = chain.child[i, g]
        cont = float(pi[g] @ (phi * V_root + (1.0 - phi) * values[c * G : (c + 1) * G]))
        return weights.alpha * power + distortion + cont

    worst = 0.0
    for i, g, gap, choice, center in _greedy_states(chain, q_by_gain, weights, values):
        belief = chain.beliefs[i]
        masses = belief.cell_masses()
        tabular = _improve_state_tabular(
            belief, problem.actions, q_by_gain[g], weights.alpha, gap, center
        )
        worst = max(worst, backup(i, g, masses, _mirror(choice)) - backup(i, g, masses, tabular))
    return worst


def _rule_draws(problem: ControlProblem, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """A probe's draws after its relation pair: sorted uniform switch radii
    inside the saturation radius, then a channel gain."""
    L = problem.actions.saturation_radius
    radii = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=problem.actions.n_levels - 1))
    return radii, float(rng.choice(problem.channel.gains))


def _skip_probes(
    problem: ControlProblem, geometry: GridGeometry, rng: np.random.Generator,
    max_radius: float, count: int,
) -> None:
    """Move `rng` past the draws of `count` probes, as _scored leaves it,
    with no belief work."""
    for _ in range(count):
        _relation_pair_draws(geometry, rng, max_radius)
        _rule_draws(problem, rng)


def _cost_margin(problem: ControlProblem, theta, theta_hat, action, twin, gain) -> float:
    """Stage cost of a probe's rule on theta minus its twin's on theta_hat."""
    return (stage_cost(theta, gain, action, problem.reception, problem.cost)
            - stage_cost(theta_hat, gain, twin, problem.reception, problem.cost))


def _order_verdict(problem: ControlProblem, theta, theta_hat, action, twin, gain) -> bool | None:
    """Whether relation_R still holds between theta and theta_hat after a
    failed transmission under the probe's rule and its twin; None when the
    step of theta (taken first) or of theta_hat is degenerate."""
    try:
        theta_next = propagate(theta, gain, action, 0, problem.process, problem.reception)
        twin_next = propagate(theta_hat, gain, twin, 0, problem.process, problem.reception)
    except DegenerateSuccessError:
        return None
    return relation_R(theta_next, twin_next, problem.actions.saturation_radius,
                      majorization_slack=1e-6, tail_tol=1e-7)


def _scored(
    score: Callable, problem: ControlProblem, geometry: GridGeometry,
    rng: np.random.Generator, max_radius: float, count: int,
) -> list:
    """`score` of each of `count` probes, drawn from `rng` one at a time and
    scored in order; the first probe that fails raises its error.

    A probe is a relation pair (theta, its rearrangement theta_hat)
    differing inside `max_radius`, a threshold rule with sorted uniform
    switch radii, its rearranged twin, and a channel gain; the draws go
    pair, radii, gain.
    """
    scores = []
    for _ in range(count):
        theta, theta_hat = random_relation_pair(geometry, rng, max_radius=max_radius)
        radii, gain = _rule_draws(problem, rng)
        action = ThresholdAction(tuple(float(r) for r in radii)).as_action(
            geometry, problem.actions
        )
        twin = rearranged_action(action, theta, theta_hat)
        scores.append(score(problem, theta, theta_hat, action, twin, gain))
    return scores


@contextlib.contextmanager
def _probe_passes(
    chain: UnfoldedChain, rng: np.random.Generator, passes: list[tuple[Callable, float]],
    count: int,
) -> Iterator[Iterator[list]]:
    """Probe passes of `count` probes each, drawn from `rng` one pass after
    another; a pass is (score, max_radius), with max_radius inside the grid,
    so no draw fails.  Yields an iterator of each pass's scores, in pass
    order.

    The passes are scored in this process as the iterator reaches them, or,
    when the process may use more than one CPU and `count` is at least
    _POOL_MIN_PROBES, by a pool of forked workers, one per CPU.  Then every
    pass is cut into contiguous chunks of probes, _CHUNKS_PER_WORKER per
    worker, and every chunk is handed to the pool on entry, so the workers
    score the probes while the caller does other work.  The caller still
    draws every probe in order: it hands each chunk a copy of `rng` at the
    chunk's start and moves `rng` past the chunk's draws, so every probe and
    the final state of `rng` are those of the serial loop.  Scores are read
    in probe order, so the first probe that fails raises its error.  The
    pool is shut down, with the chunks not yet started dropped, on exit.
    Each pass logs its probe count, worker count and the seconds from its
    start (a pooled pass starts with the pool) to its last score.
    """
    problem, geometry = chain.problem, chain.geometry
    workers = _cpu_count()
    pool = _fork_pool(workers) if workers > 1 and count >= _POOL_MIN_PROBES else None
    start = time.perf_counter()

    def scored(chunks: list[list] | None) -> Iterator[list]:
        for p, (score, max_radius) in enumerate(passes):
            if chunks is None:
                begun = time.perf_counter()
                scores = _scored(score, problem, geometry, rng, max_radius, count)
            else:
                begun = start
                scores = [s for chunk in chunks[p] for s in chunk.result()]
            logger.info("%s: %d probes on %d worker process(es) in %.3f s", score.__name__,
                        count, 1 if chunks is None else workers, time.perf_counter() - begun)
            yield scores

    if pool is None:
        yield scored(None)
        return
    n_chunks = min(count, workers * _CHUNKS_PER_WORKER)
    cuts = [count * k // n_chunks for k in range(n_chunks + 1)]
    try:
        chunks: list[list] = [[] for _ in passes]
        for (score, max_radius), futures in zip(passes, chunks):
            for lo, hi in zip(cuts, cuts[1:]):
                # a copy: the pool pickles the job later, on its own thread
                futures.append(pool.submit(
                    _scored, score, problem, geometry, copy.deepcopy(rng), max_radius, hi - lo
                ))
                _skip_probes(problem, geometry, rng, max_radius, hi - lo)
        yield scored(chunks)
    finally:
        pool.shutdown(cancel_futures=True)


def _cost_margins(chain: UnfoldedChain, rng: np.random.Generator, count: int) -> list[float]:
    """_cost_margin of each of `count` probes differing inside the
    saturation radius."""
    L = chain.problem.actions.saturation_radius
    with _probe_passes(chain, rng, [(_cost_margin, L)], count) as scores:
        return next(scores)


def _order_verdicts(
    chain: UnfoldedChain, rng: np.random.Generator, max_radius: float, count: int
) -> list[bool | None]:
    """_order_verdict of each of `count` probes differing inside `max_radius`."""
    with _probe_passes(chain, rng, [(_order_verdict, max_radius)], count) as scores:
        return next(scores)


def verify_structure(
    chain: UnfoldedChain, evaluation: EvaluationResult, *, samples: int, seed: int | None
) -> list[tuple[str, bool, str]]:
    """The structural checks on a policy's chain, as (name, ok, detail) rows.

    Rule shape on every non-tail, non-virtual state; the structure witness at
    the evaluation's relative values; and `samples` randomized probes, drawn
    from one generator seeded with `seed`, of the rearrangement's cost order
    and of the belief order across a failed transmission.  Raises ValueError
    unless `samples` is an integer >= 1 and `seed` is None or an integer
    >= 0 (a bool is neither), and, after the cost probes, when the order
    probes' radius is not inside the grid.
    """
    if not (_is_int(samples) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not (seed is None or (_is_int(seed) and seed >= 0)):
        raise ValueError(f"seed must be None or an integer >= 0, got {seed!r}")
    problem = chain.problem
    L = problem.actions.saturation_radius
    # Differences between the pair must stay clear of the saturation boundary:
    # the plant stretch plus the noise kernel leaks interior differences past L,
    # so the tail-equality clause survives one update only for pairs differing
    # inside (L - 6*sigma_w)/a.  A radius past the grid is refused after the
    # cost probes, and no order probe is drawn.
    order_radius = (L - 6.0 * problem.process.noise_var**0.5) / abs(problem.process.a)
    half_width = chain.geometry.half_width
    passes = [(_cost_margin, L)]
    if order_radius >= 10.0 * chain.geometry.spacing:
        passes.append((_order_verdict, order_radius))
    probed = passes if order_radius < half_width else passes[:1]
    rng = np.random.default_rng(seed)
    # a pool scores the probes while this process checks the rules
    with _probe_passes(chain, rng, probed, samples) as scores:
        inner = np.flatnonzero(~np.repeat(chain.tail_mask | chain.virtual_mask, chain.n_gains))
        reports = [check_symmetric_monotone(chain.actions[s]) for s in inner]
        bad = [r for r in reports if not r]
        rows = [(
            "actions symmetric and outward monotone",
            not bad,
            f"{len(bad)} violations: {bad[0].reason}" if bad else f"{len(inner)} states",
        )]

        gap = structure_witness(chain, problem.cost, evaluation.relative_values)
        rows.append((
            "threshold class optimal in one-step backup",
            gap <= STRUCTURE_GAP_TOL,
            f"max tabular advantage {gap:.3e} (tol {STRUCTURE_GAP_TOL:g})",
        ))

        worst = min(next(scores))
        rows.append((
            "rearranged rule never costs more",
            worst >= -COST_ORDER_TOL,
            f"{samples} probes, worst margin {worst:.3e}",
        ))
        if len(probed) < len(passes):
            raise ValueError(f"the order probes' radius (L - 6 sigma_w) / |a| = {order_radius:g} "
                             f"is not inside the grid's half width {half_width:g}")
        verdicts = next(scores, None)

    name = "belief order survives a failed transmission"
    if verdicts is None:
        rows.append(
            (name, True, "skipped: saturation radius too tight for a leak-free probe region")
        )
    else:
        checked = sum(v is not None for v in verdicts)
        rows.append((name, False not in verdicts, f"{checked} probes"))
    return rows
