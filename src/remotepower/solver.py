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
(nodes, points) array.  A level goes through the batched belief step in
blocks of ``belief._BLOCK_ROWS`` rows; when the process may use two CPUs,
the calling thread and a worker thread, kept for the life of the process,
each take the next half-block whenever they finish one, so as many rows are
in flight as in one serial block, and write its rows straight into the
tree's array.  Each distinct threshold rule is expanded once per tree, and
rules and their success vectors are made on the calling thread before any
block is stepped.  Policy improvement and the structure witness read one
greedy pass, which takes the ring minimum of ``_BLOCK_ROWS`` states at one
gain at once.

``verify_structure``'s randomized probes run in chunks of ``_PROBE_CHUNK``.
A chunk's random numbers are drawn one probe at a time, in the order a lone
probe draws them; its relation pairs, rearrangements, rearranged switch
radii and relation_R checks are computed on (probes, points) rows, and its
belief steps go through the same block dispatch as a tree level, stepped in
place.  Every margin and verdict has the bits of the probe run alone, and
the first probe that fails raises its error.

Depth capping makes the tail nodes approximate: their beliefs are frozen and
they transmit at full power, so a failure at the cap self-loops.  The solver
reports tail occupancy so callers can confirm the cap does not matter.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement
from queue import Empty, SimpleQueue

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .belief import (
    DEGENERATE_SUCCESS_TOL,
    _BLOCK_ROWS,
    ActionFunction,
    BeliefGrid,
    DegenerateSuccessError,
    GridGeometry,
    SupportOverflowError,
    _failure_center,
    _grid_arrays,
    _level_success,
    _node_distortion,
    _rule_vectors,
    _step_rows,
    banded_action,
    expected_power,
    gaussian_grid,
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
    UNIMODAL_WIGGLE_TOL,
    _draw_relation_pair,
    _pair_cells,
    _rearranged_radii,
    _relation_pair_rows,
    _relation_R_rows,
)

STATIONARY_RESIDUAL_TOL = 1e-10
RHO_CROSSCHECK_TOL = 1e-8
CENTER_SNAP_TOL = 1e-9
CENTER_ITERATIONS = 5
STRUCTURE_GAP_TOL = 1e-5
COST_ORDER_TOL = 1e-6


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

    root_index = 0
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
    is the policy's rule, or full power at the cap; each distinct threshold
    rule is expanded once and shared.  Asking for a belief fills every level
    down to the node's; beliefs are the rows of one (nodes, points) array
    the tree owns, handed out as views.  A level goes through the belief step
    in blocks of ``_BLOCK_ROWS`` rows, or in half-blocks on the calling
    thread and a second one when the process may use two CPUs and the level
    has two half-blocks or more.  A child whose step fails stores its error,
    which is raised again for that node and for every node below it; its
    siblings go on.
    """

    def __init__(
        self, problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy, depth: int
    ):
        self.problem = problem
        self.geometry = geometry
        self.policy = policy
        self.n_gains = G = len(problem.channel.gains)
        self.n_inner = sum(G**k for k in range(depth))
        n_nodes = self.n_inner + G**depth
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
        self._expanded: dict[ThresholdAction, ActionFunction] = {}
        self._actions: dict[tuple[int, int], ActionFunction] = {}
        self._weights = np.empty((n_nodes, geometry.n_points))
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
        got = self._actions.get((i, g))
        if got is None:
            rule = self.policy.rule_for(self.nodes[i], g)
            if isinstance(rule, ThresholdAction):
                got = self._expanded.get(rule)
                if got is None:
                    got = self._expanded[rule] = rule.as_action(
                        self.policy.geometry, self.policy.action_set
                    )
            else:
                got = self.policy.action_of(self.nodes[i], g)
            self._actions[(i, g)] = got
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
        # nodes n .. G * n are the children of nodes (n - 1) // G .. n - 1, in order
        live = []
        for c in range(n, G * n + 1):
            err = self._errors.get((c - 1) // G)
            if err is None:
                live.append(c)
            else:
                self._errors[c] = err
        # rules and their success vectors are made here, so the workers only read
        vectors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        succ, fail = [], []
        for c in live:
            parent, g = divmod(c - 1, G)
            action = self.action_at(parent, g)
            key = (id(action), g)
            if key not in vectors:
                vectors[key] = _rule_vectors(action, self.problem.reception, gains[g])
            succ.append(vectors[key][0])
            fail.append(vectors[key][1])
        children = np.array(live, dtype=np.intp)
        steps = _RowSteps(
            self.geometry, self.problem.process, self._weights, (children - 1) // G,
            succ, fail, children,
        )
        errors = _step_in_blocks(steps, self._step_blocks)
        self._errors.update((int(c), err) for c, err in zip(children, errors) if err is not None)
        self._filled = G * n + 1

    def _step_blocks(self, blocks: SimpleQueue) -> None:
        """Step the level's blocks off the queue until it is empty."""
        _step_queued(blocks)


class _RowSteps:
    """Belief steps of many rows of one array: row parents[k] of `weights`
    under succ[k] and fail[k], written to row targets[k], with k's error or
    None in errors[k].  `targets` is increasing, and no target is the parent
    of another row (a row may be stepped in place)."""

    def __init__(
        self,
        geometry: GridGeometry,
        process,
        weights: np.ndarray,
        parents: np.ndarray,
        succ: list[np.ndarray],
        fail: list[np.ndarray],
        targets: np.ndarray,
    ):
        self.geometry, self.process, self.weights = geometry, process, weights
        self.parents, self.succ, self.fail, self.targets = parents, succ, fail, targets
        self.errors: list[ValueError | None] = [None] * len(targets)

    def step(self, block: slice) -> None:
        """Step the rows of one block; a block whose targets are one run of
        rows is written in place."""
        rows = self.targets[block]
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        contiguous = hi - lo == len(rows)
        out = self.weights[lo:hi] if contiguous else np.empty((len(rows), self.weights.shape[1]))
        self.errors[block] = _step_rows(
            self.geometry, self.process, self.weights[self.parents[block]],
            self.succ[block], self.fail[block], out,
        )
        if not contiguous:
            self.weights[rows] = out


def _step_queued(blocks: SimpleQueue) -> None:
    """Step (steps, block) pairs off the queue until it is empty."""
    while True:
        try:
            steps, block = blocks.get_nowait()
        except Empty:
            return
        steps.step(block)


def _step_in_blocks(
    steps: _RowSteps, step_blocks=_step_queued, block_rows: int = _BLOCK_ROWS
) -> list[ValueError | None]:
    """Run `steps` in blocks of `block_rows` rows, or in half-blocks on the
    calling thread and the step worker when the process may use two CPUs
    and there are two half-blocks or more; returns each row's error or None.

    `step_blocks` drains the queue of blocks on each thread.  Each thread
    takes the next block when it is done with one, so a thread that gets
    less of a CPU steps fewer blocks.
    """
    count = len(steps.targets)
    pooled = count > block_rows // 2 and _cpu_count() > 1
    size = block_rows // 2 if pooled else block_rows
    blocks = SimpleQueue()
    for lo in range(0, count, size):
        blocks.put((steps, slice(lo, min(lo + size, count))))
    if pooled:
        other = _step_worker().submit(step_blocks, blocks)
        step_blocks(blocks)
        other.result()
    else:
        step_blocks(blocks)
    return steps.errors


def build_chain(
    problem: ControlProblem, geometry: GridGeometry, policy: PowerPolicy, depth: int
) -> UnfoldedChain:
    """Unfold the belief recursion under a fixed policy up to `depth` failures.

    The full history tree is materialized (every gain sequence of length up to
    depth) so state indices are stable across policies; rules and beliefs are
    read from the policy's failure-history tree.  Edges whose failure
    probability is below DEGENERATE_SUCCESS_TOL are treated as certain
    successes: the sliver of failure mass moves to the success edge and the
    orphaned subtree is marked virtual.
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
        if i and not virtual[i]:
            try:
                beliefs[i] = tree.belief_at(i)
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
            if not tail[i] and (virtual[i] or 1.0 - phi[s] < DEGENERATE_SUCCESS_TOL):
                virtual[child[i, g]] = True

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
    chain: UnfoldedChain,
    belief: BeliefGrid,
    gain: float,
    cont_gap: float,
    weights: CostWeights,
    grid: np.ndarray,
) -> ThresholdAction:
    """Exhaustive search over nondecreasing switch tuples from a fixed grid.

    Ties prefer lower expected power, then lexicographically smaller switch
    radii.  Only viable for small level sets and coarse grids.
    """
    problem = chain.problem
    n_switch = problem.actions.n_levels - 1
    best = None
    for combo in combinations_with_replacement(np.sort(grid), n_switch):
        rule = ThresholdAction(tuple(float(t) for t in combo))
        action = rule.as_action(chain.geometry, problem.actions)
        q_val = stage_cost(belief, gain, action, problem.reception, weights)
        phi = success_prob(belief, gain, action, problem.reception)
        q_val += (1.0 - phi) * cont_gap
        key = (q_val, expected_power(belief, action), combo)
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
    switch radii.
    """
    problem = chain.problem
    levels = np.asarray(problem.actions.levels)
    q_by_gain = _success_table(problem)
    discount = 1.0 if beta is None else beta

    # a ring rule whose failure-branch mean is zero collapses to exact switch
    # radii (each distinct ring choice is fitted once, as greedy rules repeat
    # across states); otherwise the state falls back to tabular refinement
    rules: dict[StateKey, Rule] = {}
    fitted: dict[bytes, ThresholdAction] = {}
    for i, g, gap, choice, center in _greedy_states(chain, q_by_gain, weights, values, discount):
        node, belief = chain.nodes[i], chain.beliefs[i]
        if switch_grid is not None:
            rules[(node, g)] = _grid_scan_state(
                chain, belief, problem.channel.gains[g], gap, weights, switch_grid
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
    """Hashable identity of a policy's rule set, for revisit detection."""
    if policy.mode == "baseline":
        return ("baseline", policy.baseline, policy.baseline_param)
    items = []
    for key in sorted(policy.rules):
        rule = policy.rules[key]
        if isinstance(rule, ThresholdAction):
            items.append((key, rule.thresholds))
        else:
            items.append((key, np.asarray(rule, dtype=float).tobytes()))
    return tuple(items)


@dataclass
class SolveResult:
    """Best policy found by alternating chain builds and improvement sweeps."""

    policy: PowerPolicy
    rho_star: float
    relative_values: np.ndarray
    iterations: int
    residual: float
    rho_history: list[float]
    tail_occupancy: float
    converged: bool
    chain: UnfoldedChain
    evaluation: EvaluationResult


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
    monotonicity is enforced by acceptance rather than assumed.
    """
    grid = (
        threshold_grid(problem.actions.saturation_radius, threshold_points)
        if threshold_points is not None
        else None
    )
    policy: PowerPolicy = PowerPolicy.max_power(problem.actions, geometry)
    best: tuple[PowerPolicy, UnfoldedChain, EvaluationResult] | None = None
    history: list[float] = []
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        chain = build_chain(problem, geometry, policy, depth)
        ev = evaluate_policy(chain, problem.cost)
        history.append(ev.rho)
        if best is not None and ev.rho >= best[2].rho - tol_rho:
            converged = True
            break
        best = (policy, chain, ev)
        improved = improve_policy(
            chain, problem.cost, ev.relative_values, switch_grid=grid
        )
        if _rules_signature(improved) == _rules_signature(policy):
            converged = True
            break
        policy = improved

    assert best is not None
    policy, chain, ev = best
    return SolveResult(
        policy=policy,
        rho_star=ev.rho,
        relative_values=ev.relative_values,
        iterations=rounds,
        residual=ev.residual,
        rho_history=history,
        tail_occupancy=ev.tail_occupancy,
        converged=converged,
        chain=chain,
        evaluation=ev,
    )


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
    """Policy iteration for the beta-discounted total cost from time zero.

    Each round solves (I - beta P) V = c exactly, so on convergence the
    discounted Bellman residual is at the linear solver's precision rather
    than a value-iteration tolerance.  Because every round also rebuilds the
    chain's beliefs under the incumbent rules, strict improvement is not
    guaranteed and the alternation can enter a short limit cycle instead of a
    fixed point; revisiting any earlier rule set therefore also counts as
    converged (the recurring policy is returned with its own exact values).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    grid = (
        threshold_grid(problem.actions.saturation_radius, threshold_points)
        if threshold_points is not None
        else None
    )
    policy: PowerPolicy = PowerPolicy.max_power(problem.actions, geometry)
    chain: UnfoldedChain | None = None
    values = np.zeros(0)
    converged = False
    rounds = 0
    seen: set[tuple] = set()
    for rounds in range(1, max_rounds + 1):
        chain = build_chain(problem, geometry, policy, depth)
        values = discounted_policy_values(chain, problem.cost, beta)
        signature = _rules_signature(policy)
        if signature in seen:
            converged = True
            break
        seen.add(signature)
        improved = improve_policy(
            chain, problem.cost, values, switch_grid=grid, beta=beta
        )
        if _rules_signature(improved) == signature:
            converged = True
            break
        policy = improved

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


# Probes per chunk.  Each chunk steps its 8 theta and theta_hat rows in
# half-blocks of 4 on two threads (or one block of 8 on one CPU).  The probe
# loops run while the checked chain is alive, and what they allocate on top
# of it sets verify-structure's peak RSS: on the check-canonical operation
# (2-vCPU Xeon VM, three runs each) that peak read 96.1-96.4 MB one probe at
# a time, 96.2-96.5 MB with chunks of 4, 96.7-96.8 MB with chunks of 8, and
# 99-101 MB with chunks of 16; the time per verify-structure changed by less
# than the runs spread between chunks of 4 and 8.
_PROBE_CHUNK = _BLOCK_ROWS // 4


@dataclass
class _ProbeChunk:
    """Up to ``_PROBE_CHUNK`` structure probes, row r being probe r: a
    relation pair (theta in pair[0], its rearrangement theta_hat in
    pair[1]), a threshold rule with sorted uniform switch radii, the switch
    radii of its rearranged twin, a channel gain, and the error probe r's
    generation stopped at, if any.  A twin is expanded only when it is used,
    one at a time, as its pieces take 0.75 MB on the canonical grid, and a
    rule is let go once used."""

    pair: np.ndarray
    rules: list[ActionFunction | None]
    twin_radii: np.ndarray
    gains: list[float]
    errors: list[ValueError | None]

    @property
    def theta(self) -> np.ndarray:
        return self.pair[0]

    @property
    def theta_hat(self) -> np.ndarray:
        return self.pair[1]

    def twin(self, r: int, actions: ActionSet, geometry: GridGeometry) -> ActionFunction:
        """Probe r's rearranged twin, as ``rearranged_action`` makes it."""
        levels = np.asarray(actions.levels, dtype=float)
        return banded_action(self.twin_radii[r], levels, actions, geometry)


def _probe_chunk(
    chain: UnfoldedChain, rng: np.random.Generator, eligible: np.ndarray, size: int
) -> _ProbeChunk:
    """`size` randomized structure probes whose pairs differ in the cells
    `eligible`.

    The probes are drawn one at a time from `rng`, in the order
    ``random_relation_pair``, ``rearranged_action`` and a lone draw would
    take them: pair, radii, gain.  No draw depends on a computed belief, so
    the numeric work of the whole chunk is then done on its rows at once.
    """
    problem, geometry = chain.problem, chain.geometry
    actions = problem.actions
    L = actions.saturation_radius
    draws, rules, gains = [], [], []
    for _ in range(size):
        draws.append(_draw_relation_pair(geometry, rng, eligible))
        radii = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=actions.n_levels - 1))
        rules.append(ThresholdAction(tuple(float(r) for r in radii)).as_action(geometry, actions))
        gains.append(float(rng.choice(problem.channel.gains)))
    errors: list[ValueError | None] = [None] * size
    pair = _relation_pair_rows(geometry, draws, eligible, errors)
    twin_radii = _rearranged_radii(
        actions, geometry, [rule.values for rule in rules], pair[0], pair[1], errors
    )
    return _ProbeChunk(pair, rules, twin_radii, gains, errors)


def _chunk_sizes(count: int) -> Iterator[int]:
    for lo in range(0, count, _PROBE_CHUNK):
        yield min(_PROBE_CHUNK, count - lo)


def _cost_margins(chain: UnfoldedChain, rng: np.random.Generator, count: int) -> list[float]:
    """Stage cost of each probe's rule on theta minus its twin's on
    theta_hat, for `count` probes differing inside the saturation radius;
    the first probe that fails raises its error."""
    eligible = _pair_cells(chain.geometry, chain.problem.actions.saturation_radius)
    margins: list[float] = []
    for size in _chunk_sizes(count):
        margins += _chunk_margins(chain, _probe_chunk(chain, rng, eligible, size))
    return margins


def _chunk_margins(chain: UnfoldedChain, chunk: _ProbeChunk) -> list[float]:
    problem, geometry = chain.problem, chain.geometry
    margins = []
    for r, err in enumerate(chunk.errors):
        if err is not None:
            raise err
        theta = BeliefGrid._view(geometry, chunk.theta[r])
        theta_hat = BeliefGrid._view(geometry, chunk.theta_hat[r])
        gain = chunk.gains[r]
        cost = stage_cost(theta, gain, chunk.rules[r], problem.reception, problem.cost)
        chunk.rules[r] = None
        margins.append(cost - stage_cost(
            theta_hat, gain, chunk.twin(r, problem.actions, geometry), problem.reception,
            problem.cost,
        ))
    return margins


def _order_verdicts(
    chain: UnfoldedChain, rng: np.random.Generator, max_radius: float, count: int
) -> list[bool | None]:
    """Whether relation_R still holds between each probe's theta and
    theta_hat after a failed transmission under its rule and its twin, for
    `count` probes differing inside `max_radius`; None for a probe whose
    step of theta (looked at first) or of theta_hat is degenerate.  The first
    probe that fails otherwise raises its error."""
    eligible = _pair_cells(chain.geometry, max_radius)
    verdicts: list[bool | None] = []
    for size in _chunk_sizes(count):
        verdicts += _chunk_verdicts(chain, _probe_chunk(chain, rng, eligible, size))
    return verdicts


def _chunk_verdicts(chain: UnfoldedChain, chunk: _ProbeChunk) -> list[bool | None]:
    """The chunk's theta and theta_hat rows go through the belief step
    together, in place, and relation_R is decided on the rows of its stepped
    probes at once."""
    problem, geometry = chain.problem, chain.geometry
    reception = problem.reception
    errors = chunk.errors
    theta_vectors, twin_vectors = {}, {}
    for r, err in enumerate(errors):
        if err is None:
            try:
                twin_vectors[r] = _rule_vectors(
                    chunk.twin(r, problem.actions, geometry), reception, chunk.gains[r]
                )
            except ValueError as exc:
                errors[r] = exc
                continue
            theta_vectors[r] = _rule_vectors(chunk.rules[r], reception, chunk.gains[r])
    # what is no longer needed is let go as soon as it is not, since what the
    # probes allocate sets verify-structure's peak RSS (see _PROBE_CHUNK)
    chunk.rules = []
    made = list(theta_vectors)
    vectors = [theta_vectors[r] for r in made] + [twin_vectors[r] for r in made]
    del theta_vectors, twin_vectors
    rows = np.array(made + [len(errors) + r for r in made], dtype=np.intp)
    stepped = chunk.pair.reshape(-1, geometry.n_points)
    step_errors = _step_in_blocks(_RowSteps(
        geometry, problem.process, stepped, rows,
        [q for q, _ in vectors], [f for _, f in vectors], rows,
    ), block_rows=2 * _PROBE_CHUNK)
    del vectors
    steps = {r: (step_errors[k], step_errors[len(made) + k]) for k, r in enumerate(made)}
    checked = [r for r in made if steps[r] == (None, None)]
    relation_errors: list[ValueError | None] = [None] * len(checked)
    holds = _relation_R_rows(
        geometry, chunk.theta[checked], chunk.theta_hat[checked],
        problem.actions.saturation_radius, relation_errors,
        majorization_slack=1e-6, tail_tol=1e-7, unimodal_tol=UNIMODAL_WIGGLE_TOL,
    )
    verdict = {r: (bool(h), err) for r, h, err in zip(checked, holds, relation_errors)}
    verdicts: list[bool | None] = []
    for r, err in enumerate(errors):
        if err is not None:
            raise err
        step = next((e for e in steps[r] if e is not None), None)
        if isinstance(step, DegenerateSuccessError):
            verdicts.append(None)
            continue
        if step is not None:
            raise step
        ok, err = verdict[r]
        if err is not None:
            raise err
        verdicts.append(ok)
    return verdicts


def verify_structure(
    chain: UnfoldedChain, evaluation: EvaluationResult, *, samples: int, seed: int | None
) -> list[tuple[str, bool, str]]:
    """The structural checks on a policy's chain, as (name, ok, detail) rows.

    Rule shape on every non-tail, non-virtual state; the structure witness at
    the evaluation's relative values; and `samples` randomized probes, drawn
    from one generator seeded with `seed`, of the rearrangement's cost order
    and of the belief order across a failed transmission.  Raises ValueError
    unless `samples` is an integer >= 1 and `seed` is None or an integer
    >= 0 (a bool is neither).
    """
    if not (_is_int(samples) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not (seed is None or (_is_int(seed) and seed >= 0)):
        raise ValueError(f"seed must be None or an integer >= 0, got {seed!r}")
    problem = chain.problem
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

    rng = np.random.default_rng(seed)
    L = problem.actions.saturation_radius
    worst = min(_cost_margins(chain, rng, samples))
    rows.append((
        "rearranged rule never costs more",
        worst >= -COST_ORDER_TOL,
        f"{samples} probes, worst margin {worst:.3e}",
    ))

    # Differences between the pair must stay clear of the saturation boundary:
    # the plant stretch plus the noise kernel leaks interior differences past L,
    # so the tail-equality clause survives one update only for pairs differing
    # inside (L - 6*sigma_w)/a.
    name = "belief order survives a failed transmission"
    order_radius = (L - 6.0 * problem.process.noise_var**0.5) / abs(problem.process.a)
    if order_radius < 10.0 * chain.geometry.spacing:
        rows.append(
            (name, True, "skipped: saturation radius too tight for a leak-free probe region")
        )
        return rows
    verdicts = _order_verdicts(chain, rng, order_radius, samples)
    checked = sum(v is not None for v in verdicts)
    rows.append((name, False not in verdicts, f"{checked} probes"))
    return rows
