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
calling thread.  Each distinct threshold rule is expanded once per tree,
and rules and their success vectors are made on the calling thread before
any block is stepped.  Policy improvement and the structure witness read one
greedy pass, which takes the ring minimum of ``_BLOCK_ROWS`` states at one
gain at once.

``verify_structure``'s randomized probes run one at a time through the
public functions: each draws a relation pair with ``random_relation_pair``,
a threshold rule and a gain, and rewrites the rule with
``rearranged_action``.  A cost probe is two ``stage_cost`` calls; an order
probe is two ``propagate`` calls and one ``relation_R`` call.  The first
probe that fails raises its error.

Depth capping makes the tail nodes approximate: their beliefs are frozen and
they transmit at full power, so a failure at the cap self-loops.  The solver
reports tail occupancy so callers can confirm the cap does not matter.
"""

from __future__ import annotations

import math
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
from .rearrange import random_relation_pair, rearranged_action, relation_R

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
    the tree owns, handed out as views.  A level's nodes are one run of rows,
    stepped from their parents' rows in blocks of ``_BLOCK_ROWS`` rows by the
    calling thread and, when the process may use two CPUs and the level has
    more than one block, by the step worker too.  A child whose step fails
    stores its error, which is raised again for that node and for every node
    below it; its siblings go on.  A failed node's children are stepped with
    the rest and then take its error.  The policy must be built on the
    tree's grid.
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
        # nodes n .. G * n are the children of nodes (n - 1) // G .. n - 1, in
        # order; rules and their success vectors are made here, so the steps
        # only read
        vectors: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        succ, fail = [], []
        for c in range(n, G * n + 1):
            parent, g = divmod(c - 1, G)
            action = self.action_at(parent, g)
            # an id() names one action only while it lives; _actions keeps each alive
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
    masses = belief.cell_masses()
    best = None
    for combo in combinations_with_replacement(np.sort(grid), n_switch):
        rule = ThresholdAction(tuple(float(t) for t in combo))
        action = rule.as_action(chain.geometry, problem.actions)
        phi, power, distortion = _node_rule_terms(
            masses, belief.nodes, action.values, _level_success(action, problem.reception, gain)
        )
        key = (weights.alpha * power + distortion + (1.0 - phi) * cont_gap, power, combo)
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
        try:
            chain = build_chain(problem, geometry, policy, depth)
        except SupportOverflowError as err:
            if rounds > 1:
                raise
            raise _start_overflow(problem, depth, err) from err
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


def _start_overflow(
    problem: ControlProblem, depth: int, err: SupportOverflowError
) -> SupportOverflowError:
    """`err`, raised by the chain of the max-power start that `solve` and
    `solve_discounted` share, with its cause and a half width that fits that
    chain.

    Under max power a miss does not condition the belief, so the belief at
    level `depth` is Gaussian with variance W * sum_{j=0..depth} a^(2j).  The
    grid's quadrature lets out about 10% more than the Gaussian tail (at depth
    7 on the tiny config, +-ceil(z*sd) for a tail of SUPPORT_OVERFLOW_TOL
    still overflows), so the width named leaves half of that tolerance out.
    """
    from statistics import NormalDist

    a2 = problem.process.a ** 2
    sd = math.sqrt(problem.process.noise_var * sum(a2**j for j in range(depth + 1)))
    z = NormalDist().inv_cdf(1.0 - SUPPORT_OVERFLOW_TOL / 4.0)
    return SupportOverflowError(
        f"{err}; the cause is the solver's max-power start, under which a miss does not "
        f"condition the belief: the depth-{depth} belief is Gaussian with sd {sd:.4g}, "
        f"and half_width >= {math.ceil(z * sd)} leaves half of the {SUPPORT_OVERFLOW_TOL:g} "
        "tolerance outside the grid"
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
        try:
            chain = build_chain(problem, geometry, policy, depth)
        except SupportOverflowError as err:
            if rounds > 1:
                raise
            raise _start_overflow(problem, depth, err) from err
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


def _probes(
    chain: UnfoldedChain, rng: np.random.Generator, max_radius: float, count: int
) -> Iterator[tuple[BeliefGrid, BeliefGrid, ActionFunction, ActionFunction, float]]:
    """`count` randomized structure probes, drawn one at a time from `rng`.

    Each is a relation pair (theta, its rearrangement theta_hat) differing
    inside `max_radius`, a threshold rule with sorted uniform switch radii, its
    rearranged twin, and a channel gain; the draws go pair, radii, gain.
    """
    problem, geometry = chain.problem, chain.geometry
    L = problem.actions.saturation_radius
    for _ in range(count):
        theta, theta_hat = random_relation_pair(geometry, rng, max_radius=max_radius)
        radii = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=problem.actions.n_levels - 1))
        action = ThresholdAction(tuple(float(r) for r in radii)).as_action(
            geometry, problem.actions
        )
        gain = float(rng.choice(problem.channel.gains))
        yield theta, theta_hat, action, rearranged_action(action, theta, theta_hat), gain


def _cost_margins(chain: UnfoldedChain, rng: np.random.Generator, count: int) -> list[float]:
    """Stage cost of each probe's rule on theta minus its twin's on
    theta_hat, for `count` probes differing inside the saturation radius."""
    problem = chain.problem
    L = problem.actions.saturation_radius
    return [
        stage_cost(theta, gain, action, problem.reception, problem.cost)
        - stage_cost(theta_hat, gain, twin, problem.reception, problem.cost)
        for theta, theta_hat, action, twin, gain in _probes(chain, rng, L, count)
    ]


def _order_verdicts(
    chain: UnfoldedChain, rng: np.random.Generator, max_radius: float, count: int
) -> list[bool | None]:
    """Whether relation_R still holds between each probe's theta and
    theta_hat after a failed transmission under its rule and its twin, for
    `count` probes differing inside `max_radius`; None for a probe whose
    step of theta (taken first) or of theta_hat is degenerate."""
    problem = chain.problem
    L = problem.actions.saturation_radius
    verdicts: list[bool | None] = []
    for theta, theta_hat, action, twin, gain in _probes(chain, rng, max_radius, count):
        try:
            theta_next = propagate(theta, gain, action, 0, problem.process, problem.reception)
            twin_next = propagate(theta_hat, gain, twin, 0, problem.process, problem.reception)
        except DegenerateSuccessError:
            verdicts.append(None)
            continue
        verdicts.append(
            relation_R(theta_next, twin_next, L, majorization_slack=1e-6, tail_tol=1e-7)
        )
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
