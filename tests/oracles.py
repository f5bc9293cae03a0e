"""Independent reference computations the test suite freezes against.

Everything here is implemented from different primitives than the package:
closed-form antiderivatives summed piece by piece in plain Python instead of
the package's precomputed piece arrays, hand-solved stationary distributions
instead of sparse eigenproblems, finite-horizon dynamic programming instead
of policy iteration, and brute-force enumeration instead of greedy
improvement.  Where package and oracle agree, the agreement
is meaningful because they share nothing but the problem definition.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.signal import fftconvolve

from remotepower import (
    ActionFunction,
    BeliefGrid,
    DegenerateSuccessError,
    PowerPolicy,
    SupportOverflowError,
    ThresholdAction,
    build_chain,
    evaluate_policy,
    gaussian_grid,
    post_failure,
    propagate,
    random_relation_pair,
    rearranged_action,
    reception_prob,
    relation_R,
    stage_cost,
    state_action_value,
)
from remotepower.belief import (
    SUPPORT_OVERFLOW_TOL,
    _clipped_totals,
    _condition_rows,
    _grid_arrays,
    _normalize_rows,
)
from remotepower.policy import max_power_action
from remotepower.simulator import STREAM_CHANNEL


def q_of(reception, u: float, gain: float) -> float:
    """Success probability written out from the form definitions."""
    if reception.form == "exponential":
        return 1.0 - math.exp(-u * gain / reception.scale)
    if reception.form == "logistic":
        return 2.0 / (1.0 + math.exp(-u * gain / reception.scale)) - 1.0
    return reception.on_prob if u >= reception.on_level else 0.0


def _pieces(belief, action):
    """Partition the support into (lo, hi, density, level) pieces.

    The density is constant on each grid cell; a banded rule additionally
    splits cells at its switch radii, and the level on each resulting piece
    is read at the piece midpoint so boundary ties never straddle a piece.
    """
    E = belief.half_width
    dx = belief.spacing
    if action.bands is not None:
        radii, blevels = action.bands
        cuts = sorted({float(r) for r in radii if 0.0 < r < E})
        cuts = [-c for c in reversed(cuts)] + cuts
    else:
        radii = blevels = None
        cuts = []
    out = []
    for j, (node, w) in enumerate(zip(belief.nodes, belief.weights)):
        lo = max(node - 0.5 * dx, -E)
        hi = min(node + 0.5 * dx, E)
        edges = [lo] + [c for c in cuts if lo < c < hi] + [hi]
        for a, b in zip(edges, edges[1:]):
            if action.bands is not None:
                mid = 0.5 * (a + b)
                level = float(blevels[int(np.searchsorted(radii, abs(mid), side="right"))])
            else:
                level = float(action.values[j])
            out.append((a, b, float(w), level))
    return out


def success_prob_oracle(belief, gain: float, action, reception) -> float:
    return sum(w * (b - a) * q_of(reception, u, gain) for a, b, w, u in _pieces(belief, action))


def post_failure_oracle(belief, gain: float, action, reception) -> np.ndarray:
    """Node weights of the failure-conditioned belief: every piece keeps its
    failed mass, each cell spreads its pieces' sum evenly back over itself."""
    E = belief.half_width
    dx = belief.spacing
    masses = np.zeros(len(belief.nodes))
    for a, b, w, u in _pieces(belief, action):
        j = int(round((0.5 * (a + b) + E) / dx))
        masses[j] += w * (b - a) * (1.0 - q_of(reception, u, gain))
    widths = np.array([min(x + 0.5 * dx, E) - max(x - 0.5 * dx, -E) for x in belief.nodes])
    return masses / widths / masses.sum()


def stage_cost_oracle(belief, gain: float, action, reception, alpha: float) -> float:
    """Exact piecewise integration of power cost and failure-branch distortion."""
    pieces = _pieces(belief, action)
    power = sum(w * (b - a) * u for a, b, w, u in pieces)
    fail = [(a, b, w * (1.0 - q_of(reception, u, gain))) for a, b, w, u in pieces]
    m0 = sum(fw * (b - a) for a, b, fw in fail)
    if m0 < 1e-12:
        return alpha * power
    m1 = sum(fw * 0.5 * (b * b - a * a) for a, b, fw in fail)
    e_hat = m1 / m0
    dist = sum(fw * ((b - e_hat) ** 3 - (a - e_hat) ** 3) / 3.0 for a, b, fw in fail)
    return alpha * power + dist


def propagate_fftconvolve(belief, gain: float, action, process, reception) -> np.ndarray:
    """Node weights after a failed transmission, with every grid array and the
    noise kernel built afresh and the convolution done by
    scipy.signal.fftconvolve (np.convolve on a "direct" grid): the package's
    propagate before it kept the kernel spectrum and batched its rows.  Mass
    escaping the grid raises SupportOverflowError, as the package does."""
    E = belief.half_width
    dx = belief.spacing
    n = len(belief.weights)
    nodes = np.linspace(-E, E, n)
    cell_w = np.full(n, dx)
    cell_w[0] = cell_w[-1] = 0.5 * dx
    theta_plus = post_failure(belief, gain, action, reception)
    edges = np.concatenate(([-E], nodes[:-1] + 0.5 * dx, [E]))
    cum = np.concatenate(([0.0], np.cumsum(cell_w * theta_plus.weights)))
    cdf = np.interp(edges / abs(process.a), edges, cum, left=0.0, right=float(cum[-1]))
    weighted = np.diff(cdf)
    if process.a < 0:
        weighted = weighted[::-1]
    W = process.noise_var
    kernel = np.exp(-0.5 * (dx * np.arange(-(n - 1), n)) ** 2 / W) / math.sqrt(2.0 * math.pi * W)
    if belief.geometry.convolution == "fft":
        raw = fftconvolve(weighted, kernel, mode="valid")
    else:
        raw = np.convolve(weighted, kernel, mode="valid")
    raw = np.maximum(raw, 0.0)
    if 1.0 - float(cell_w @ raw) > 1e-6:
        raise SupportOverflowError("propagated belief escaped the grid")
    return raw / float(cell_w @ raw)


def step_rows_scipy_fft(geometry, process, parents, succ, fail, out) -> list:
    """The batched belief step as it was written on scipy.fft: its own noise
    kernel, FFT length (``scipy.fft.next_fast_len``) and spectrum, and one
    fresh ``scipy.fft.rfftn``/``irfftn`` pair over the row axis; the
    conditioning and normalization are the package's.  Same arguments and
    result as ``belief._step_rows``."""
    n = geometry.n_points
    grid = _grid_arrays(geometry)
    errors = [None] * len(parents)
    conditioned = _condition_rows(geometry, parents, succ, fail, errors)
    cum = np.zeros((len(parents), n + 1))
    np.cumsum(np.multiply(grid.cell_w, conditioned, out=conditioned), axis=1, out=cum[:, 1:])
    pulled = grid.edges / abs(process.a)
    for c in cum:
        c[:] = np.interp(pulled, grid.edges, c, left=0.0, right=float(c[-1]))
    weighted = np.subtract(cum[:, 1:], cum[:, :-1], out=conditioned)
    if process.a < 0:
        weighted = weighted[:, ::-1]

    W = process.noise_var
    kernel = np.exp(-0.5 * (geometry.spacing * np.arange(-(n - 1), n)) ** 2 / W)
    kernel /= math.sqrt(2.0 * math.pi * W)
    size = scipy.fft.next_fast_len(3 * n - 2, True)
    spectrum = scipy.fft.rfftn(kernel, [size], axes=[0])
    product = scipy.fft.rfftn(weighted, [size], axes=[1])
    full = scipy.fft.irfftn(np.multiply(spectrum, product, out=product), [size], axes=[1])
    raw = full[:, n - 1 : 2 * n - 1]

    totals = _clipped_totals(raw, grid.cell_w)
    for r, total in enumerate(totals):
        escaped = 1.0 - float(total)
        if errors[r] is None and escaped > SUPPORT_OVERFLOW_TOL:
            errors[r] = SupportOverflowError(
                f"{escaped:.3e} of the propagated belief escaped [-{geometry.half_width}, "
                f"{geometry.half_width}]; enlarge the grid half_width"
            )
    _normalize_rows(raw, totals, grid.cell_w, out, errors)
    return errors


def gain_path(channel, horizon: int, seed: int, replication: int = 0) -> list[int]:
    """The channel gain index at each of a rollout's steps 1 .. horizon,
    walked one step at a time: after step k the next gain is the first index
    whose cumulative transition probability from the current gain exceeds
    the channel stream's k-th uniform (the last index if rounding leaves
    none)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(replication, STREAM_CHANNEL))
    u = np.random.Generator(np.random.Philox(seq)).random(horizon + 1)
    cum = np.cumsum(np.asarray(channel.transition), axis=1)
    g = channel.initial_gain_index
    path = []
    for k in range(1, horizon + 1):
        path.append(g)
        g = min(int(np.searchsorted(cum[g], u[k], side="right")), channel.n_gains - 1)
    return path


def chain_per_node(problem, geometry, policy, depth: int) -> dict:
    """The chain build as a per-node recursion: every rule expanded afresh by
    the policy, every child belief propagated alone by
    propagate_fftconvolve, the per-state success probability, power and
    failure-branch distortion written out in the node-sum quadrature, and the
    transition matrix assembled entry by entry.  Returns beliefs (node
    weights), phi, power, distortion, virtual and P."""
    G = problem.channel.n_gains
    gains = problem.channel.gains
    pi = np.asarray(problem.channel.transition)
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [node + (g,) for node in frontier for g in range(G)]
        nodes.extend(frontier)
    index = {node: i for i, node in enumerate(nodes)}
    root = gaussian_grid(0.0, problem.process.noise_var, geometry)
    beliefs = [root] * len(nodes)
    virtual = np.zeros(len(nodes), dtype=bool)
    S = len(nodes) * G
    phi, power, distortion = np.empty(S), np.empty(S), np.empty(S)
    full_power = max_power_action(problem.actions).as_action(geometry, problem.actions)
    n = geometry.n_points
    x = np.linspace(-geometry.half_width, geometry.half_width, n)
    cell_w = np.full(n, geometry.spacing)
    cell_w[0] = cell_w[-1] = 0.5 * geometry.spacing
    for i, node in enumerate(nodes):
        theta = beliefs[i]
        masses = cell_w * theta.weights
        for g in range(G):
            s = i * G + g
            rule = full_power if len(node) == depth else policy.action_of(node, g)
            q = reception_prob(problem.reception, rule.values, gains[g])
            phi[s] = min(max(float(masses @ q), 0.0), 1.0)
            power[s] = float(masses @ rule.values)
            fail_w = (1.0 - q) * masses
            fail_mass = float(fail_w.sum())
            distortion[s] = 0.0
            if fail_mass >= 1e-12:
                e_hat = float(fail_w @ x) / fail_mass
                distortion[s] = float(fail_w @ (x - e_hat) ** 2)
            if len(node) == depth:
                continue
            c = index[node + (g,)]
            if virtual[i] or 1.0 - phi[s] < 1e-12:
                virtual[c] = True
            else:
                weights = propagate_fftconvolve(theta, gains[g], rule, problem.process,
                                                problem.reception)
                beliefs[c] = BeliefGrid(geometry, weights)
    phi_eff = np.where(1.0 - phi < 1e-12, 1.0, phi)
    rows, cols, vals = [], [], []
    for s in range(S):
        i, g = divmod(s, G)
        node = nodes[i]
        c = index[node + (g,)] if len(node) < depth else i
        for target, p in ((0, phi_eff[s]), (c, 1.0 - phi_eff[s])):
            if p > 0:
                for h in range(G):
                    if pi[g, h] > 0:
                        rows.append(s)
                        cols.append(target * G + h)
                        vals.append(p * pi[g, h])
    P = sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsr()
    return {
        "beliefs": [b.weights for b in beliefs],
        "phi": phi,
        "power": power,
        "distortion": distortion,
        "virtual": virtual,
        "P": P,
    }


def structure_witness_per_state(chain, weights, values) -> float:
    """The structure witness one state at a time: at each non-tail state the
    mirrored ring argmin and its tabular refinement are written out, expanded
    into validated ActionFunctions and each scored by state_action_value."""
    problem = chain.problem
    G = chain.n_gains
    pi = np.asarray(problem.channel.transition)
    levels = np.asarray(problem.actions.levels)
    sat = problem.actions.saturation_radius
    alpha = weights.alpha

    def centre(belief, q):
        fail_w = (1.0 - q) * belief.cell_masses()
        fail_mass = float(fail_w.sum())
        return 0.0 if fail_mass < 1e-12 else float(fail_w @ belief.nodes) / fail_mass

    worst = 0.0
    for i in range(chain.n_nodes):
        if chain.tail_mask[i]:
            continue
        belief = chain.beliefs[i]
        x = belief.nodes
        radii = x[len(x) // 2 :]
        for g, gain in enumerate(problem.channel.gains):
            q_levels = np.array([reception_prob(problem.reception, u, gain) for u in levels])
            c = chain.child[i, g]
            gap = float(pi[g] @ (values[c * G : (c + 1) * G] - values[0:G]))
            objective = alpha * levels[:, None] - q_levels[:, None] * (radii**2 + gap)
            ring = np.argmin(objective, axis=0)
            ring[radii > sat] = len(levels) - 1
            ring = np.maximum.accumulate(ring)
            ring = np.concatenate((ring[:0:-1], ring))
            threshold = ActionFunction(levels[ring], problem.actions, chain.geometry)

            center = centre(belief, q_levels[ring])
            for _ in range(5):
                objective = alpha * levels[:, None] - q_levels[:, None] * ((x - center) ** 2 + gap)
                choice = np.argmin(objective, axis=0)
                choice[np.abs(x) > sat] = len(levels) - 1
                new_center = centre(belief, q_levels[choice])
                if abs(new_center - center) < 1e-12:
                    break
                center = new_center
            tabular = ActionFunction(levels[choice], problem.actions, chain.geometry)

            s = i * G + g
            worst = max(
                worst,
                state_action_value(chain, s, threshold, weights, values)
                - state_action_value(chain, s, tabular, weights, values),
            )
    return worst


def rearrangement_lexsort(geometry, weights: np.ndarray) -> np.ndarray:
    """Node weights of the symmetric decreasing rearrangement, as the package
    computed it before it worked on rows: cells sorted by one lexsort on
    (density, radius), every node radius read back by a binary search of
    the cells' reaches, and the result clipped and renormalized."""
    nodes = geometry.nodes()
    order = np.lexsort((np.abs(nodes), -weights))
    reach = np.cumsum(geometry.cell_widths()[order]) / 2.0
    index = np.minimum(np.searchsorted(reach, np.abs(nodes), side="left"), len(reach) - 1)
    raw = np.maximum(weights[order][index], 0.0)
    return raw / float(geometry.cell_widths() @ raw)


def _probes_one_at_a_time(chain, rng, max_radius: float, count: int):
    problem, geometry = chain.problem, chain.geometry
    L = problem.actions.saturation_radius
    for _ in range(count):
        theta, theta_hat = random_relation_pair(geometry, rng, max_radius=max_radius)
        radii = np.sort(rng.uniform(0.05 * L, 0.95 * L, size=problem.actions.n_levels - 1))
        rule = ThresholdAction(tuple(float(r) for r in radii))
        action = rule.as_action(geometry, problem.actions)
        gain = float(rng.choice(problem.channel.gains))
        yield theta, theta_hat, action, rearranged_action(action, theta, theta_hat), gain


def verify_structure_per_probe(chain, samples: int, seed: int) -> dict:
    """The two randomized probe loops of verify_structure written with the
    public functions, one probe at a time: every cost margin, every order
    verdict (None for a probe skipped on a degenerate step), and the counts
    of skipped and checked order probes.  The order loop runs only where
    verify_structure runs it."""
    problem = chain.problem
    L = problem.actions.saturation_radius
    rng = np.random.default_rng(seed)
    margins = [
        stage_cost(theta, gain, action, problem.reception, problem.cost)
        - stage_cost(theta_hat, gain, twin, problem.reception, problem.cost)
        for theta, theta_hat, action, twin, gain in _probes_one_at_a_time(chain, rng, L, samples)
    ]
    verdicts = []
    order_radius = (L - 6.0 * problem.process.noise_var**0.5) / abs(problem.process.a)
    if order_radius >= 10.0 * chain.geometry.spacing:
        for theta, theta_hat, action, twin, gain in _probes_one_at_a_time(
            chain, rng, order_radius, samples
        ):
            try:
                theta_next = propagate(theta, gain, action, 0, problem.process, problem.reception)
                twin_next = propagate(theta_hat, gain, twin, 0, problem.process, problem.reception)
            except DegenerateSuccessError:
                verdicts.append(None)
                continue
            verdicts.append(
                relation_R(theta_next, twin_next, L, majorization_slack=1e-6, tail_tol=1e-7)
            )
    return {
        "margins": margins,
        "verdicts": verdicts,
        "skipped": sum(v is None for v in verdicts),
        "checked": sum(v is not None for v in verdicts),
    }


def three_state_average_cost(phis, costs) -> float:
    """Average cost of the root -> one-failure -> tail loop, solved by hand.

    Success leads back to the root from every state; failure steps one node
    deeper; the tail retries itself.  Balance gives unnormalized occupancies
    1, (1-phi0), (1-phi0)(1-phi1)/phit.
    """
    phi0, phi1, phit = phis
    w = np.array([1.0, 1.0 - phi0, (1.0 - phi0) * (1.0 - phi1) / phit])
    return float(w @ np.asarray(costs)) / float(w.sum())


def backward_induction_values(chain, weights, beta: float, horizon: int, grid) -> np.ndarray:
    """Finite-horizon optimal discounted values on a frozen chain.

    Candidates per non-tail state are all nondecreasing switch tuples drawn
    from `grid` (the class the grid-scan improvement searches); tail states
    are pinned to the max-power rule.  Stage costs and success probabilities
    are rebuilt here from the raw belief weights in the chain's node-sum
    quadrature (the semantics its stage vector is defined in), values from
    plain backward steps.
    """
    problem = chain.problem
    G = chain.n_gains
    S = chain.n_states
    pi = np.asarray(problem.channel.transition)
    action_set = problem.actions
    levels = np.asarray(action_set.levels, dtype=float)
    geometry = chain.geometry
    half = geometry.n_points // 2
    nodes = np.linspace(-geometry.half_width, geometry.half_width, geometry.n_points)
    cell_w = np.full(geometry.n_points, geometry.spacing)
    cell_w[0] = cell_w[-1] = 0.5 * geometry.spacing
    combos = list(combinations_with_replacement(np.sort(np.asarray(grid, dtype=float)),
                                                action_set.n_levels - 1))

    def level_choice(combo) -> np.ndarray:
        # right half mirrored, matching the evenness convention of expanded rules
        right = np.searchsorted(np.asarray(combo, dtype=float), nodes[half:], side="right")
        return np.concatenate((right[:0:-1], right))

    def stage_and_phi(masses, gain: float, choice: np.ndarray) -> tuple[float, float]:
        q_levels = np.array([q_of(problem.reception, float(u), gain) for u in levels])
        q = q_levels[choice]
        power = float(masses @ levels[choice])
        phi = float(masses @ q)
        fail_w = (1.0 - q) * masses
        m0 = float(fail_w.sum())
        if m0 < 1e-12:
            return weights.alpha * power, phi
        e_hat = float(fail_w @ nodes) / m0
        dist = float(fail_w @ (nodes - e_hat) ** 2)
        return weights.alpha * power + dist, phi

    per_state: list[list[tuple[float, float]]] = []
    for s in range(S):
        i, g = divmod(s, G)
        masses = cell_w * chain.beliefs[i].weights
        gain = problem.channel.gains[g]
        if chain.tail_mask[i]:
            rules = [tuple(0.0 for _ in range(action_set.n_levels - 1))]
        else:
            rules = combos
        per_state.append([stage_and_phi(masses, gain, level_choice(c)) for c in rules])

    V = np.zeros(S)
    for _ in range(horizon):
        nxt = np.empty(S)
        for s in range(S):
            i, g = divmod(s, G)
            c = chain.child[i, g]
            v_root = pi[g] @ V[0:G]
            v_child = pi[g] @ V[c * G : (c + 1) * G]
            nxt[s] = min(
                stage + beta * (phi * v_root + (1.0 - phi) * v_child)
                for stage, phi in per_state[s]
            )
        V = nxt
    return V


def best_one_threshold_policy(problem, geometry, depth: int, grid):
    """Brute-force enumeration over per-node one-threshold rules.

    Only meaningful for single-gain two-level instances; the tail node is
    forced to max power by the chain itself, so the free nodes are the
    interior ones.  Returns (best average cost, thresholds per free node).
    """
    if problem.channel.n_gains != 1 or problem.actions.n_levels != 2:
        raise ValueError("enumeration oracle expects one gain and two levels")
    base = build_chain(problem, geometry, PowerPolicy.max_power(problem.actions, geometry), depth)
    free = [node for i, node in enumerate(base.nodes) if not base.tail_mask[i]]
    best_rho = math.inf
    best_combo = None
    for combo in product(np.asarray(grid, dtype=float), repeat=len(free)):
        rules = {(node, 0): ThresholdAction((float(t),)) for node, t in zip(free, combo)}
        policy = PowerPolicy.from_rules(rules, problem.actions, geometry)
        chain = build_chain(problem, geometry, policy, depth)
        rho = evaluate_policy(chain, problem.cost).rho
        if rho < best_rho:
            best_rho = rho
            best_combo = combo
    return best_rho, best_combo


def reachable_states_dfs(P: sp.csr_matrix, seeds) -> np.ndarray:
    """States reachable from `seeds` along the stored entries of P, by an
    explicit-stack depth-first walk over the CSR rows."""
    seen = np.zeros(P.shape[0], dtype=bool)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        if not seen[s]:
            seen[s] = True
            stack.extend(int(t) for t in P.indices[P.indptr[s] : P.indptr[s + 1]])
    return np.flatnonzero(seen)
