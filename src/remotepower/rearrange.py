"""Symmetric rearrangement machinery for comparing beliefs and power rules.

The structural argument behind threshold rules runs through three pieces:

* the symmetric decreasing rearrangement of a belief (same mass at every
  density level, reshaped into an even density peaked at zero),
* a partial order between beliefs: relation_R(theta, theta_star) holds when
  theta_star is even and unimodal, majorizes theta, and agrees with theta
  pointwise outside the saturation radius, and
* a measure-matched rewrite of a power rule onto the better-ordered belief
  that transmits outward-increasing levels while preserving expected power
  and success probability.

Beliefs are cell-constant densities, so everything here is piecewise linear
in the radius and the measure matching can use exact real-valued radii
rather than radii snapped to grid nodes (a snapped radius misplaces up to
half a cell of mass, orders of magnitude above what the preservation
identities tolerate).

Every function here works on one belief or one pair of beliefs, and
verify_structure's probes call them one probe at a time.  Only the
rearrangement keeps a (rows, points) form underneath, of which
symmetric_decreasing_rearrangement is the one-row case.
"""

from __future__ import annotations

import functools

import numpy as np

from .belief import (
    ActionFunction,
    BeliefGrid,
    GridGeometry,
    _check_normalized,
    _clipped_totals,
    _grid_arrays,
    _normalize_rows,
    _one_row,
    _renormalized,
    banded_action,
    outward_mass,
)

MAJORIZATION_SLACK = 1e-9
TAIL_MATCH_TOL = 1e-9
UNIMODAL_WIGGLE_TOL = 1e-10


class MeasureMatchError(ValueError):
    """Rearrangement precondition violated: tail masses do not agree."""


def symmetric_decreasing_rearrangement(belief: BeliefGrid) -> BeliefGrid:
    """Even, radially nonincreasing density with the same mass at every level.

    Cells are sorted by density (ties resolved center-outward), laid out from
    the origin with each cell contributing half its width to each side, and
    the result is read back at the node radii.  A belief that is already
    even, unimodal, and node-aligned comes back unchanged.
    """
    errors: list[ValueError | None] = [None]
    rows = _rearranged_rows(belief.geometry, belief.weights[None], errors)
    return _one_row(belief.geometry, rows, errors)


def _rearranged_rows(
    geometry: GridGeometry, weights: np.ndarray, errors: list[ValueError | None],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The rearrangement of every row of `weights`, renormalized, written to
    `out` (a new array by default); a row that cannot be renormalized gets
    its error in `errors`.

    A row's sorted values are the same bits in any order of its ties, so a
    plain sort gives them, unless the row holds a -0.0 (which the clip to
    nonnegative weights may leave): such a row is sorted by (density,
    radius, index) in full.  Otherwise the order only has to place the two
    half-width endpoint cells, and at the largest radius each is the last
    of its ties.  Every other cell is dx wide, so up to the first endpoint
    cell the reaches are those of dx cells, bit for bit, and so is the
    read-back index of every radius whose index falls there; only the rest
    is summed and searched per row.
    """
    grid = _grid_arrays(geometry)
    n = geometry.n_points
    radius = np.abs(grid.nodes)
    dx_sums, dx_index = _dx_reach(geometry)
    dx, half = grid.cell_w[1], grid.cell_w[0]
    rows = np.empty_like(weights) if out is None else out
    for row, dest in zip(weights, rows):
        ascending = np.sort(row)
        zeros = ascending[np.searchsorted(ascending, 0.0, side="left"):
                          np.searchsorted(ascending, 0.0, side="right")]
        if np.signbit(zeros).any():
            order = np.lexsort((radius, -row))
            values = row[order]
            first, last = np.flatnonzero((order == 0) | (order == n - 1))
        else:
            values = ascending[::-1]
            first = n - 1 - int(np.searchsorted(ascending, row[0], side="left"))
            first -= bool(row[0] == row[-1])
            last = n - 1 - int(np.searchsorted(ascending, row[-1], side="left"))
            first, last = min(first, last), max(first, last)
        widths = np.full(n - first, dx)
        widths[0] = (dx_sums[first - 1] if first else 0.0) + half
        widths[last - first] = half
        reach = np.cumsum(widths) / 2.0
        index = dx_index.copy()
        late = index >= first
        index[late] = first + np.searchsorted(reach, radius[late], side="left")
        np.minimum(index, n - 1, out=index)
        np.take(values, index, out=dest)
    _normalize_rows(rows, _clipped_totals(rows, grid.cell_w), grid.cell_w, rows, errors)
    return rows


@functools.lru_cache(maxsize=16)
def _dx_reach(geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of n_points cells dx wide, and the read-back index of
    every node radius against half of them; both read-only."""
    sums = np.cumsum(np.full(geometry.n_points, geometry.spacing))
    index = np.searchsorted(sums / 2.0, np.abs(_grid_arrays(geometry).nodes), side="left")
    sums.flags.writeable = index.flags.writeable = False
    return sums, index


def is_even_unimodal(belief: BeliefGrid, tol: float = UNIMODAL_WIGGLE_TOL) -> bool:
    """True if the density is symmetric about zero and nonincreasing outward,
    up to quadrature wiggle of size tol."""
    w = belief.weights
    m = belief.n_points // 2
    return float(np.max(np.abs(w - w[::-1]))) <= tol and bool(np.all(np.diff(w[m:]) <= tol))


def _inward_cumulative(geometry: GridGeometry, weights: np.ndarray) -> np.ndarray:
    """Mass inside [-r, r] at each cell-boundary radius, center outward."""
    c = _grid_arrays(geometry).cell_w * weights
    m = geometry.n_points // 2
    pairs = c[m + 1 :] + c[m - 1 :: -1]
    out = np.empty(m + 1)
    out[0] = c[m]
    out[1:] = c[m] + np.cumsum(pairs)
    return out


def majorizes(f: BeliefGrid, g: BeliefGrid, slack: float = MAJORIZATION_SLACK) -> bool:
    """True iff f's rearrangement is inward-heavier than g's at every radius.

    Both cumulatives are piecewise linear with kinks on the shared cell
    boundaries, so comparing at the boundaries decides the whole line.  f is
    rearranged first, so a rearrangement error is f's before g's.
    """
    if f.geometry != g.geometry:
        raise ValueError("majorization needs both beliefs on the same grid")
    inward_f = _inward_cumulative(f.geometry, symmetric_decreasing_rearrangement(f).weights)
    inward_g = _inward_cumulative(g.geometry, symmetric_decreasing_rearrangement(g).weights)
    return bool(np.all(inward_f >= inward_g - slack))


def relation_R(
    theta: BeliefGrid,
    theta_star: BeliefGrid,
    saturation_radius: float,
    *,
    majorization_slack: float = MAJORIZATION_SLACK,
    tail_tol: float = TAIL_MATCH_TOL,
    unimodal_tol: float = UNIMODAL_WIGGLE_TOL,
) -> bool:
    """Partial order on beliefs used by the threshold-structure argument.

    Holds when theta_star is even and unimodal about zero, majorizes theta,
    and the two densities agree pointwise wherever |e| exceeds the saturation
    radius.  The clauses are decided in that order and each only if the ones
    before it hold, so neither belief is rearranged unless theta_star is even
    and unimodal; a rearrangement error is raised, theta_star's first.
    """
    if theta.geometry != theta_star.geometry:
        raise ValueError("relation_R needs both beliefs on the same grid")
    if not (is_even_unimodal(theta_star, unimodal_tol)
            and majorizes(theta_star, theta, majorization_slack)):
        return False
    outside = np.abs(theta.nodes) > saturation_radius
    if not np.any(outside):
        return True
    return float(np.max(np.abs(theta.weights[outside] - theta_star.weights[outside]))) <= tail_tol


def outward_quantile(belief: BeliefGrid, mass: float) -> float:
    """Largest radius r putting at least `mass` of the belief in {|e| >= r}.

    Exact inverse of the outward-mass function, which is piecewise linear
    between cell boundaries.  Ties (flat stretches of zero density) resolve
    to the larger radius.
    """
    return float(_outward_quantiles(belief.geometry, belief.cell_masses(), [mass])[0])


def _outward_quantiles(geometry: GridGeometry, masses: np.ndarray, targets) -> np.ndarray:
    """outward_quantile of the belief with cell masses `masses` at each mass
    in `targets`, from one sum of its outward masses."""
    m = geometry.n_points // 2
    boundaries = np.concatenate(([0.0], (np.arange(m) + 0.5) * geometry.spacing,
                                 [geometry.half_width]))
    pairs = masses[m + 1 :] + masses[m - 1 :: -1]
    outward = np.concatenate(([float(masses.sum())], np.cumsum(pairs[::-1])[::-1], [0.0]))
    negated = -outward
    radii = np.empty(len(targets))
    for k, mass in enumerate(targets):
        if mass <= 0.0:
            radii[k] = geometry.half_width
            continue
        target = min(mass, outward[0])
        i = int(np.searchsorted(negated, -target, side="right")) - 1
        if i >= len(boundaries) - 1:
            radii[k] = boundaries[-1]
        elif outward[i] <= target:
            radii[k] = boundaries[i]
        elif outward[i] - outward[i + 1] <= 0.0:
            radii[k] = boundaries[i + 1]
        else:
            frac = (outward[i] - target) / (outward[i] - outward[i + 1])
            radii[k] = boundaries[i] + frac * (boundaries[i + 1] - boundaries[i])
    return radii


def rearranged_action(
    action: ActionFunction, theta: BeliefGrid, theta_hat: BeliefGrid
) -> ActionFunction:
    """Rewrite `action` (defined against theta) as an outward-increasing rule
    on theta_hat.

    For every level u, the theta-mass transmitting at or above u is measured
    and the rewritten rule puts exactly that much theta_hat-mass outward of a
    real-valued switch radius.  Expected power and success probability are
    preserved to machine precision by construction.  Radii are capped at the
    saturation radius, so the result transmits u_max outside it; for that cap
    to be harmless the two beliefs must carry equal mass beyond the radius,
    which is checked up front.
    """
    if theta.geometry != theta_hat.geometry:
        raise ValueError("rearranged_action needs both beliefs on the same grid")
    action_set = action.action_set
    L = action_set.saturation_radius
    tail_gap = abs(outward_mass(theta, L) - outward_mass(theta_hat, L))
    if tail_gap > 1e-9:
        raise MeasureMatchError(
            f"beliefs differ by {tail_gap:.3e} in mass beyond the saturation radius {L}"
        )
    levels = np.asarray(action_set.levels, dtype=float)
    masses = theta.cell_masses()
    at_or_above = [float(masses[action.values >= level].sum()) for level in levels[1:]]
    radii = _outward_quantiles(theta.geometry, theta_hat.cell_masses(), at_or_above)
    radii = np.maximum.accumulate(np.minimum(radii, L))
    return banded_action(radii, levels, action_set, theta_hat.geometry)


def interior_permutation(
    belief: BeliefGrid, rng: np.random.Generator, max_radius: float | None = None
) -> BeliefGrid:
    """Shuffle the density values of interior cells, optionally only inside
    max_radius.

    Interior cells share one width, so permuting their values changes nothing
    the rearrangement can see: the shuffled belief and the original have the
    same symmetric decreasing rearrangement.  This makes the function a cheap
    generator of exactly-related pairs for randomized order checks.  The two
    half-width endpoint cells stay put.  Of the checks a BeliefGrid makes,
    only the normalization can come out differently, so only it is made.
    """
    eligible = np.arange(1, belief.n_points - 1)
    if max_radius is not None:
        eligible = eligible[np.abs(belief.nodes[eligible]) < max_radius]
    w = belief.weights.copy()
    w[eligible] = w[rng.permutation(eligible)]
    errors: list[ValueError | None] = [None]
    _check_normalized(w[None], _grid_arrays(belief.geometry).cell_w, errors)
    return _one_row(belief.geometry, w[None], errors)


def random_relation_pair(
    geometry, rng: np.random.Generator, max_radius: float
) -> tuple[BeliefGrid, BeliefGrid]:
    """Draw a (theta, theta_hat) pair satisfying relation_R by construction.

    theta is an interior permutation (confined to |e| < max_radius) of a
    centered Gaussian mixture, theta_hat its symmetric decreasing
    rearrangement.  Components are kept narrow relative to the grid so the
    mixture carries no mass near the boundary and the untouched tail cells
    agree between the two beliefs.
    """
    if not 0.0 < max_radius < geometry.half_width:
        raise ValueError("max_radius must lie inside the grid")
    k = int(rng.integers(1, 4))
    sigma_cap = max(0.75, min(2.0, geometry.half_width / 8.0))
    sigmas = rng.uniform(0.5, sigma_cap, size=k)
    mix = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
    nodes = _grid_arrays(geometry).nodes
    dens = np.zeros(geometry.n_points)
    for w, s in zip(mix, sigmas):
        dens += w * np.exp(-0.5 * (nodes / s) ** 2) / s
    theta = interior_permutation(_renormalized(geometry, dens), rng, max_radius=max_radius)
    return theta, symmetric_decreasing_rearrangement(theta)
