"""A banded rule's pieces, kept as flat arrays in cell order, against the
dense (2, bands, n_points) piece arrays of ``oracles.dense_pieces`` and the
sums taken over them: the pieces and per-cell averages bit for bit, the
banded stage cost to a pinned relative tolerance."""

import numpy as np
import pytest

from oracles import dense_cell_average, dense_pieces, dense_stage_cost
from remotepower import (
    ActionSet,
    BeliefGrid,
    CostWeights,
    GridGeometry,
    GridGeometryError,
    ReceptionModel,
    banded_action,
    expected_power,
    gaussian_grid,
    post_failure,
    reception_prob,
    stage_cost,
    success_prob,
)
from remotepower.belief import _cell_average, _condition_rows, _grid_arrays, _rule_vectors

GRIDS = [
    GridGeometry(half_width=60.0, n_points=4001, convolution="fft"),
    GridGeometry(half_width=20.0, n_points=401, convolution="direct"),
    GridGeometry(half_width=7.0, n_points=21, convolution="direct"),
]
RANDOM_RULES = 110
# The banded distortion sums differences of cubes of the piece ends about the
# failure-branch mean, so an ulp of that mean moves it by far more than an
# ulp.  On the 4001-point grid the dense sum itself is off by up to 1.5e-14
# relative from a long-double evaluation, and the flat sums differ from it by
# up to 2.0e-14 over 1500 random rules (1.8e-14 on the cases below); on the
# 401- and 21-point grids by at most 3.2e-15.
STAGE_COST_RTOL = 5e-14
RECEPTION = ReceptionModel(form="exponential", scale=1.0)
COST = CostWeights(alpha=0.5)


def _edge_radii(geometry: GridGeometry) -> dict[str, list[float]]:
    """Switch radii placed where a cut is easiest to get wrong."""
    g = _grid_arrays(geometry)
    c, n, E = geometry.n_points // 2, geometry.n_points, geometry.half_width
    j = c + n // 4  # a cell right of the centre

    def at(k: int, t: float) -> float:
        return float(g.cell_lo[k] + t * (g.cell_hi[k] - g.cell_lo[k]))

    return {
        "a radius of 0": [0.0, at(j, 0.5), 0.8 * E],
        "two radii of 0": [0.0, 0.0, at(j, 0.3)],
        "a radius on a cell's upper edge": [float(g.cell_hi[j]), 0.8 * E],
        "a radius on a cell's lower edge": [float(g.cell_lo[j]), float(g.cell_lo[j + 1])],
        "a radius inside the centre cell": [at(c, 0.8), at(j, 0.5)],
        "two radii inside the centre cell": [at(c, 0.6), at(c, 0.9), at(j, 0.5)],
        "two radii in one cell": [at(j, 0.2), at(j, 0.7)],
        "three radii in one cell": [at(j, 0.2), at(j, 0.5), at(j, 0.7)],
        "equal radii": [at(j, 0.4), at(j, 0.4), 0.5 * E],
        "equal radii on a cell edge": [float(g.cell_hi[j]), float(g.cell_hi[j])],
        "a radius at half_width": [at(j, 0.5), E],
        "radii beyond half_width": [at(j, 0.5), 1.5 * E, 3.0 * E],
        "a radius beyond twice half_width": [2.5 * E],
    }


def _random_radii(rng: np.random.Generator, geometry: GridGeometry) -> list[float]:
    """One to five sorted radii, drawn in one of five ways: anywhere, on cell
    edges, crowded into one cell, near zero, or with ties."""
    g = _grid_arrays(geometry)
    c, E = geometry.n_points // 2, geometry.half_width
    count = int(rng.integers(1, 6))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        radii = rng.uniform(0.0, 1.1 * E, count)
    elif kind == 1:
        radii = rng.choice(np.concatenate((g.cell_lo[c + 1 :], g.cell_hi[c:])), count)
    elif kind == 2:
        k = int(rng.integers(c + 1, geometry.n_points))
        radii = rng.uniform(g.cell_lo[k], g.cell_hi[k], count)
    elif kind == 3:
        radii = rng.uniform(0.0, 2.0 * g.cell_hi[c], count)
    else:
        radii = np.repeat(rng.uniform(0.0, E, (count + 1) // 2), 2)[:count]
    return sorted(float(r) for r in radii)


def _belief(rng: np.random.Generator, geometry: GridGeometry) -> BeliefGrid:
    """A Gaussian belief, or a rough positive one with mass in every cell."""
    E = geometry.half_width
    if rng.random() < 0.5:
        return gaussian_grid(rng.uniform(-0.25, 0.25) * E, (rng.uniform(0.05, 0.12) * E) ** 2, geometry)
    weights = rng.uniform(0.1, 1.0, geometry.n_points)
    return BeliefGrid(geometry, weights / float(geometry.cell_widths() @ weights))


def _rule(rng: np.random.Generator, geometry: GridGeometry, radii: list[float]):
    positive = np.sort(rng.choice(np.arange(1, 20), len(radii), replace=False)) / 4.0
    levels = (0.0, *(float(x) for x in positive))
    actions = ActionSet(levels=levels, saturation_radius=0.5 * geometry.half_width)
    return banded_action(np.array(radii), np.array(levels), actions, geometry, enforce=False)


def _check_rule(rng: np.random.Generator, action, belief: BeliefGrid) -> None:
    geometry = action.geometry
    g = _grid_arrays(geometry)
    n, bands = geometry.n_points, len(action.bands[1])
    cell, band, lo, hi, lengths = action._pieces

    # flat arrays, no more pieces than zero and the radii can cut, and every
    # cell that no cut splits is one piece [cell_lo, cell_hi]
    assert all(arr.ndim == 1 and len(arr) == len(cell) for arr in action._pieces)
    assert len(cell) <= n + 2 * bands - 1
    whole = np.bincount(cell, minlength=n) == 1
    uncut = whole[cell]
    assert np.array_equal(lo[uncut], g.cell_lo[whole]) and np.array_equal(hi[uncut], g.cell_hi[whole])
    assert np.array_equal(lengths[uncut], (g.cell_hi - g.cell_lo)[whole])
    assert np.array_equal(lengths, hi - lo)

    # the nonempty dense pieces, listed by (cell, side, band), are the flat ones
    dense_lo, dense_hi, dense_lengths = (arr.transpose(2, 0, 1) for arr in dense_pieces(action))
    nonempty = dense_lengths != 0.0
    cells, _, dense_band = np.nonzero(nonempty)
    assert np.array_equal(cell, cells) and np.array_equal(band, dense_band)
    assert np.array_equal(lo, dense_lo[nonempty]) and np.array_equal(hi, dense_hi[nonempty])

    # every per-cell average is the dense einsum's, bit for bit
    per_level = rng.uniform(0.0, 1.0, bands)
    assert np.array_equal(_cell_average(action, per_level), dense_cell_average(action, per_level))
    gain = float(rng.choice([0.5, 1.0, 2.0]))
    q = reception_prob(RECEPTION, action.bands[1], gain)
    succ, fail = dense_cell_average(action, q), dense_cell_average(action, 1.0 - q)
    got_succ, got_fail = _rule_vectors(action, RECEPTION, gain)
    assert np.array_equal(got_succ, succ) and np.array_equal(got_fail, fail)
    masses = belief.cell_masses()
    assert expected_power(belief, action) == float(masses @ dense_cell_average(action, action.bands[1]))
    assert success_prob(belief, gain, action, RECEPTION) == min(max(float(masses @ succ), 0.0), 1.0)
    errors = [None]
    conditioned = _condition_rows(geometry, belief.weights[None], [succ], [fail], errors)
    assert errors == [None]
    assert np.array_equal(post_failure(belief, gain, action, RECEPTION).weights, conditioned[0])

    # the banded stage cost is the dense scatter sum's to a pinned tolerance
    got = stage_cost(belief, gain, action, RECEPTION, COST)
    want = dense_stage_cost(belief, gain, action, RECEPTION, COST)
    assert abs(got - want) <= STAGE_COST_RTOL * abs(want)


@pytest.mark.parametrize("geometry", GRIDS, ids=lambda g: f"{g.n_points}-points")
def test_random_banded_rules_match_the_dense_pieces(geometry):
    rng = np.random.default_rng(geometry.n_points)
    for _ in range(RANDOM_RULES):
        _check_rule(rng, _rule(rng, geometry, _random_radii(rng, geometry)), _belief(rng, geometry))


@pytest.mark.parametrize("case", list(_edge_radii(GRIDS[0])))
@pytest.mark.parametrize("geometry", GRIDS, ids=lambda g: f"{g.n_points}-points")
def test_edge_radii_match_the_dense_pieces(geometry, case):
    rng = np.random.default_rng(2)
    radii = _edge_radii(geometry)[case]
    for _ in range(3):
        _check_rule(rng, _rule(rng, geometry, radii), _belief(rng, geometry))


def test_a_radius_inside_the_centre_cell_cuts_it_in_four():
    geometry = GRIDS[1]
    g = _grid_arrays(geometry)
    c = geometry.n_points // 2
    r = 0.5 * float(g.cell_hi[c])
    cell, band, lo, hi, _ = _rule(np.random.default_rng(3), geometry, [r])._pieces
    at = cell == c
    # e >= 0 first, then e < 0, each side from zero outward
    assert lo[at].tolist() == [0.0, r, -r, float(g.cell_lo[c])]
    assert hi[at].tolist() == [r, float(g.cell_hi[c]), 0.0, -r]
    assert band[at].tolist() == [0, 1, 0, 1]
    assert len(cell) == geometry.n_points + 3


def _longdouble_stage_cost(belief, gain, action, reception, weights) -> np.longdouble:
    """The banded stage cost summed in long double from the same double
    inputs: levels, success probabilities, densities and piece ends."""
    ld = np.longdouble
    cell, band, lo, hi, _ = action._pieces
    levels = action.bands[1]
    q = reception_prob(reception, levels, gain).astype(ld)
    w = belief.weights.astype(ld)[cell]
    lo, hi = lo.astype(ld), hi.astype(ld)
    power = np.sum(levels.astype(ld)[band] * w * (hi - lo))
    fail_w = (1 - q)[band] * w
    fail_mass = np.sum(fail_w * (hi - lo))
    e_hat = np.sum(fail_w * (hi * hi - lo * lo)) / 2 / fail_mass
    distortion = np.sum(fail_w * ((hi - e_hat) ** 3 - (lo - e_hat) ** 3)) / 3
    return ld(weights.alpha) * power + distortion


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps / 16,
    reason="long double carries no extra precision on this platform",
)
def test_banded_stage_cost_is_within_2e_15_of_a_long_double_sum():
    # Wide Gaussians under mostly silent rules put the failure mean far from
    # most pieces, where a difference of cubes about it cancels: summed that
    # way the cost was off by up to 1.3e-14 relative on these cases.
    geometry = GRIDS[0]
    actions = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=12.0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(150):
        belief = gaussian_grid(rng.uniform(-15.0, 15.0), rng.uniform(3.0, 7.0) ** 2, geometry)
        radii = np.sort(rng.uniform(6.0, 12.0, size=3))
        action = banded_action(radii, np.asarray(actions.levels), actions, geometry)
        gain = float(rng.choice([0.5, 2.0]))
        got = stage_cost(belief, gain, action, RECEPTION, COST)
        want = _longdouble_stage_cost(belief, gain, action, RECEPTION, COST)
        worst = max(worst, float(abs(np.longdouble(got) - want) / abs(want)))
    assert worst <= 2e-15


def test_a_nan_band_radius_is_refused():
    geometry = GRIDS[1]
    actions = ActionSet(levels=(0.0, 2.0, 4.0), saturation_radius=10.0)
    levels = np.asarray(actions.levels)
    for radii in ([np.nan, 5.0], [1.0, np.nan], [np.nan, np.nan]):
        with pytest.raises(GridGeometryError, match="band radii"):
            banded_action(np.array(radii), levels, actions, geometry, enforce=False)
        with pytest.raises(GridGeometryError):
            banded_action(np.array(radii), levels, actions, geometry)
    # an infinite radius still builds: the band below it never ends
    rule = banded_action(np.array([1.0, np.inf]), levels, actions, geometry, enforce=False)
    assert rule.value_at(1e300) == 2.0
