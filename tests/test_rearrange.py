"""Rearrangement order: majorization, relation_R, and measure-matched rules."""

import numpy as np
import pytest

import remotepower.rearrange as rearrange
from remotepower import (
    ActionFunction,
    ActionSet,
    BeliefGrid,
    GridGeometry,
    GridGeometryError,
    MeasureMatchError,
    constant_action,
    expected_power,
    gaussian_grid,
    interior_permutation,
    is_even_unimodal,
    majorizes,
    outward_mass,
    outward_quantile,
    random_relation_pair,
    rearranged_action,
    relation_R,
    success_prob,
    symmetric_decreasing_rearrangement,
)
from remotepower.model import ReceptionModel

HALF_MASS_RADIUS = 0.6744897501960817  # |N(0,1)| median

GEOM = GridGeometry(half_width=12.0, n_points=601, convolution="direct")
ACTS = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0)
EXP = ReceptionModel(form="exponential", scale=1.0)


def centered_mixture(geometry, sigmas, weights):
    x = geometry.nodes()
    dens = np.zeros_like(x)
    for s, w in zip(sigmas, weights):
        dens += w * np.exp(-0.5 * (x / s) ** 2) / s
    total = float(geometry.cell_widths() @ dens)
    return BeliefGrid(geometry, dens / total)


def test_rearrangement_fixes_centered_gaussian():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    out = symmetric_decreasing_rearrangement(theta)
    assert np.max(np.abs(out.weights - theta.weights)) <= 1e-10


def test_rearrangement_recentres_uniform_block():
    g = GridGeometry(half_width=3.0, n_points=1501)
    x = g.nodes()
    w = np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
    theta = BeliefGrid(g, w / float(g.cell_widths() @ w))
    out = symmetric_decreasing_rearrangement(theta)
    w2 = np.where(np.abs(x) <= 0.5, 1.0, 0.0)
    expected = w2 / float(g.cell_widths() @ w2)
    assert np.max(np.abs(out.weights - expected)) <= 1e-12


def test_rearrangement_recentres_shifted_gaussian():
    shifted = gaussian_grid(2.0, 1.0, GEOM)
    out = symmetric_decreasing_rearrangement(shifted)
    target = gaussian_grid(0.0, 1.0, GEOM)
    assert is_even_unimodal(out)
    assert np.max(np.abs(out.weights - target.weights)) <= 1e-3


def test_is_even_unimodal():
    assert is_even_unimodal(gaussian_grid(0.0, 1.0, GEOM))
    assert not is_even_unimodal(gaussian_grid(2.0, 1.0, GEOM))
    x = GEOM.nodes()
    dens = np.exp(-0.5 * ((x - 2.0) / 0.5) ** 2) + np.exp(-0.5 * ((x + 2.0) / 0.5) ** 2)
    bimodal = BeliefGrid(GEOM, dens / float(GEOM.cell_widths() @ dens))
    assert not is_even_unimodal(bimodal)


def test_majorization_order():
    narrow = gaussian_grid(0.0, 1.0, GEOM)
    wide = gaussian_grid(0.0, 4.0, GEOM)
    assert majorizes(narrow, narrow)
    assert majorizes(narrow, wide)
    assert not majorizes(wide, narrow)


def test_relation_R_examples():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    assert relation_R(theta, theta, 6.0)
    # even+unimodal but flatter: fails majorization
    assert not relation_R(theta, gaussian_grid(0.0, 4.0, GEOM), 6.0)
    # not even
    assert not relation_R(theta, gaussian_grid(2.0, 1.0, GEOM), 6.0)
    # not unimodal
    x = GEOM.nodes()
    dens = np.exp(-2.0 * (x - 2.0) ** 2) + np.exp(-2.0 * (x + 2.0) ** 2)
    bimodal = BeliefGrid(GEOM, dens / float(GEOM.cell_widths() @ dens))
    assert not relation_R(theta, bimodal, 6.0)


def test_random_relation_pairs_satisfy_relation(rng):
    for _ in range(30):
        theta, theta_hat = random_relation_pair(GEOM, rng, max_radius=6.0)
        assert is_even_unimodal(theta_hat)
        assert relation_R(theta, theta_hat, 6.0)


def test_outward_quantile_edges():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    assert outward_quantile(theta, 0.0) == GEOM.half_width
    assert outward_quantile(theta, -1.0) == GEOM.half_width
    assert outward_quantile(theta, 2.0) == 0.0  # more mass than exists


def test_rearranged_action_fixed_point_on_boundary_radii():
    # switch radii on cell boundaries (k + 1/2) * spacing, where node-mass
    # level sets and exact outward masses coincide
    theta = gaussian_grid(0.0, 1.0, GEOM)
    radii = np.array([0.82, 1.70, 2.90])
    from remotepower import banded_action

    rule = banded_action(radii, ACTS.levels, ACTS, GEOM)
    back = rearranged_action(rule, theta, theta)
    assert np.max(np.abs(back.bands[0] - radii)) <= 1e-12
    assert np.array_equal(back.bands[1], np.asarray(ACTS.levels))


def test_rearranged_action_structures_constant_rule():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    flat = constant_action(2.0, ACTS, GEOM, enforce=False)
    out = rearranged_action(flat, theta, theta)
    assert out.value_at(0.0) == 2.0
    assert out.value_at(5.9) == 2.0
    assert out.value_at(6.0) == 4.0  # saturation takes over
    assert out.saturated
    assert expected_power(theta, out) == pytest.approx(2.0, abs=1e-6)


def test_rearranged_action_half_line_rule_hits_median_radius():
    g = GridGeometry(half_width=12.0, n_points=2401)
    acts = ActionSet(levels=(0.0, 4.0), saturation_radius=6.0)
    theta = gaussian_grid(0.0, 1.0, g)
    vals = np.where(g.nodes() > 0.0, 4.0, 0.0)
    half_line = ActionFunction(vals, acts, g, enforce=False)
    out = rearranged_action(half_line, theta, theta)
    assert out.bands[0][0] == pytest.approx(HALF_MASS_RADIUS, abs=g.spacing)
    for gain in (0.5, 2.0):
        assert success_prob(theta, gain, out, EXP) == pytest.approx(
            success_prob(theta, gain, half_line, EXP), abs=1e-9
        )
    assert expected_power(theta, out) == pytest.approx(
        expected_power(theta, half_line), abs=1e-9
    )


def test_rearranged_action_requires_matching_tails():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    displaced = gaussian_grid(6.0, 1.0, GEOM)
    rule = constant_action(4.0, ACTS, GEOM)
    with pytest.raises(MeasureMatchError):
        rearranged_action(rule, theta, displaced)


def test_rearranged_action_preserves_power_and_success(rng):
    levels = np.asarray(ACTS.levels)
    for _ in range(5):
        theta, theta_hat = random_relation_pair(GEOM, rng, max_radius=6.0)
        vals = levels[rng.integers(0, len(levels), size=GEOM.n_points)]
        scrambled = ActionFunction(vals, ACTS, GEOM, enforce=False)
        out = rearranged_action(scrambled, theta, theta_hat)
        assert np.all(np.diff(out.bands[0]) >= 0.0)
        assert expected_power(theta_hat, out) == pytest.approx(
            expected_power(theta, scrambled), abs=1e-9
        )
        for gain in (0.5, 2.0):
            assert success_prob(theta_hat, gain, out, EXP) == pytest.approx(
                success_prob(theta, gain, scrambled, EXP), abs=1e-9
            )


def test_interior_permutation_preserves_rearrangement(rng):
    base = centered_mixture(GEOM, [0.8, 1.6], [0.5, 0.5])
    perm = interior_permutation(base, rng, max_radius=4.0)
    assert np.array_equal(np.sort(perm.weights), np.sort(base.weights))
    assert perm.weights[0] == base.weights[0]
    assert perm.weights[-1] == base.weights[-1]
    outside = np.abs(GEOM.nodes()) >= 4.0
    assert np.array_equal(perm.weights[outside], base.weights[outside])
    r_perm = symmetric_decreasing_rearrangement(perm)
    r_base = symmetric_decreasing_rearrangement(base)
    assert np.max(np.abs(r_perm.weights - r_base.weights)) <= 1e-12


def test_rearrangement_idempotent():
    skew = gaussian_grid(1.3, 1.21, GEOM)
    once = symmetric_decreasing_rearrangement(skew)
    twice = symmetric_decreasing_rearrangement(once)
    assert np.max(np.abs(twice.weights - once.weights)) <= 1e-12


def _count_rearrangements(monkeypatch) -> list[np.ndarray]:
    """The weights of each belief rearrange._rearranged_rows is called on,
    in call order."""
    seen = []
    real = rearrange._rearranged_rows

    def counting(geometry, weights, errors, out=None):
        seen.extend(row.copy() for row in weights)
        return real(geometry, weights, errors, out)

    monkeypatch.setattr(rearrange, "_rearranged_rows", counting)
    return seen


def test_relation_R_rearranges_only_where_its_clauses_reach(monkeypatch, rng):
    theta, theta_hat = random_relation_pair(GEOM, rng, max_radius=6.0)
    seen = _count_rearrangements(monkeypatch)
    narrow = gaussian_grid(0.0, 1.0, GEOM)
    # theta_star not even: decided without a rearrangement
    assert not relation_R(narrow, gaussian_grid(2.0, 1.0, GEOM), 6.0)
    assert seen == []
    # majorization decided, failing and holding: theta_star's rearrangement first
    wide = gaussian_grid(0.0, 4.0, GEOM)
    assert not relation_R(narrow, wide, 6.0)
    assert len(seen) == 2
    assert np.array_equal(seen[0], wide.weights) and np.array_equal(seen[1], narrow.weights)
    seen.clear()
    assert relation_R(theta, theta_hat, 6.0)
    assert len(seen) == 2
    assert np.array_equal(seen[0], theta_hat.weights) and np.array_equal(seen[1], theta.weights)


def test_relation_R_raises_theta_stars_rearrangement_error_first():
    # views skip the checks a BeliefGrid makes, so both rows reach the
    # rearrangement: all zeros cannot be renormalized, an infinite weight
    # normalizes to NaN
    zeros = BeliefGrid._view(GEOM, np.zeros(GEOM.n_points))
    weights = gaussian_grid(0.0, 1.0, GEOM).weights.copy()
    weights[GEOM.n_points // 3] = np.inf
    infinite = BeliefGrid._view(GEOM, weights)
    with pytest.raises(GridGeometryError, match="all-zero"):
        relation_R(infinite, zeros, 6.0)
    with pytest.raises(GridGeometryError, match="finite"), np.errstate(invalid="ignore"):
        relation_R(infinite, gaussian_grid(0.0, 1.0, GEOM), 6.0)
