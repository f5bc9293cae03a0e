"""Belief grids: moments, conditioning, propagation, and stage costs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    post_failure_oracle,
    propagate_fftconvolve,
    stage_cost_oracle,
    success_prob_oracle,
)
from remotepower import (
    ActionFunction,
    ActionSet,
    BeliefGrid,
    CostWeights,
    DegenerateSuccessError,
    GridGeometry,
    GridGeometryError,
    ReceptionModel,
    ScalarProcess,
    SupportOverflowError,
    banded_action,
    constant_action,
    expected_power,
    gaussian_grid,
    mean,
    outward_mass,
    post_failure,
    propagate,
    reception_prob,
    stage_cost,
    success_prob,
    variance,
)
from remotepower.rearrange import outward_quantile

UNIFORM_VAR = 1.0 / 3.0  # Var of U[-1, 1], frozen closed form
HALF_MASS_RADIUS = 0.6744897501960817  # Phi^{-1}(0.75): |N(0,1)| median

GEOM = GridGeometry(half_width=12.0, n_points=601, convolution="direct")
ACTS = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0)
EXP = ReceptionModel(form="exponential", scale=1.0)
PROCESS = ScalarProcess(a=1.2, noise_var=1.0)


def mixture(geometry, centers, sigmas, weights=None):
    """Cell-sampled Gaussian mixture, normalized on construction."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    weights = np.full(len(centers), 1.0 / len(centers)) if weights is None else weights
    x = geometry.nodes()
    dens = np.zeros_like(x)
    for c, s, w in zip(centers, sigmas, weights):
        dens += w * np.exp(-0.5 * ((x - c) / s) ** 2) / s
    total = float(geometry.cell_widths() @ dens)
    return BeliefGrid(geometry, dens / total)


def test_geometry_validation():
    with pytest.raises(GridGeometryError):
        GridGeometry(half_width=0.0, n_points=601)
    with pytest.raises(GridGeometryError):
        GridGeometry(half_width=12.0, n_points=600)  # needs odd
    with pytest.raises(GridGeometryError):
        GridGeometry(half_width=12.0, n_points=1)
    with pytest.raises(GridGeometryError):
        GridGeometry(half_width=12.0, n_points=601, convolution="auto")
    g = GridGeometry(half_width=12.0, n_points=601)
    assert g.spacing == pytest.approx(0.04)
    assert g.cell_widths().sum() == pytest.approx(24.0, abs=1e-12)


def test_belief_grid_rejects_unnormalized_and_negative():
    w = np.full(GEOM.n_points, 1.0)
    with pytest.raises(GridGeometryError):
        BeliefGrid(GEOM, w)  # integrates to 24
    w = gaussian_grid(0.0, 1.0, GEOM).weights.copy()
    w[5] = -1e-3
    with pytest.raises(GridGeometryError):
        BeliefGrid(GEOM, w)


def test_gaussian_grid_moments():
    spec_geom = GridGeometry(half_width=30.0, n_points=2001)
    theta = gaussian_grid(0.0, 1.0, spec_geom)
    assert abs(mean(theta)) < 1e-9
    assert variance(theta) == pytest.approx(1.0, abs=1e-4)
    assert theta.integral() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_grid_shifted_mean():
    theta = gaussian_grid(2.0, 1.0, GEOM)
    assert mean(theta) == pytest.approx(2.0, abs=1e-8)


def test_gaussian_grid_rejects_visible_tail():
    with pytest.raises(GridGeometryError) as err:
        gaussian_grid(0.0, 1e6, GridGeometry(half_width=30.0, n_points=2001))
    assert "half_width" in str(err.value)


def test_uniform_density_moments():
    # nodes land exactly on +-1, so the sampled indicator is a discrete
    # uniform over 501 cells; its variance converges to 1/3 at O(spacing^2)
    g = GridGeometry(half_width=3.0, n_points=1501)
    w = np.where(np.abs(g.nodes()) <= 1.0, 1.0, 0.0)
    theta = BeliefGrid(g, w / float(g.cell_widths() @ w))
    assert mean(theta) == pytest.approx(0.0, abs=1e-12)
    assert variance(theta) == pytest.approx(UNIFORM_VAR, abs=2e-3)


def test_narrow_gaussian_variance_tracks_closed_form():
    theta = gaussian_grid(0.0, 0.04, GridGeometry(half_width=12.0, n_points=4801))
    assert variance(theta) == pytest.approx(0.04, rel=1e-3)


def test_outward_mass_and_quantile_inverse():
    theta = gaussian_grid(0.0, 1.0, GridGeometry(half_width=12.0, n_points=2401))
    r = outward_quantile(theta, 0.5)
    assert r == pytest.approx(HALF_MASS_RADIUS, abs=theta.spacing)
    for m in (0.9, 0.5, 0.1, 0.01):
        assert outward_mass(theta, outward_quantile(theta, m)) == pytest.approx(m, abs=1e-12)
    assert outward_quantile(theta, 0.0) == theta.half_width


def test_action_function_enforcement():
    with pytest.raises(GridGeometryError):
        constant_action(3.0, ACTS, GEOM)  # 3 is not a level
    with pytest.raises(GridGeometryError):
        constant_action(0.0, ACTS, GEOM)  # violates saturation
    a = constant_action(0.0, ACTS, GEOM, enforce=False)
    assert not a.saturated
    assert constant_action(4.0, ACTS, GEOM).saturated


def test_banded_action_samples_higher_level_at_switch():
    a = banded_action([1.0, 2.5], [0.0, 2.0, 4.0], ACTS, GEOM)
    assert a.value_at(0.99) == 0.0
    assert a.value_at(1.0) == 2.0
    assert a.value_at(-2.5) == 4.0
    assert a.value_at(100.0) == 4.0


def test_success_prob_zero_inside_saturation():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    sleep = banded_action([6.0], [0.0, 4.0], ACTS, GEOM)
    # tail mass beyond 6 sigma is ~2e-9, so the forced band contributes ~nothing
    assert success_prob(theta, 2.0, sleep, EXP) < 1e-8


def test_success_prob_certain_reception():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    step = ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
    a = constant_action(4.0, ACTS, GEOM)
    assert success_prob(theta, 0.3, a, step) == pytest.approx(1.0, abs=1e-12)


def test_success_prob_matches_quadrature_oracle():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    a = banded_action([1.0], [0.0, 4.0], ActionSet((0.0, 4.0), 6.0), GEOM)
    phi = success_prob(theta, 1.3, a, EXP)
    assert phi == pytest.approx(success_prob_oracle(theta, 1.3, a, EXP), abs=1e-9)


def test_post_failure_neutral_for_constant_actions():
    theta = mixture(GEOM, [-1.0, 2.0], [0.8, 1.1])
    silent = constant_action(0.0, ACTS, GEOM, enforce=False)
    assert np.max(np.abs(post_failure(theta, 2.0, silent, EXP).weights - theta.weights)) <= 1e-12
    steady = constant_action(2.0, ACTS, GEOM, enforce=False)
    assert np.max(np.abs(post_failure(theta, 2.0, steady, EXP).weights - theta.weights)) <= 1e-12


def test_post_failure_truncates_under_certain_outer_reception():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    step = ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
    a = banded_action([1.0], [0.0, 4.0], ActionSet((0.0, 4.0), 6.0), GEOM)
    got = post_failure(theta, 1.0, a, step)

    lo = np.maximum(theta.nodes - 0.5 * theta.spacing, -theta.half_width)
    hi = np.minimum(theta.nodes + 0.5 * theta.spacing, theta.half_width)
    survive = np.maximum(np.minimum(hi, 1.0) - np.maximum(lo, -1.0), 0.0)
    expected = theta.weights * survive / theta.geometry.cell_widths()
    expected /= float(theta.geometry.cell_widths() @ expected)
    assert np.max(np.abs(got.weights - expected)) <= 1e-12


def test_post_failure_rejects_degenerate_success():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    step = ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
    with pytest.raises(DegenerateSuccessError):
        post_failure(theta, 1.0, constant_action(4.0, ACTS, GEOM), step)


def test_propagate_success_resets_to_noise_belief():
    theta = mixture(GEOM, [2.0], [1.4])
    a = constant_action(4.0, ACTS, GEOM)
    out = propagate(theta, 0.5, a, 1, PROCESS, EXP)
    assert np.array_equal(out.weights, gaussian_grid(0.0, 1.0, GEOM).weights)


def test_propagate_gaussian_closure():
    spec_geom = GridGeometry(half_width=30.0, n_points=2001)
    acts = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=12.0)
    theta = gaussian_grid(0.0, 1.0, spec_geom)
    out = propagate(theta, 2.0, constant_action(2.0, acts, spec_geom, enforce=False),
                    0, PROCESS, EXP)
    target = gaussian_grid(0.0, 2.44, spec_geom)
    assert np.max(np.abs(out.weights - target.weights)) <= 1e-3
    assert variance(out) == pytest.approx(2.44, abs=1e-3)


def test_propagate_fft_matches_direct():
    direct = GridGeometry(half_width=12.0, n_points=601, convolution="direct")
    fft = GridGeometry(half_width=12.0, n_points=601, convolution="fft")
    for g in (direct, fft):
        assert g.spacing == direct.spacing
    theta_d = mixture(direct, [-2.0, 1.0], [0.7, 1.2])
    theta_f = BeliefGrid(fft, theta_d.weights)
    acts = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0)
    a_d = banded_action([0.8, 2.0], [0.0, 2.0, 4.0], acts, direct)
    a_f = banded_action([0.8, 2.0], [0.0, 2.0, 4.0], acts, fft)
    out_d = propagate(theta_d, 0.5, a_d, 0, PROCESS, EXP)
    out_f = propagate(theta_f, 0.5, a_f, 0, PROCESS, EXP)
    assert np.max(np.abs(out_d.weights - out_f.weights)) <= 1e-10


def test_propagate_preserves_symmetry():
    theta = mixture(GEOM, [-2.0, 2.0], [0.9, 0.9])  # even by construction
    a = banded_action([1.5], [0.0, 4.0], ActionSet((0.0, 4.0), 6.0), GEOM)
    for belief in (post_failure(theta, 1.0, a, EXP), propagate(theta, 1.0, a, 0, PROCESS, EXP)):
        assert np.max(np.abs(belief.weights - belief.weights[::-1])) <= 1e-10
        assert belief.integral() == pytest.approx(1.0, abs=1e-9)


def test_propagate_flags_support_overflow():
    theta = gaussian_grid(0.0, 4.0, GEOM)
    wild = ScalarProcess(a=2.0, noise_var=1.0)
    with pytest.raises(SupportOverflowError) as err:
        propagate(theta, 0.5, constant_action(4.0, ACTS, GEOM), 0, wild, EXP)
    assert "escaped" in str(err.value)


def test_stage_cost_reduces_to_variance_without_power():
    theta = mixture(GEOM, [-1.0, 1.5], [0.6, 1.0])
    silent = constant_action(0.0, ACTS, GEOM, enforce=False)
    cost = stage_cost(theta, 2.0, silent, EXP, CostWeights(alpha=0.0))
    assert cost == pytest.approx(variance(theta), abs=1e-12)


def test_stage_cost_pure_power_under_certain_reception():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    step = ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
    a = constant_action(4.0, ACTS, GEOM)
    assert stage_cost(theta, 1.0, a, step, CostWeights(alpha=0.5)) == pytest.approx(2.0, abs=1e-9)
    assert expected_power(theta, a) == pytest.approx(4.0, abs=1e-9)


def test_stage_cost_matches_quadrature_oracle():
    weights = CostWeights(alpha=0.5)
    theta_even = gaussian_grid(0.0, 1.3, GEOM)
    theta_skew = mixture(GEOM, [-0.8, 1.7], [0.7, 1.2], weights=[0.65, 0.35])
    a = banded_action([0.7, 1.8, 3.2], [0.0, 1.0, 2.0, 4.0], ACTS, GEOM)
    for theta in (theta_even, theta_skew):
        got = stage_cost(theta, 0.8, a, EXP, weights)
        want = stage_cost_oracle(theta, 0.8, a, EXP, weights.alpha)
        assert got == pytest.approx(want, abs=1e-6)
        phi = success_prob(theta, 0.8, a, EXP)
        assert phi == pytest.approx(success_prob_oracle(theta, 0.8, a, EXP), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    center=st.floats(-2.5, 2.5),
    sigma=st.floats(0.5, 1.3),
    r1=st.floats(0.2, 5.0),
    r2=st.floats(0.2, 5.0),
    gain=st.floats(0.3, 3.0),
)
def test_conditioning_conserves_mass(center, sigma, r1, r2, gain):
    """post_failure and propagate keep the density normalized."""
    theta = gaussian_grid(center, sigma**2, GEOM)
    lo, hi = sorted((r1, r2))
    a = banded_action([lo, hi], [0.0, 2.0, 4.0],
                      ActionSet((0.0, 2.0, 4.0), 6.0), GEOM)
    after_fail = post_failure(theta, gain, a, EXP)
    assert after_fail.integral() == pytest.approx(1.0, abs=1e-9)
    moved = propagate(theta, gain, a, 0, PROCESS, EXP)
    assert moved.integral() == pytest.approx(1.0, abs=1e-9)
    assert np.all(moved.weights >= 0.0)


@pytest.mark.parametrize(
    "radii, gain",
    [
        ((0.012, 2.0, 4.5), 1.3),  # first switch inside the centre cell: dx / 2 = 0.02
        ((0.01, 0.01, 0.35), 3.0),  # q(u_max, 3) = 1 - 6e-6: failures come from the core
        ((0.5, 2.0, 3.0), 3.0),
    ],
)
def test_banded_operators_match_piecewise_oracles(radii, gain):
    theta = mixture(GEOM, [-1.5, 0.8], [1.2, 2.5], np.array([0.4, 0.6]))
    rule = banded_action(np.array(radii), np.array(ACTS.levels), ACTS, GEOM)
    weights = CostWeights(alpha=0.7)
    assert success_prob(theta, gain, rule, EXP) == pytest.approx(
        success_prob_oracle(theta, gain, rule, EXP), abs=1e-12
    )
    assert stage_cost(theta, gain, rule, EXP, weights) == pytest.approx(
        stage_cost_oracle(theta, gain, rule, EXP, weights.alpha), abs=1e-12
    )
    got = post_failure(theta, gain, rule, EXP).weights
    assert np.max(np.abs(got - post_failure_oracle(theta, gain, rule, EXP))) <= 1e-12


FFT_GEOM = GridGeometry(half_width=12.0, n_points=601, convolution="fft")


def _fft_rules():
    banded = banded_action([0.8, 2.0, 3.5], [0.0, 1.0, 2.0, 4.0], ACTS, FFT_GEOM)
    node = ActionFunction(banded.values, ACTS, FFT_GEOM)
    return {"node": node, "banded": banded}


@pytest.mark.parametrize("a", [1.2, -1.2])
@pytest.mark.parametrize("shape", ["node", "banded"])
def test_propagate_fft_equals_fftconvolve_exactly(a, shape):
    theta = mixture(FFT_GEOM, [-2.0, 1.0], [0.7, 1.2], np.array([0.3, 0.7]))
    process = ScalarProcess(a=a, noise_var=1.0)
    rule = _fft_rules()[shape]
    got = propagate(theta, 0.5, rule, 0, process, EXP).weights
    assert np.array_equal(got, propagate_fftconvolve(theta, 0.5, rule, process, EXP))


def test_noise_kernel_is_kept_per_noise_variance():
    """One geometry, two noise variances, queried in turn: each propagation
    matches its own fresh convolution."""
    theta = mixture(FFT_GEOM, [-1.0, 1.5], [0.8, 1.0])
    rule = _fft_rules()["node"]
    outs = {}
    for W in (1.0, 0.25, 1.0, 0.25):
        process = ScalarProcess(a=1.2, noise_var=W)
        got = propagate(theta, 2.0, rule, 0, process, EXP).weights
        assert np.array_equal(got, propagate_fftconvolve(theta, 2.0, rule, process, EXP))
        outs[W] = got
    assert not np.array_equal(outs[1.0], outs[0.25])


def test_cached_grid_arrays_are_read_only():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    with pytest.raises(ValueError):
        theta.nodes[0] = 0.0
    fresh = GEOM.nodes()
    fresh[0] = 0.0  # the public accessors still hand out private copies
    widths = GEOM.cell_widths()
    widths[0] = 0.0
    assert gaussian_grid(0.0, 1.0, GEOM).nodes[0] == -GEOM.half_width
    assert gaussian_grid(0.0, 1.0, GEOM).integral() == pytest.approx(1.0, abs=1e-12)


def test_one_rule_at_both_gains_matches_fresh_reception():
    """A rule keeps its success vector per gain; asking at one gain must not
    answer for the other."""
    theta = mixture(GEOM, [-1.0, 2.0], [0.8, 1.1])
    rule = ActionFunction(
        banded_action([0.5, 1.5, 3.0], [0.0, 1.0, 2.0, 4.0], ACTS, GEOM).values, ACTS, GEOM
    )
    for gain in (0.5, 2.0, 0.5, 2.0):
        q = reception_prob(EXP, rule.values, gain)
        want = min(max(float(theta.cell_masses() @ q), 0.0), 1.0)
        assert success_prob(theta, gain, rule, EXP) == want
        fail = (1.0 - q) * theta.weights
        want_w = fail / float(theta.cell_masses() @ (1.0 - q))
        assert np.max(np.abs(post_failure(theta, gain, rule, EXP).weights - want_w)) <= 1e-12
