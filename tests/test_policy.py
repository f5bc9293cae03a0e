"""Threshold rules, structural checks, canonicalization, and policy containers."""

import json

import numpy as np
import pytest

from remotepower import (
    ActionFunction,
    ActionSet,
    GridGeometry,
    GridGeometryError,
    PolicyDomainError,
    PowerPolicy,
    ThresholdAction,
    canonicalize,
    check_symmetric_monotone,
    constant_action,
    expected_power,
    extract_threshold_action,
    gaussian_grid,
    max_power_action,
    on_off_action,
    random_relation_pair,
    snap_thresholds,
    success_prob,
    symmetric_decreasing_rearrangement,
    threshold_grid,
)
from remotepower.model import ReceptionModel
from remotepower.rearrange import outward_quantile

GEOM = GridGeometry(half_width=12.0, n_points=601, convolution="direct")
ACTS = ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0)
EXP = ReceptionModel(form="exponential", scale=1.0)


def test_threshold_action_level_lookup():
    rule = ThresholdAction((1.0, 2.5, 4.0))
    cases = [(0.5, 0.0), (1.0, 1.0), (1.5, 1.0), (2.5, 2.0), (3.0, 2.0), (4.0, 4.0), (5.0, 4.0)]
    for e, want in cases:
        assert rule.level_at(e, ACTS) == want
        assert rule.level_at(-e, ACTS) == want


def test_threshold_action_validation():
    with pytest.raises(ValueError):
        ThresholdAction((-0.1, 1.0, 2.0))
    with pytest.raises(ValueError):
        ThresholdAction((2.0, 1.0, 3.0))
    with pytest.raises(ValueError):
        ThresholdAction((1.0,)).as_action(GEOM, ACTS)  # needs 3 thresholds
    with pytest.raises(ValueError):
        ThresholdAction((1.0, 2.0, 6.5)).as_action(GEOM, ACTS)  # past saturation


def test_threshold_action_expansion():
    rule = ThresholdAction((1.0, 2.5, 4.0))
    action = rule.as_action(GEOM, ACTS)
    m = GEOM.n_points // 2
    right_nodes = GEOM.nodes()[m:]
    assert np.array_equal(action.values[m:], [rule.level_at(x, ACTS) for x in right_nodes])
    assert check_symmetric_monotone(action).ok

    banded = rule.as_action(GEOM, ACTS, banded=True)
    assert np.array_equal(banded.bands[0], np.array([1.0, 2.5, 4.0]))
    for e, want in [(0.5, 0.0), (1.0, 1.0), (2.5, 2.0), (5.0, 4.0)]:
        assert banded.value_at(e) == want


def test_baseline_rules():
    assert max_power_action(ACTS).thresholds == (0.0, 0.0, 0.0)
    assert max_power_action(ACTS).level_at(0.0, ACTS) == 4.0
    rule = on_off_action(2.0, ACTS)
    assert rule.level_at(1.9, ACTS) == 0.0
    assert rule.level_at(2.0, ACTS) == 4.0


def test_threshold_grid_is_uniform():
    grid = threshold_grid(6.0)
    assert np.array_equal(grid, np.linspace(0.0, 6.0, 21))
    assert np.array_equal(threshold_grid(6.0, 5), np.array([0.0, 1.5, 3.0, 4.5, 6.0]))
    with pytest.raises(ValueError):
        threshold_grid(6.0, 1)


def test_snap_thresholds():
    grid = threshold_grid(6.0)  # step 0.3
    snapped = snap_thresholds(ThresholdAction((1.01, 1.16, 2.0)), grid)
    assert snapped.thresholds == (grid[3], grid[4], grid[7])
    assert snapped.thresholds == pytest.approx((0.9, 1.2, 2.1))
    # ties resolve to the smaller grid point
    assert snap_thresholds(ThresholdAction((0.15, 0.15, 0.15)), grid).thresholds == (0.0, 0.0, 0.0)


def test_check_symmetric_monotone_flags_violations():
    nodes = GEOM.nodes()
    half_line = ActionFunction(np.where(nodes > 0, 4.0, 0.0), ACTS, GEOM, enforce=False)
    report = check_symmetric_monotone(half_line)
    assert not report
    assert report.reason == "asymmetric at mirrored nodes"
    assert isinstance(report.node_index, int)

    dip = np.where((np.abs(nodes) >= 2.0) & (np.abs(nodes) <= 3.0), 0.0, 4.0)
    report = check_symmetric_monotone(ActionFunction(dip, ACTS, GEOM, enforce=False))
    assert not report
    assert report.reason == "power level decreases outward"


def test_extract_threshold_action_round_trip():
    rule = ThresholdAction((1.0, 2.5, 4.0))
    values = rule.as_action(GEOM, ACTS).values
    fitted = extract_threshold_action(values, GEOM, ACTS)
    assert fitted is not None
    assert np.array_equal(fitted.as_action(GEOM, ACTS).values, values)

    nodes = GEOM.nodes()
    assert extract_threshold_action(np.where(nodes > 0, 4.0, 0.0), GEOM, ACTS) is None
    dip = np.where((np.abs(nodes) >= 2.0) & (np.abs(nodes) <= 3.0), 0.0, 4.0)
    assert extract_threshold_action(dip, GEOM, ACTS) is None


def test_canonicalize_fixes_boundary_aligned_rule():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    rule = ThresholdAction((0.82, 1.70, 2.90))  # radii on cell boundaries
    out = canonicalize(rule.as_action(GEOM, ACTS), theta)
    assert out.thresholds == pytest.approx((0.82, 1.70, 2.90), abs=1e-12)


def test_canonicalize_half_line_uses_outward_quantile():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    acts = ActionSet(levels=(0.0, 4.0), saturation_radius=6.0)
    vals = np.where(GEOM.nodes() > 0.0, 4.0, 0.0)
    out = canonicalize(ActionFunction(vals, acts, GEOM, enforce=False), theta)
    transmitting = float(theta.cell_masses()[GEOM.nodes() > 0.0].sum())
    theta_hat = symmetric_decreasing_rearrangement(theta)
    assert out.thresholds[0] == pytest.approx(outward_quantile(theta_hat, transmitting), abs=1e-12)


def test_canonicalize_constant_rule():
    theta = gaussian_grid(0.0, 1.0, GEOM)
    out = canonicalize(constant_action(2.0, ACTS, GEOM, enforce=False), theta)
    assert out.thresholds == (0.0, 0.0, 6.0)


def test_canonicalize_preserves_functionals(rng):
    levels = np.asarray(ACTS.levels)
    for _ in range(5):
        theta, theta_hat = random_relation_pair(GEOM, rng, max_radius=6.0)
        vals = levels[rng.integers(0, len(levels), size=GEOM.n_points)]
        scrambled = ActionFunction(vals, ACTS, GEOM, enforce=False)
        canon = canonicalize(scrambled, theta)
        sigma = canon.as_action(GEOM, ACTS, banded=True)
        assert check_symmetric_monotone(canon.as_action(GEOM, ACTS)).ok
        assert expected_power(theta_hat, sigma) == pytest.approx(
            expected_power(theta, scrambled), abs=1e-9
        )
        for gain in (0.5, 2.0):
            assert success_prob(theta_hat, gain, sigma, EXP) == pytest.approx(
                success_prob(theta, gain, scrambled, EXP), abs=1e-9
            )


def test_policy_baselines():
    pol = PowerPolicy.max_power(ACTS, GEOM)
    assert pol.rule_for((0,), 1) == max_power_action(ACTS)
    assert np.all(pol.action_of((0, 1), 0).values == 4.0)
    assert pol.is_threshold_only()

    quiet = PowerPolicy.constant(0.0, ACTS, GEOM)
    assert not quiet.enforce
    assert np.all(quiet.action_of((0,), 0).values == 0.0)
    assert not quiet.is_threshold_only()

    loud = PowerPolicy.constant(4.0, ACTS, GEOM)
    assert loud.enforce

    gate = PowerPolicy.on_off(2.0, ACTS, GEOM)
    assert gate.rule_for((0, 0, 0), 1) == on_off_action(2.0, ACTS)
    assert gate.is_threshold_only()


def test_policy_lookup_and_domain_error():
    rules = {((0,), 0): ThresholdAction((1.2, 1.2, 3.0))}
    pol = PowerPolicy.from_rules(rules, ACTS, GEOM)
    assert pol.mode == "threshold"
    assert pol.rule_for((0,), 0).thresholds == (1.2, 1.2, 3.0)
    with pytest.raises(PolicyDomainError):
        pol.rule_for((0, 1), 1)

    shared = PowerPolicy.uniform(ThresholdAction((0.9, 0.9, 0.9)), ACTS, GEOM)
    assert shared.rule_for((0, 1, 0), 1).thresholds == (0.9, 0.9, 0.9)


def test_policy_serialization_round_trip():
    table = np.where(np.abs(GEOM.nodes()) >= 1.0, 4.0, 0.0)
    rules = {
        ((0,), 0): ThresholdAction((1.2, 1.2, 3.0)),
        ((0, 1), 1): table,
    }
    pol = PowerPolicy.from_rules(rules, ACTS, GEOM)
    assert pol.mode == "tabular"
    blob = json.dumps(pol.to_dict())
    back = PowerPolicy.from_dict(json.loads(blob), ACTS, GEOM)
    assert back.mode == "tabular"
    assert back.rule_for((0,), 0) == ThresholdAction((1.2, 1.2, 3.0))
    assert np.array_equal(back.rule_for((0, 1), 1), table)

    with pytest.raises(ValueError):
        PowerPolicy.from_dict(
            json.loads(blob), ActionSet(levels=(0.0, 4.0), saturation_radius=6.0), GEOM
        )


def test_threshold_action_refuses_nan_and_keeps_infinite_thresholds():
    for thresholds in ((float("nan"),), (1.0, float("nan"), 3.0), (1.0, 2.0, float("nan"))):
        with pytest.raises(GridGeometryError, match="thresholds"):
            ThresholdAction(thresholds)
    # an infinite threshold still builds: the level below it never ends
    assert ThresholdAction((1.0, float("inf"), float("inf"))).level_at(1e300, ACTS) == 1.0


@pytest.mark.parametrize("make", [
    lambda: PowerPolicy.max_power(ACTS, GEOM),
    lambda: PowerPolicy.on_off(2.0, ACTS, GEOM),
    lambda: PowerPolicy.constant(0.0, ACTS, GEOM),
    lambda: PowerPolicy.constant(4.0, ACTS, GEOM),
], ids=["max_power", "on_off", "constant-0", "constant-4"])
def test_a_baseline_is_its_one_rule_at_every_state(make):
    pol = make()
    assert pol.rule_for((0,), 1) is pol.rule_for((0, 1, 0), 0)
    # the file names the rule by baseline and baseline_param alone
    assert pol.to_dict()["default"] is None
    back = PowerPolicy.from_dict(json.loads(json.dumps(pol.to_dict())), ACTS, GEOM)
    assert back.to_dict() == pol.to_dict()
