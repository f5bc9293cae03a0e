"""Rollout mechanics: seeding, estimators, traces, and agreement with the chain."""

import csv
import logging
import math

import numpy as np
import pytest

from remotepower import (
    GridGeometry,
    PowerPolicy,
    ScalarProcess,
    build_chain,
    error_growth_windows,
    estimate_belief_mean,
    estimate_closed_form,
    evaluate_policy,
    gaussian_grid,
    replicate,
    simulate,
    success_prob,
)
from test_solver import certain_reception_problem


def test_closed_form_estimate_powers_the_last_reception():
    process = ScalarProcess(a=1.2, noise_var=1.0)
    assert estimate_closed_form(process, 5.0, 0) == 5.0
    assert estimate_closed_form(process, 5.0, 1) == pytest.approx(6.0, rel=1e-12)
    assert estimate_closed_form(process, 5.0, 2) == pytest.approx(7.2, rel=1e-12)
    assert estimate_belief_mean(process, 5.0, 1, 0.25) == pytest.approx(6.25, rel=1e-12)


def test_simulate_validates_arguments(tiny_problem, tiny_geometry):
    policy = PowerPolicy.max_power(tiny_problem.actions, tiny_geometry)
    with pytest.raises(ValueError):
        simulate(tiny_problem, tiny_geometry, policy, "mean", 100, 1)
    with pytest.raises(ValueError):
        simulate(tiny_problem, tiny_geometry, policy, "closed_form", 0, 1)
    with pytest.raises(ValueError):
        replicate(tiny_problem, tiny_geometry, policy, 0, 100, 1)


def test_same_seed_same_metrics(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    a = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 3000, 42, depth=4)
    b = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 3000, 42, depth=4)
    assert a.to_dict() == b.to_dict()
    c = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 3000, 42,
                 depth=4, replication=1)
    assert c.avg_cost != a.avg_cost


def test_deterministic_success_loop():
    problem = certain_reception_problem()
    geometry = GridGeometry(half_width=20.0, n_points=401)
    policy = PowerPolicy.max_power(problem.actions, geometry)
    m = simulate(problem, geometry, policy, "closed_form", 500, 7, depth=3)
    assert m.success_rate == 1.0
    assert m.avg_power == 4.0
    assert m.avg_error == 0.0
    assert m.avg_cost == 2.0
    assert m.tail_fraction == 0.0
    assert m.gain_occupancy == [1.0]
    assert m.root_attempts == [500]
    assert m.root_successes == [500]

    summary = replicate(problem, geometry, policy, 3, 500, 7, depth=3)
    assert summary.costs == [2.0, 2.0, 2.0]
    assert summary.cost_se == 0.0


def test_window_averages_partition_the_error(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    m = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 2000, 3,
                 depth=4, window=500)
    assert len(m.error_windows) == 4
    assert np.mean(m.error_windows) == pytest.approx(m.avg_error, rel=1e-12)


def test_rollout_tracks_chain_average(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=8)
    rho = evaluate_policy(chain, tiny_problem.cost).rho
    summary = replicate(tiny_problem, tiny_geometry, policy, 6, 150_000, 20250817, depth=8)
    assert abs(summary.cost_mean - rho) <= max(5.0 * summary.cost_se, 5e-3)


def test_root_successes_are_binomial_with_chain_probability(canon_problem, canon_geometry):
    policy = PowerPolicy.max_power(canon_problem.actions, canon_geometry)
    m = simulate(canon_problem, canon_geometry, policy, "closed_form", 100_000, 11, depth=6)
    root = gaussian_grid(0.0, canon_problem.process.noise_var, canon_geometry)
    action = policy.action_of((), 0)
    for g, gain in enumerate(canon_problem.channel.gains):
        p = success_prob(root, gain, action, canon_problem.reception)
        att = m.root_attempts[g]
        assert att > 1000
        se = math.sqrt(p * (1.0 - p) / att)
        assert abs(m.root_successes[g] / att - p) <= 3.0 * se


def test_gain_occupancy_approaches_stationary_law(canon_problem, canon_geometry):
    policy = PowerPolicy.on_off(1.5, canon_problem.actions, canon_geometry)
    m = simulate(canon_problem, canon_geometry, policy, "closed_form", 200_000, 5, depth=6)
    assert abs(m.gain_occupancy[0] - 0.6) <= 0.01
    assert abs(m.gain_occupancy[1] - 0.4) <= 0.01


def test_estimator_modes_coincide_for_symmetric_rules(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    closed = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 5000, 9, depth=6)
    belief = simulate(tiny_problem, tiny_geometry, policy, "belief_mean", 5000, 9, depth=6)
    assert belief.max_estimator_gap is not None
    assert belief.max_estimator_gap <= 1e-8
    assert abs(belief.avg_cost - closed.avg_cost) <= 1e-8
    assert closed.max_estimator_gap is None


def test_estimator_modes_split_for_lopsided_rules(tiny_problem, tiny_geometry):
    # transmit only on the right: failures pile up on the left, the innovation
    # mean moves away from zero, and centering starts to matter
    lopsided = np.where(tiny_geometry.nodes() >= 1.0, 4.0, 0.0)
    policy = PowerPolicy.uniform(lopsided, tiny_problem.actions, tiny_geometry, enforce=False)
    closed = simulate(tiny_problem, tiny_geometry, policy, "closed_form", 50_000, 13, depth=6)
    belief = simulate(tiny_problem, tiny_geometry, policy, "belief_mean", 50_000, 13, depth=6)
    assert belief.max_estimator_gap > 10.0 * tiny_geometry.spacing ** 2
    assert belief.avg_error < closed.avg_error


def test_error_growth_windows_diverge_only_when_unstable():
    unstable = error_growth_windows(ScalarProcess(a=1.2, noise_var=1.0), 50_000, 10_000, 1)
    assert len(unstable) == 5
    assert all(b > a for a, b in zip(unstable, unstable[1:]))
    # consecutive windows should grow near the 2*log(a) per-step rate
    rate = (unstable[-1] - unstable[0]) / (4 * 10_000)
    assert rate == pytest.approx(2.0 * math.log(1.2), rel=0.05)

    stable = error_growth_windows(ScalarProcess(a=0.5, noise_var=1.0), 50_000, 10_000, 1)
    assert not all(b > a for a, b in zip(stable, stable[1:]))
    for w in stable:
        assert abs(w - math.log(4.0 / 3.0)) <= 0.2

    with pytest.raises(ValueError):
        error_growth_windows(ScalarProcess(a=-0.5, noise_var=1.0), 1000, 100, 1)


def test_error_growth_windows_are_pinned():
    # bit for bit, on the lfilter branch (a <= 1) and the rescaled-cumsum branch (a > 1)
    stable = error_growth_windows(ScalarProcess(a=0.5, noise_var=1.0), 50_000, 10_000, 1)
    assert stable == [0.24106961832313445, 0.28776440213625776, 0.25621579175623665,
                      0.27539516800140973, 0.30001883601541657]
    unstable = error_growth_windows(ScalarProcess(a=1.2, noise_var=1.0), 50_000, 10_000, 1)
    assert unstable == [3639.8441835122744, 7286.275319391366, 10932.70645527046,
                        14579.13759114955, 18225.56872702864]


@pytest.mark.parametrize("horizon, window", [(1000, 0), (1000, -5), (1000, 2.5), (1000, True),
                                             (99, 100)])
def test_error_growth_windows_need_a_window_within_the_horizon(horizon, window):
    with pytest.raises(ValueError, match="window"):
        error_growth_windows(ScalarProcess(a=0.5, noise_var=1.0), horizon, window, 1)


def test_trace_file_records_the_loop(tiny_problem, tiny_geometry, tmp_path):
    path = tmp_path / "trace.csv"
    policy = PowerPolicy.max_power(tiny_problem.actions, tiny_geometry)
    simulate(
        tiny_problem, tiny_geometry, policy, "closed_form", 60, 17, depth=4,
        trace_path=str(path), trace_comment=["setup: tiny", "seed: 17"],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "# setup: tiny"
    assert lines[1] == "# seed: 17"
    rows = list(csv.DictReader(lines[2:]))
    assert len(rows) == 60
    assert [int(r["k"]) for r in rows] == list(range(1, 61))
    for r in rows:
        x = float(r["x"])
        e = float(r["e"])
        u = float(r["u"])
        assert u == 4.0  # max-power policy
        assert float(r["h"]) == 1.0
        assert float(r["power_cost"]) == 0.5 * u
        assert r["gamma"] in ("0", "1")
        if r["gamma"] == "1":
            assert float(r["x_hat_closed"]) == x
            assert float(r["error_cost"]) == 0.0
        else:
            assert abs((x - float(r["x_hat_closed"])) - e) <= 1e-9
            assert float(r["error_cost"]) == pytest.approx(e * e, rel=1e-12)
        # closed-form runs still fill the belief column, with a zero shift
        assert r["x_hat_belief"] == r["x_hat_closed"]


def test_replication_summary_is_thread_count_invariant(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    serial = replicate(tiny_problem, tiny_geometry, policy, 4, 2000, 99, threads=1, depth=4)
    pooled = replicate(tiny_problem, tiny_geometry, policy, 4, 2000, 99, threads=2, depth=4)
    assert serial.to_dict() == pooled.to_dict()


def test_belief_mean_replications_share_one_tree(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    kwargs = dict(estimator_mode="belief_mean", depth=4)
    serial = replicate(tiny_problem, tiny_geometry, policy, 3, 2000, 99, threads=1, **kwargs)
    pooled = replicate(tiny_problem, tiny_geometry, policy, 3, 2000, 99, threads=2, **kwargs)
    assert serial.to_dict() == pooled.to_dict()
    for r, m in enumerate(serial.per_replication):
        alone = simulate(tiny_problem, tiny_geometry, policy, "belief_mean", 2000, 99,
                         depth=4, replication=r)
        assert m.to_dict() == alone.to_dict()


def test_propagation_failure_is_logged_once_at_its_history(tiny_problem, tiny_geometry,
                                                           caplog):
    # the lopsided rule drives the belief off the grid five failures deep
    lopsided = np.where(tiny_geometry.nodes() >= 1.0, 4.0, 0.0)
    policy = PowerPolicy.uniform(lopsided, tiny_problem.actions, tiny_geometry, enforce=False)
    with caplog.at_level(logging.WARNING, logger="remotepower.simulator"):
        simulate(tiny_problem, tiny_geometry, policy, "belief_mean", 50_000, 13, depth=6)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "failure history (0, 0, 0, 0, 0) " in warnings[0]


@pytest.mark.parametrize("mode", ["closed_form", "belief_mean"])
def test_off_level_rule_transmits_its_own_power(tiny_problem, tiny_geometry, mode):
    # 1.5 is no power level: the rollout must send 1.5, as the chain
    # evaluates the rule, and full power (4.0) only at the depth cap
    policy = PowerPolicy.constant(1.5, tiny_problem.actions, tiny_geometry)
    m = simulate(tiny_problem, tiny_geometry, policy, mode, 20_000, 3, depth=3)
    assert m.tail_fraction > 0.0
    assert m.avg_power == pytest.approx(1.5 + 2.5 * m.tail_fraction, rel=1e-12)


@pytest.mark.parametrize("window", [0, -5, 2.5, True])
def test_window_must_be_a_positive_integer(tiny_problem, tiny_geometry, window):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    with pytest.raises(ValueError, match="window"):
        simulate(tiny_problem, tiny_geometry, policy, "closed_form", 100, 1, depth=3,
                 window=window)
    with pytest.raises(ValueError, match="window"):
        replicate(tiny_problem, tiny_geometry, policy, 2, 100, 1, depth=3, window=window)


@pytest.mark.parametrize("threads", [0, -2])
def test_thread_count_must_be_positive(tiny_problem, tiny_geometry, threads):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    with pytest.raises(ValueError, match="threads"):
        replicate(tiny_problem, tiny_geometry, policy, 2, 100, 1, depth=3, threads=threads)
