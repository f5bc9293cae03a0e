"""Unfolded failure chain, exact evaluation, improvement sweeps, and the solvers."""

import dataclasses

import numpy as np
import pytest

from conftest import make_tiny_problem
from oracles import (
    backward_induction_values,
    q_of,
    reachable_states_dfs,
    structure_witness_per_state,
    three_state_average_cost,
)
from remotepower import (
    ActionSet,
    ChainStructureError,
    ControlProblem,
    CostWeights,
    FadingChannel,
    GridGeometry,
    PowerPolicy,
    ReceptionModel,
    ScalarProcess,
    SupportOverflowError,
    ThresholdAction,
    build_chain,
    canonicalize,
    discounted_policy_values,
    evaluate_policy,
    gaussian_grid,
    improve_policy,
    on_off_action,
    propagate,
    post_failure,
    solve,
    solve_discounted,
    state_action_value,
    structure_witness,
    threshold_grid,
    variance,
    verify_structure,
)
from remotepower.solver import (
    CENTER_SNAP_TOL,
    _greedy_states,
    _improve_state_tabular,
    _reachable_states,
    _rules_signature,
    _success_table,
)


def certain_reception_problem(alpha=0.5):
    return ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0,), transition=((1.0,),)),
        reception=ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=alpha),
    )


def test_chain_shape_depth1(tiny_problem, tiny_geometry):
    policy = PowerPolicy.max_power(tiny_problem.actions, tiny_geometry)
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=1)
    assert chain.nodes == [(), (0,)]
    assert chain.n_states == 2
    assert list(chain.tail_mask) == [False, True]
    assert chain.child[0, 0] == 1
    assert chain.child[1, 0] == 1  # tail failure self-loops
    with pytest.raises(ValueError):
        build_chain(tiny_problem, tiny_geometry, policy, depth=0)


def test_chain_full_history_tree(canon_problem, canon_geometry):
    policy = PowerPolicy.max_power(canon_problem.actions, canon_geometry)
    chain = build_chain(canon_problem, canon_geometry, policy, depth=3)
    G = canon_problem.channel.n_gains
    assert chain.n_nodes == (G ** 4 - 1) // (G - 1) == 15
    assert chain.n_nodes <= G ** 4
    assert int(chain.tail_mask.sum()) == G ** 3
    assert chain.n_states == 30
    assert not chain.virtual_mask.any()


def test_chain_root_belief_is_noise_law(tiny_problem, tiny_geometry):
    policy = PowerPolicy.max_power(tiny_problem.actions, tiny_geometry)
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=1)
    target = gaussian_grid(0.0, tiny_problem.process.noise_var, tiny_geometry)
    assert np.array_equal(chain.beliefs[0].weights, target.weights)


def test_chain_children_follow_belief_recursion(canon_problem, canon_geometry):
    policy = PowerPolicy.uniform(
        on_off_action(1.5, canon_problem.actions), canon_problem.actions, canon_geometry
    )
    chain = build_chain(canon_problem, canon_geometry, policy, depth=2)
    root = chain.beliefs[0]
    for g, gain in enumerate(canon_problem.channel.gains):
        manual = propagate(
            root, gain, policy.action_of((), g), 0,
            canon_problem.process, canon_problem.reception,
        )
        assert np.array_equal(chain.beliefs[chain.node_index[(g,)]].weights, manual.weights)
    theta1 = chain.beliefs[chain.node_index[(0,)]]
    manual = propagate(
        theta1, canon_problem.channel.gains[1], policy.action_of((0,), 1), 0,
        canon_problem.process, canon_problem.reception,
    )
    assert np.array_equal(chain.beliefs[chain.node_index[(0, 1)]].weights, manual.weights)


def test_chain_overflow_names_the_history(tiny_problem, tiny_geometry):
    # the lopsided rule drives the belief off the grid five failures deep
    lopsided = np.where(tiny_geometry.nodes() >= 1.0, 4.0, 0.0)
    policy = PowerPolicy.uniform(lopsided, tiny_problem.actions, tiny_geometry, enforce=False)
    build_chain(tiny_problem, tiny_geometry, policy, depth=4)
    history = r"failure history \(0, 0, 0, 0, 0\) overflowed"
    with pytest.raises(SupportOverflowError, match=history):
        build_chain(tiny_problem, tiny_geometry, policy, depth=6)


def test_chain_variance_recursion(canon_problem, canon_geometry):
    policy = PowerPolicy.uniform(
        on_off_action(1.5, canon_problem.actions), canon_problem.actions, canon_geometry
    )
    chain = build_chain(canon_problem, canon_geometry, policy, depth=1)
    a2 = canon_problem.process.a ** 2
    W = canon_problem.process.noise_var
    for g, gain in enumerate(canon_problem.channel.gains):
        conditioned = post_failure(
            chain.beliefs[0], gain, policy.action_of((), g), canon_problem.reception
        )
        want = a2 * variance(conditioned) + W
        assert variance(chain.beliefs[chain.node_index[(g,)]]) == pytest.approx(want, abs=1e-3)


def test_chain_transition_structure(tiny_problem, tiny_geometry):
    policy = PowerPolicy.from_rules(
        {
            ((), 0): on_off_action(2.0, tiny_problem.actions),
            ((0,), 0): on_off_action(1.0, tiny_problem.actions),
        },
        tiny_problem.actions,
        tiny_geometry,
    )
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=2)
    phi = chain.phi
    expected = np.array(
        [
            [phi[0], 1.0 - phi[0], 0.0],
            [phi[1], 0.0, 1.0 - phi[1]],
            [phi[2], 0.0, 1.0 - phi[2]],
        ]
    )
    assert np.array_equal(chain.P.toarray(), expected)

    # canonical two-gain rows also sum to one exactly
    canon_rows = np.asarray(chain.P.sum(axis=1)).ravel()
    assert np.max(np.abs(canon_rows - 1.0)) <= 1e-12


def test_evaluate_certain_reception_max_power():
    problem = certain_reception_problem()
    geometry = GridGeometry(half_width=20.0, n_points=401)
    policy = PowerPolicy.max_power(problem.actions, geometry)
    chain = build_chain(problem, geometry, policy, depth=2)
    ev = evaluate_policy(chain, problem.cost)
    assert ev.rho == pytest.approx(2.0, abs=1e-12)  # alpha * u_max
    assert ev.success_rate == pytest.approx(1.0, abs=1e-12)
    assert ev.power_mean == pytest.approx(4.0, abs=1e-12)
    assert ev.error_mean == pytest.approx(0.0, abs=1e-15)
    assert ev.tail_occupancy == 0.0


def test_evaluate_matches_hand_balanced_three_state_loop(tiny_problem, tiny_geometry):
    policy = PowerPolicy.from_rules(
        {
            ((), 0): on_off_action(2.0, tiny_problem.actions),
            ((0,), 0): on_off_action(1.0, tiny_problem.actions),
        },
        tiny_problem.actions,
        tiny_geometry,
    )
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=2)
    ev = evaluate_policy(chain, tiny_problem.cost)
    want = three_state_average_cost(chain.phi, chain.stage_vector(tiny_problem.cost))
    assert ev.rho == pytest.approx(want, abs=1e-12)
    assert ev.residual <= 1e-9
    assert ev.occupancy.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build_policy", ["on_off", "silent"])
def test_alpha_enters_only_through_the_power_term(tiny_problem, tiny_geometry, build_policy):
    if build_policy == "on_off":
        policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    else:
        policy = PowerPolicy.constant(0.0, tiny_problem.actions, tiny_geometry)
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=2)
    lo = evaluate_policy(chain, CostWeights(alpha=0.5))
    hi = evaluate_policy(chain, CostWeights(alpha=1.0))
    assert hi.power_mean == lo.power_mean
    assert hi.error_mean == lo.error_mean
    assert hi.rho - lo.rho == pytest.approx(0.5 * lo.power_mean, rel=1e-12)
    # the depth cap transmits u_max, so even the silent policy pays for power
    assert lo.power_mean > 0.0


def test_evaluate_rejects_chain_that_never_succeeds(tiny_geometry):
    dead = dataclasses.replace(
        make_tiny_problem(), reception=ReceptionModel(form="on_off", on_level=5.0, on_prob=1.0)
    )
    policy = PowerPolicy.max_power(dead.actions, tiny_geometry)
    with pytest.warns(UserWarning):
        chain = build_chain(dead, tiny_geometry, policy, depth=2)
    with pytest.raises(ChainStructureError):
        evaluate_policy(chain, dead.cost)


def test_improvement_at_zero_alpha_transmits_everything(tiny_geometry):
    free_power = make_tiny_problem(alpha=0.0)
    policy = PowerPolicy.max_power(free_power.actions, tiny_geometry)
    chain = build_chain(free_power, tiny_geometry, policy, depth=2)
    ev = evaluate_policy(chain, free_power.cost)
    improved = improve_policy(chain, free_power.cost, ev.relative_values)
    assert improved.rules
    for rule in improved.rules.values():
        assert rule == ThresholdAction((0.0,))


def test_improvement_singleton_grid_returns_incumbent(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    chain = build_chain(tiny_problem, tiny_geometry, policy, depth=2)
    ev = evaluate_policy(chain, tiny_problem.cost)
    improved = improve_policy(
        chain, tiny_problem.cost, ev.relative_values, switch_grid=np.array([1.5])
    )
    for rule in improved.rules.values():
        assert rule == ThresholdAction((1.5,))


def test_improvement_matches_ring_objective(canon_problem, canon_geometry):
    two_level = dataclasses.replace(
        canon_problem, actions=ActionSet(levels=(0.0, 4.0), saturation_radius=12.0)
    )
    policy = PowerPolicy.max_power(two_level.actions, canon_geometry)
    chain = build_chain(two_level, canon_geometry, policy, depth=2)
    ev = evaluate_policy(chain, two_level.cost)
    improved = improve_policy(chain, two_level.cost, ev.relative_values)

    G = chain.n_gains
    V = ev.relative_values
    pi = np.asarray(two_level.channel.transition)
    levels = np.array([0.0, 4.0])
    half = canon_geometry.n_points // 2
    radii = canon_geometry.nodes()[half:]
    for (node, g), rule in sorted(improved.rules.items()):
        assert isinstance(rule, ThresholdAction)
        assert len(rule.thresholds) == 1
        i = chain.node_index[node]
        c = chain.child[i, g]
        cont_gap = float(pi[g] @ (V[c * G : (c + 1) * G] - V[0:G]))
        q_levels = np.array(
            [q_of(two_level.reception, u, two_level.channel.gains[g]) for u in levels]
        )
        objective = (
            two_level.cost.alpha * levels[:, None]
            - q_levels[:, None] * (radii ** 2 + cont_gap)[None, :]
        )
        choice = np.argmin(objective, axis=0)
        choice[radii > two_level.actions.saturation_radius] = 1
        choice = np.maximum.accumulate(choice)
        right = levels[choice]
        want = np.concatenate((right[:0:-1], right))
        assert np.array_equal(rule.as_action(canon_geometry, two_level.actions).values, want)


def test_solve_tiny_instance(tiny_problem, tiny_geometry):
    result = solve(tiny_problem, tiny_geometry, depth=3)
    assert result.converged
    assert result.rho_star <= min(result.rho_history) + 1e-12
    # never worse than the always-transmit baseline the loop starts from
    assert result.rho_star <= result.rho_history[0]
    assert result.residual <= 1e-9
    assert result.policy.is_threshold_only()
    assert result.evaluation.success_rate > 0.0


def test_solve_with_free_power_keeps_max_power(tiny_geometry):
    free_power = make_tiny_problem(alpha=0.0)
    result = solve(free_power, tiny_geometry, depth=3)
    assert result.converged
    baseline = PowerPolicy.max_power(free_power.actions, tiny_geometry)
    chain = build_chain(free_power, tiny_geometry, baseline, depth=3)
    assert result.rho_star == evaluate_policy(chain, free_power.cost).rho
    for rule in result.policy.rules.values():
        assert rule == ThresholdAction((0.0,))


def test_solve_exhausting_rounds_reports_no_convergence(tiny_problem, tiny_geometry):
    result = solve(tiny_problem, tiny_geometry, depth=2, max_rounds=1)
    assert not result.converged
    assert result.iterations == 1


def test_average_cost_bellman_residual_bound(canon_solution):
    assert canon_solution.converged
    assert canon_solution.residual <= 1e-6 * (1.0 + canon_solution.rho_star)


def test_solved_rules_pass_state_action_consistency(canon_solution, canon_problem):
    chain = canon_solution.chain
    V = canon_solution.relative_values
    rho = canon_solution.rho_star
    for s in (0, 1, 5, chain.n_states - 1):
        q = state_action_value(chain, s, chain.actions[s], canon_problem.cost, V)
        assert q == pytest.approx(V[s] + rho, abs=1e-8 * (1.0 + abs(rho)))


def test_solved_rules_are_canonically_invariant(canon_solution, canon_problem, canon_geometry):
    assert canon_solution.policy.is_threshold_only()
    chain = canon_solution.chain
    keys = sorted(canon_solution.policy.rules)[:5]
    for node, g in keys:
        rule = canon_solution.policy.rules[(node, g)]
        action = rule.as_action(canon_geometry, canon_problem.actions)
        again = canonicalize(action, chain.beliefs[chain.node_index[node]])
        assert np.array_equal(
            again.as_action(canon_geometry, canon_problem.actions).values, action.values
        )
        assert np.max(np.abs(np.asarray(again.thresholds) - np.asarray(rule.thresholds))) \
            <= canon_geometry.spacing


def test_structure_witness_small_at_solution(canon_solution, canon_problem):
    gap = structure_witness(
        canon_solution.chain, canon_problem.cost, canon_solution.relative_values
    )
    assert gap <= 1e-5


def test_structure_witness_equals_the_per_state_oracle_at_solution(
    canon_solution, canon_problem
):
    args = (canon_solution.chain, canon_problem.cost, canon_solution.relative_values)
    assert structure_witness(*args) == structure_witness_per_state(*args) == 0.0


def _lopsided_rule(geometry, saturation_radius):
    """4.0 above 1.5, 2.0 below -3.0, silent in between, u_max past saturation."""
    e = np.linspace(-geometry.half_width, geometry.half_width, geometry.n_points)
    rule = np.where(e > 1.5, 4.0, np.where(e < -3.0, 2.0, 0.0))
    rule[np.abs(e) > saturation_radius] = 4.0
    return rule


@pytest.mark.parametrize(
    "alpha, form, expected",
    [
        (0.5, "exponential", 0.019503156887356488),
        (2.0, "exponential", None),
        (0.1, "logistic", None),
    ],
)
def test_structure_witness_equals_the_per_state_oracle_off_the_solution(
    canon_problem, canon_geometry, alpha, form, expected
):
    problem = dataclasses.replace(
        canon_problem,
        cost=CostWeights(alpha=alpha),
        reception=dataclasses.replace(canon_problem.reception, form=form),
    )
    rule = _lopsided_rule(canon_geometry, problem.actions.saturation_radius)
    policy = PowerPolicy.uniform(rule, problem.actions, canon_geometry)
    chain = build_chain(problem, canon_geometry, policy, depth=3)
    values = evaluate_policy(chain, problem.cost).relative_values
    witness = structure_witness(chain, problem.cost, values)
    assert witness == structure_witness_per_state(chain, problem.cost, values)
    assert witness > 0.0
    if expected is not None:
        assert witness == pytest.approx(expected, rel=1e-12)


def test_truncation_depth_insensitivity_once_tail_is_dead():
    # certain reception: failures truncate the belief to the silent band, so
    # arbitrarily deep chains stay on a modest grid
    problem = certain_reception_problem()
    geometry = GridGeometry(half_width=20.0, n_points=801)
    shallow = solve(problem, geometry, depth=32)
    deep = solve(problem, geometry, depth=36)
    assert shallow.evaluation.tail_occupancy < 1e-6
    assert deep.evaluation.tail_occupancy < 1e-6
    assert abs(shallow.rho_star - deep.rho_star) <= 1e-6


def test_discounted_values_of_certain_reception_chain():
    problem = certain_reception_problem()
    geometry = GridGeometry(half_width=20.0, n_points=401)
    policy = PowerPolicy.max_power(problem.actions, geometry)
    chain = build_chain(problem, geometry, policy, depth=2)
    values = discounted_policy_values(chain, problem.cost, beta=0.9)
    # stage cost is exactly alpha * u_max forever: geometric series
    assert values[0] == pytest.approx(20.0, rel=1e-12)
    assert (1.0 - 0.9) * values[0] == pytest.approx(2.0, rel=1e-12)
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            discounted_policy_values(chain, problem.cost, beta=bad)


def test_solve_discounted_matches_backward_induction(tiny_problem, tiny_geometry):
    result = solve_discounted(
        tiny_problem, tiny_geometry, beta=0.5, depth=3, threshold_points=21
    )
    assert result.converged
    assert result.residual <= 1e-9
    assert not result.chain.virtual_mask.any()
    dp = backward_induction_values(
        result.chain, tiny_problem.cost, beta=0.5, horizon=60,
        grid=threshold_grid(tiny_problem.actions.saturation_radius, 21),
    )
    assert np.max(np.abs(dp - result.values)) <= 1e-6
    assert result.min_value() == result.values.min()
    assert result.min_value() >= 0.0


def test_reachable_states_match_a_depth_first_walk(canon_solution, canon_problem, canon_geometry):
    rule = _lopsided_rule(canon_geometry, canon_problem.actions.saturation_radius)
    lopsided = build_chain(
        canon_problem, canon_geometry,
        PowerPolicy.uniform(rule, canon_problem.actions, canon_geometry), depth=3,
    )
    problem, geometry = certain_reception_problem(), GridGeometry(half_width=20.0, n_points=401)
    certain = build_chain(
        problem, geometry, PowerPolicy.max_power(problem.actions, geometry), depth=3
    )
    for chain in (canon_solution.chain, lopsided, certain):
        for seeds in (list(range(chain.n_gains)), [0, chain.n_states - 1]):
            got = _reachable_states(chain.P, seeds)
            assert np.array_equal(got, reachable_states_dfs(chain.P, seeds))
    # every transmission succeeds, so only the root states are reachable
    assert np.array_equal(_reachable_states(certain.P, [0]), [0])


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_structure_needs_at_least_one_sample(tiny_problem, tiny_geometry, samples):
    chain = build_chain(
        tiny_problem, tiny_geometry, PowerPolicy.max_power(tiny_problem.actions, tiny_geometry), 3
    )
    evaluation = evaluate_policy(chain, tiny_problem.cost)
    with pytest.raises(ValueError, match="samples"):
        verify_structure(chain, evaluation, samples=samples, seed=1)


def test_greedy_ring_choice_keeps_the_first_of_tied_levels(tiny_geometry):
    # free power and one success probability for every level above zero: the
    # three transmitting levels tie exactly, and argmin takes the lowest
    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0, 2.0), transition=((0.6, 0.4), (0.3, 0.7))),
        reception=ReceptionModel(form="on_off", on_level=1.0, on_prob=0.9),
        actions=ActionSet(levels=(0.0, 1.0, 2.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.0),
    )
    policy = PowerPolicy.max_power(problem.actions, tiny_geometry)
    chain = build_chain(problem, tiny_geometry, policy, 2)
    values = evaluate_policy(chain, problem.cost).relative_values
    q_by_gain = _success_table(problem)
    levels = np.asarray(problem.actions.levels)
    radii = tiny_geometry.nodes()[tiny_geometry.n_points // 2 :]
    chosen = set()
    for _, g, gap, choice, _ in _greedy_states(chain, q_by_gain, problem.cost, values):
        objective = problem.cost.alpha * levels[:, None] - q_by_gain[g][:, None] * (radii**2 + gap)
        want = np.argmin(objective, axis=0)
        want[radii > problem.actions.saturation_radius] = len(levels) - 1
        assert np.array_equal(choice, np.maximum.accumulate(want))
        chosen.update(choice.tolist())
    assert 1 in chosen and 2 not in chosen


@pytest.mark.parametrize("depth, width", [(5, 22), (7, 32), (8, 39)])
def test_a_first_round_overflow_names_the_start_and_a_width_that_fits(
    tiny_problem, tiny_geometry, depth, width
):
    # under max power every belief is Gaussian: sd 4.24, 6.30 and 7.63 at the cap
    with pytest.raises(SupportOverflowError) as err:
        solve(tiny_problem, tiny_geometry, depth=depth)
    message = str(err.value)
    assert isinstance(err.value.__cause__, SupportOverflowError)
    assert message.startswith(str(err.value.__cause__))
    assert "max-power start" in message
    assert f"half_width >= {width} leaves half of the 1e-06 tolerance" in message

    def start_chain(half_width):
        # the tiny grid's spacing, 0.1, on +-half_width
        wider = GridGeometry(half_width, 20 * half_width + 1, "direct")
        return build_chain(tiny_problem, wider, PowerPolicy.max_power(tiny_problem.actions,
                                                                      wider), depth)

    start_chain(width)
    if depth == 7:
        # the width whose Gaussian tail is the whole tolerance, 31, does not fit
        with pytest.raises(SupportOverflowError):
            start_chain(31)


def test_a_discounted_first_round_overflow_names_the_start_too(tiny_problem, tiny_geometry):
    # solve_discounted starts from max power as solve does
    with pytest.raises(SupportOverflowError) as err:
        solve_discounted(tiny_problem, tiny_geometry, 0.9, depth=5)
    message = str(err.value)
    assert isinstance(err.value.__cause__, SupportOverflowError)
    assert message.startswith(str(err.value.__cause__))
    assert "max-power start" in message
    assert "half_width >= 22 leaves half of the 1e-06 tolerance" in message


def test_verify_structure_probes_through_the_public_functions(monkeypatch, tiny_geometry):
    # two gains, a saturation radius with room for the order probes, and no
    # degenerate step: each of the 2 * samples probes calls each function
    # once, and each order probe steps its two beliefs
    import remotepower.solver as solver

    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0, 2.0), transition=((0.6, 0.4), (0.3, 0.7))),
        reception=ReceptionModel(form="exponential", scale=1.0),
        actions=ActionSet(levels=(0.0, 2.0, 4.0), saturation_radius=10.0),
        cost=CostWeights(alpha=0.5),
    )
    chain = build_chain(problem, tiny_geometry, PowerPolicy.max_power(problem.actions,
                                                                       tiny_geometry), 1)
    evaluation = evaluate_policy(chain, problem.cost)
    calls = {}
    for name in ("random_relation_pair", "rearranged_action", "propagate"):
        real = getattr(solver, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver, name, counting)
    samples = 12
    rows = verify_structure(chain, evaluation, samples=samples, seed=5)
    assert rows[3] == ("belief order survives a failed transmission", True, f"{samples} probes")
    assert calls == {name: 2 * samples for name in calls} and len(calls) == 3


def test_an_off_centre_greedy_rule_becomes_tabular(tiny_problem, tiny_geometry):
    # a rule that transmits only on the right skews every belief below the
    # root, so those states' greedy rules are off centre
    problem, geometry = tiny_problem, tiny_geometry
    lopsided = np.where(geometry.nodes() >= 1.0, 4.0, 0.0)
    policy = PowerPolicy.uniform(lopsided, problem.actions, geometry, enforce=False)
    chain = build_chain(problem, geometry, policy, depth=3)
    values = evaluate_policy(chain, problem.cost).relative_values
    improved = improve_policy(chain, problem.cost, values)
    assert isinstance(improved.rules[((), 0)], ThresholdAction)

    levels = np.asarray(problem.actions.levels)
    q_by_gain = _success_table(problem)
    tabular = {}
    for i, g, gap, _, center in _greedy_states(chain, q_by_gain, problem.cost, values):
        if abs(center) > CENTER_SNAP_TOL:
            tabular[(chain.nodes[i], g)] = levels[_improve_state_tabular(
                chain.beliefs[i], problem.actions, q_by_gain[g], problem.cost.alpha, gap, center
            )]
    assert sorted(tabular) == [((0,), 0), ((0, 0), 0)]
    for key, rule in tabular.items():
        np.testing.assert_array_equal(improved.rules[key], rule)

    changed = dict(improved.rules)
    table = changed[((0,), 0)].copy()
    mid = len(table) // 2
    table[mid] = 4.0 if table[mid] == 0.0 else 0.0
    changed[((0,), 0)] = table
    same = PowerPolicy.from_rules(dict(improved.rules), problem.actions, geometry)
    other = PowerPolicy.from_rules(changed, problem.actions, geometry)
    assert _rules_signature(same) == _rules_signature(improved)
    assert _rules_signature(other) != _rules_signature(improved)
