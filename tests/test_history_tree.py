"""The level-batched failure-history tree against the per-node recursion.

`build_chain` fills its tree one level at a time, every belief step of a
level in fixed-size row blocks; `oracles.chain_per_node` unfolds the same
chain one node at a time with freshly expanded rules.  The two must agree
bit for bit, and a step that fails must fail for its own node only.
"""

import dataclasses
import itertools
import json
import logging
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from oracles import chain_per_node, gain_path, propagate_fftconvolve
from remotepower import (
    ActionFunction,
    ActionSet,
    ControlProblem,
    CostWeights,
    DegenerateSuccessError,
    FadingChannel,
    GridGeometry,
    GridGeometryError,
    PowerPolicy,
    ReceptionModel,
    ScalarProcess,
    SupportOverflowError,
    build_chain,
    on_off_action,
    simulate,
)
from remotepower import solver
from remotepower.policy import max_power_action
from remotepower.solver import _HistoryTree

CANONICAL_POLICY = os.path.join(
    os.path.dirname(__file__), "..", "bench", "inputs", "canonical_policy.json"
)


def assert_chain_matches_oracle(problem, geometry, policy, depth):
    chain = build_chain(problem, geometry, policy, depth)
    want = chain_per_node(problem, geometry, policy, depth)
    assert len(chain.beliefs) == len(want["beliefs"])
    for got, expected in zip(chain.beliefs, want["beliefs"]):
        assert np.array_equal(got.weights, expected)
    for name in ("phi", "power", "distortion"):
        assert np.array_equal(getattr(chain, name), want[name]), name
    assert np.array_equal(chain.virtual_mask, want["virtual"])
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(chain.P, part), getattr(want["P"], part)), part
    return chain


def test_canonical_chain_equals_per_node_recursion(canon_problem, canon_geometry,
                                                   canon_solution):
    policy = canon_solution.policy
    chain = assert_chain_matches_oracle(canon_problem, canon_geometry, policy, 4)
    # states with one threshold rule share one expanded rule
    by_rule = {}
    for s in range(chain.n_states):
        node, g = chain.state_key(s)
        if len(node) < chain.depth:
            rule = policy.rule_for(node, g)
            assert by_rule.setdefault(rule, chain.actions[s]) is chain.actions[s]
    assert len(by_rule) < chain.n_states - 2 * chain.n_gains ** chain.depth


def test_tiny_direct_chain_equals_per_node_recursion(tiny_problem, tiny_geometry):
    policy = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    assert_chain_matches_oracle(tiny_problem, tiny_geometry, policy, 4)


def test_mirrored_plant_chain_equals_per_node_recursion(canon_problem, canon_geometry,
                                                        canon_solution):
    problem = dataclasses.replace(canon_problem, process=ScalarProcess(a=-1.2, noise_var=1.0))
    assert_chain_matches_oracle(problem, canon_geometry, canon_solution.policy, 3)


def test_degenerate_edges_chain_equals_per_node_recursion(tiny_geometry):
    # on-off reception with on_prob = 1: full power always gets through, so
    # every gain-0 edge is degenerate and its subtree virtual
    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0, 2.0), transition=((0.6, 0.4), (0.3, 0.7))),
        reception=ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.5),
    )
    nodes = [()] + [(0,), (1,)] + [(a, b) for a in range(2) for b in range(2)]
    rules = {}
    for node in nodes:
        rules[(node, 0)] = max_power_action(problem.actions)
        rules[(node, 1)] = on_off_action(1.5, problem.actions)
    policy = PowerPolicy.from_rules(rules, problem.actions, tiny_geometry)
    chain = assert_chain_matches_oracle(problem, tiny_geometry, policy, 3)
    assert chain.virtual_mask.any() and not chain.virtual_mask.all()
    assert chain.virtual_mask[chain.node_index[(0,)]]
    assert not chain.virtual_mask[chain.node_index[(1, 1)]]


def lopsided_two_gain_case():
    """A two-gain tiny problem whose lopsided rule along the all-zero history
    drives the belief off the grid five failures deep, while the mirrored rule
    at the last branch point keeps the sibling (0, 0, 0, 0, 1) on the grid."""
    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0, 2.0), transition=((0.9, 0.1), (0.5, 0.5))),
        reception=ReceptionModel(form="exponential", scale=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.5),
    )
    geometry = GridGeometry(half_width=20.0, n_points=401, convolution="direct")
    lopsided = np.where(geometry.nodes() >= 1.0, 4.0, 0.0)
    rules = {((0,) * k, 0): lopsided for k in range(6)}
    rules[((0,) * 4, 1)] = lopsided[::-1].copy()
    policy = PowerPolicy(problem.actions, geometry, "tabular", rules=rules,
                         default=np.full(geometry.n_points, 4.0), enforce=False)
    return problem, geometry, policy


def test_failed_row_keeps_its_error_and_siblings_go_on(caplog):
    problem, geometry, policy = lopsided_two_gain_case()
    with pytest.raises(SupportOverflowError, match=r"failure history \(0, 0, 0, 0, 0\) "):
        build_chain(problem, geometry, policy, depth=6)

    # above the failing level the lopsided chain (off-centre failure
    # branches) still matches the per-node recursion
    chain = assert_chain_matches_oracle(problem, geometry, policy, 4)
    tree = _HistoryTree(problem, geometry, policy, 6)
    sibling = tree.belief((0, 0, 0, 0, 1))
    parent = chain.beliefs[chain.node_index[(0, 0, 0, 0)]]
    assert np.array_equal(tree.belief((0, 0, 0, 0)).weights, parent.weights)
    want = propagate_fftconvolve(tree.belief((0, 0, 0, 0)), 2.0, tree.action((0, 0, 0, 0), 1),
                                 problem.process, problem.reception)
    assert np.array_equal(sibling.weights, want)
    with pytest.raises(SupportOverflowError) as failed:
        tree.belief((0, 0, 0, 0, 0))
    for below in ((0,) * 6, (0,) * 5 + (1,)):
        with pytest.raises(SupportOverflowError) as again:
            tree.belief(below)
        assert again.value is failed.value
    tree.belief((0, 0, 0, 0, 1, 0))

    with caplog.at_level(logging.WARNING, logger="remotepower.simulator"):
        simulate(problem, geometry, policy, "belief_mean", 100_000, 13, depth=6)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "failure history (0, 0, 0, 0, 0) " in warnings[0]


def test_canonical_answer_is_pinned(canon_solution):
    """The default solve reproduces the frozen canonical answer exactly."""
    with open(CANONICAL_POLICY) as fh:
        frozen = json.load(fh)
    assert canon_solution.rho_star == frozen["rho_star"]
    assert canon_solution.rho_history == frozen["rho_history"]
    assert canon_solution.tail_occupancy == frozen["tail_occupancy"]


def three_gain_problem():
    return ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(
            gains=(0.5, 1.0, 2.0),
            transition=((0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.1, 0.3, 0.6)),
            initial_gain_index=1,
        ),
        reception=ReceptionModel(form="exponential", scale=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.5),
    )


@pytest.mark.parametrize("gains", [3, 1])
def test_node_numbering_follows_the_gain_histories(tiny_problem, tiny_geometry, gains):
    problem = three_gain_problem() if gains == 3 else tiny_problem
    policy = PowerPolicy.on_off(1.5, problem.actions, tiny_geometry)
    chain = build_chain(problem, tiny_geometry, policy, depth=3)
    assert chain.n_gains == gains
    assert chain.n_nodes == sum(gains**k for k in range(4))
    assert len(chain.node_index) == chain.n_nodes
    for i, node in enumerate(chain.nodes):
        assert chain.node_index[node] == i
        assert chain.tail_mask[i] == (len(node) == 3)
        for g in range(gains):
            if chain.tail_mask[i]:
                assert chain.child[i, g] == i
            else:
                assert chain.nodes[chain.child[i, g]] == node + (g,)


def test_rollout_gains_follow_the_channel_stream(tiny_geometry):
    problem = three_gain_problem()
    policy = PowerPolicy.on_off(1.5, problem.actions, tiny_geometry)
    horizon, seed, replication = 5000, 21, 2
    m = simulate(problem, tiny_geometry, policy, "closed_form", horizon, seed,
                 depth=3, replication=replication)
    counts = np.bincount(gain_path(problem.channel, horizon, seed, replication), minlength=3)
    assert min(counts) > 0
    assert m.gain_occupancy == [c / horizon for c in counts.tolist()]


STEP_BLOCKS = _HistoryTree._step_blocks


def filled_tree(problem, geometry, policy, depth, monkeypatch, cpus):
    """Every node's belief weights (or the error its step stored) from a tree
    filled on `cpus` CPUs, and the threads that ran its block loop."""
    monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
    stepped_on = set()

    def recording(tree, blocks):
        stepped_on.add(threading.get_ident())
        return STEP_BLOCKS(tree, blocks)

    monkeypatch.setattr(_HistoryTree, "_step_blocks", recording)
    tree = _HistoryTree(problem, geometry, policy, depth)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        for i in range(len(tree.nodes)):
            try:
                got.append(tree.belief_at(i).weights)
            except ValueError as err:
                got.append(err)
    finally:
        sys.setswitchinterval(interval)
    return got, stepped_on


@pytest.mark.parametrize("case", ["canonical-depth-8", "three-gain-depth-3", "overflow"])
def test_pooled_fill_equals_serial_fill(case, canon_problem, canon_geometry, canon_solution,
                                        tiny_geometry, monkeypatch):
    if case == "canonical-depth-8":
        args = (canon_problem, canon_geometry, canon_solution.policy, 8)
    elif case == "three-gain-depth-3":
        problem = three_gain_problem()
        args = (problem, tiny_geometry, PowerPolicy.on_off(1.5, problem.actions, tiny_geometry), 3)
    else:
        args = (*lopsided_two_gain_case(), 6)
    serial, serial_threads = filled_tree(*args, monkeypatch, cpus=1)
    pooled, pooled_threads = filled_tree(*args, monkeypatch, cpus=2)
    threads_after = threading.active_count()
    again, again_threads = filled_tree(*args, monkeypatch, cpus=2)
    assert len(serial_threads) == 1 < len(pooled_threads)
    # the worker thread is kept and reused, not started anew for each fill
    assert again_threads == pooled_threads and threading.active_count() == threads_after
    for want, got, got_again in zip(serial, pooled, again, strict=True):
        if isinstance(want, ValueError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert want.tobytes() == got.tobytes() == got_again.tobytes()
    if case == "overflow":
        tree = _HistoryTree(*args)
        failing = tree.node_index[(0,) * 5]
        assert isinstance(pooled[failing], SupportOverflowError)
        for below in tree.child[failing]:
            assert pooled[below] is pooled[failing]


@pytest.mark.parametrize("case", ["overflow-depth-7", "degenerate-depth-5"])
def test_every_node_below_a_failed_node_raises_its_error(case, monkeypatch):
    problem, geometry, policy = lopsided_two_gain_case()
    depth, failing, error = 7, [(0,) * 5], SupportOverflowError
    if case == "degenerate-depth-5":
        # full power always gets through, so both level-1 nodes are degenerate;
        # levels 4 and 5 have more than one block of rows
        problem = dataclasses.replace(
            problem, reception=ReceptionModel(form="on_off", on_level=4.0, on_prob=1.0)
        )
        policy = PowerPolicy.max_power(problem.actions, geometry)
        depth, failing, error = 5, [(0,), (1,)], DegenerateSuccessError
    tree = _HistoryTree(problem, geometry, policy, depth)
    for cpus in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, stepped_on = filled_tree(problem, geometry, policy, depth, monkeypatch, cpus)
        assert len(stepped_on) == cpus
        for node in failing:
            failed = got[tree.node_index[node]]
            assert isinstance(failed, error)
            for g, h in itertools.product(range(tree.n_gains), repeat=2):
                assert got[tree.node_index[node + (g, h)]] is failed


def test_a_policy_on_another_grid_is_refused(tiny_problem, tiny_geometry):
    # a wider grid would read the policy's node values at the wrong radii, a
    # finer one would not fit them at all
    policy = PowerPolicy.uniform(on_off_action(2.0, tiny_problem.actions), tiny_problem.actions,
                                 tiny_geometry)
    for other in (dataclasses.replace(tiny_geometry, half_width=25.0),
                  dataclasses.replace(tiny_geometry, n_points=801)):
        want = (f"policy built on the grid +-20.0 with 401 points cannot be read on the grid "
                f"+-{other.half_width} with {other.n_points} points")
        with pytest.raises(GridGeometryError) as err:
            build_chain(tiny_problem, other, policy, 3)
        assert str(err.value) == want


def test_a_constant_baseline_is_expanded_once(monkeypatch, canon_problem, canon_geometry):
    built = []
    init = ActionFunction.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(ActionFunction, "__post_init__", counted)
    policy = PowerPolicy.constant(2.0, canon_problem.actions, canon_geometry)
    chain = build_chain(canon_problem, canon_geometry, policy, 8)
    # the baseline's one table and the full power at the depth cap
    assert len(built) == 2
    assert len({id(a) for a in chain.actions}) == 2


def test_a_shared_table_builds_the_chain_of_one_table_per_state(tiny_problem, tiny_geometry):
    table = np.where(np.abs(tiny_geometry.nodes()) >= 1.5, 4.0, 0.0)
    keys = [((0,) * k, 0) for k in range(3)]  # the inner states of the one-gain tree
    shared = PowerPolicy.from_rules({k: table for k in keys}, tiny_problem.actions, tiny_geometry)
    copies = PowerPolicy.from_rules({k: table.copy() for k in keys}, tiny_problem.actions,
                                    tiny_geometry)
    one, many = (build_chain(tiny_problem, tiny_geometry, p, 3) for p in (shared, copies))
    assert len({id(a) for a in one.actions}) == 2
    assert len({id(a) for a in many.actions}) == len(keys) + 1
    for a, b in zip(one.actions, many.actions):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(one.beliefs, many.beliefs):
        assert np.array_equal(a.weights, b.weights)
    for name in ("phi", "power", "distortion"):
        assert np.array_equal(getattr(one, name), getattr(many, name)), name
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(one.P, part), getattr(many.P, part)), part


def test_an_impossible_depth_fails_at_once(tiny_geometry):
    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(0.5, 2.0), transition=((0.5, 0.5), (0.5, 0.5))),
        reception=ReceptionModel(form="exponential", scale=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.5),
    )
    policy = PowerPolicy.max_power(problem.actions, tiny_geometry)
    nodes = 2**41 - 1
    start = time.perf_counter()
    with pytest.raises(MemoryError) as err:
        build_chain(problem, tiny_geometry, policy, 40)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (
        f"the failure-history tree of depth 40 has {nodes} nodes of 401 points "
        f"({8 * nodes * 401} bytes), more than this process can allocate; lower the depth"
    )
