"""The depth cap's level is stepped a block at a time and never stored.

`build_chain` takes its tail states' terms, and the simulator's memo the
mean and centre of the tail states a rollout visits, from each stepped
block of the cap level.  Every `_step_rows` call's output array is recorded
and checked against the tree's cap rows, which no call may write, and the
results against the per-node recursion and the per-step loop.
"""

import logging
import sys
import threading

import numpy as np
import pytest

from oracles import chain_per_node, simulate_per_step
from remotepower import PowerPolicy, SupportOverflowError, build_chain, simulate
from remotepower import solver
from remotepower.simulator import _StateMemo
from remotepower.solver import _HistoryTree
from test_history_tree import lopsided_two_gain_case, three_gain_problem
from test_rollout_passes import frozen_canonical_policy


@pytest.fixture()
def stepped(monkeypatch):
    """The output array and thread of every `_step_rows` call of a tree."""
    calls = []
    step_rows = solver._step_rows

    def recording(geometry, process, parents, succ, fail, out):
        calls.append((out, threading.get_ident()))
        return step_rows(geometry, process, parents, succ, fail, out)

    monkeypatch.setattr(solver, "_step_rows", recording)
    return calls


def cap_rows(tree):
    return tree._weights[tree.n_inner :]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["canonical-depth-8", "three-gain-depth-3"])
def test_the_chain_build_stores_no_cap_row(case, cpus, stepped, monkeypatch, canon_problem,
                                           canon_geometry, tiny_geometry):
    if case == "canonical-depth-8":
        args = (canon_problem, canon_geometry,
                frozen_canonical_policy(canon_problem, canon_geometry), 8)
    else:
        problem = three_gain_problem()
        args = (problem, tiny_geometry, PowerPolicy.on_off(1.5, problem.actions, tiny_geometry), 3)
    trees = []

    class Recorded(_HistoryTree):
        def __init__(self, *tree_args):
            super().__init__(*tree_args)
            trees.append(self)

    monkeypatch.setattr(solver, "_HistoryTree", Recorded)
    monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        chain = build_chain(*args)
    finally:
        sys.setswitchinterval(interval)
    (tree,) = trees
    # every node below the root was stepped once, the cap's rows outside the tree
    assert sum(len(out) for out, _ in stepped) == len(tree.nodes) - 1
    assert not any(np.shares_memory(out, cap_rows(tree)) for out, _ in stepped)
    assert not tree._have[tree.n_inner :].any()
    if case == "canonical-depth-8":  # 32 cap blocks, on both threads when two CPUs may run
        cap_threads = {t for out, t in stepped if not np.shares_memory(out, tree._weights)}
        assert len(cap_threads) == cpus

    want = chain_per_node(*args)
    for name in ("phi", "power", "distortion"):
        assert np.array_equal(getattr(chain, name), want[name]), name
    # a tail belief is stepped into the tree when it is first read
    last = len(tree.nodes) - 1
    assert np.array_equal(chain.beliefs[last].weights, want["beliefs"][last])
    assert tree._have[tree.n_inner :].all()


def test_each_cap_block_is_taken_on_the_thread_that_stepped_it(stepped, monkeypatch,
                                                               canon_problem, canon_geometry):
    taken = []
    fill_level = _HistoryTree._fill_level

    def recording(tree, rows, take=None):
        if take is None:
            return fill_level(tree, rows)

        def recorded(got, weights, errors):
            taken.append((weights, threading.get_ident()))
            take(got, weights, errors)

        return fill_level(tree, rows, recorded)

    monkeypatch.setattr(_HistoryTree, "_fill_level", recording)
    monkeypatch.setattr(solver, "_cpu_count", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        build_chain(canon_problem, canon_geometry,
                    frozen_canonical_policy(canon_problem, canon_geometry), 8)
    finally:
        sys.setswitchinterval(interval)
    # each take's weights are the output array of the step that made them
    stepped_on = {id(out): t for out, t in stepped}
    assert len(taken) == 32 == len({id(weights) for weights, _ in taken})
    assert all(stepped_on[id(weights)] == t for weights, t in taken)
    assert len({t for _, t in taken}) == 2


def test_chain_beliefs_slice_like_a_list(tiny_geometry):
    problem = three_gain_problem()
    chain = build_chain(problem, tiny_geometry,
                        PowerPolicy.on_off(1.5, problem.actions, tiny_geometry), 3)
    tree_inner = sum(3**k for k in range(3))
    every = [chain.beliefs[i] for i in range(len(chain.beliefs))]
    for key in (slice(tree_inner - 2, tree_inner + 3), slice(-5, None), slice(None, -30, 4),
                slice(None, None, -7)):
        got = chain.beliefs[key]
        assert isinstance(got, list)
        want = every[key]
        assert len(got) == len(want) > 0
        assert all(g.weights.tobytes() == w.weights.tobytes() for g, w in zip(got, want))
    assert chain.beliefs[-1].weights.tobytes() == every[-1].weights.tobytes()
    assert chain.beliefs[-len(every)] is every[0]
    with pytest.raises(IndexError):
        chain.beliefs[-len(every) - 1]


def rollout_case(name, canon_problem, canon_geometry, tiny_geometry):
    """(problem, geometry, policy, depth, horizon, seed) of a belief-mean
    rollout that reaches the depth cap."""
    if name == "canonical":
        policy = frozen_canonical_policy(canon_problem, canon_geometry)
        return canon_problem, canon_geometry, policy, 8, 20_000, 1
    if name == "three-gain":
        problem = three_gain_problem()
        return (problem, tiny_geometry, PowerPolicy.on_off(1.5, problem.actions, tiny_geometry),
                3, 5000, 21)
    # the belief overflows five failures deep, at the cap's own step
    return (*lopsided_two_gain_case(), 5, 100_000, 13)


@pytest.mark.parametrize("name", ["canonical", "three-gain", "lopsided-cap-fails"])
def test_a_rollout_stores_no_cap_row(name, stepped, canon_problem, canon_geometry, tiny_geometry,
                                     caplog):
    problem, geometry, policy, depth, horizon, seed = rollout_case(
        name, canon_problem, canon_geometry, tiny_geometry)
    got = []
    for run in (simulate_per_step, simulate):
        memo = _StateMemo(problem, geometry, policy, depth) if run is simulate else None
        caplog.clear()
        stepped.clear()
        with caplog.at_level(logging.WARNING):
            m = run(problem, geometry, policy, "belief_mean", horizon, seed, depth=depth,
                    _memo=memo)
        got.append((m.to_dict(), [r.getMessage() for r in caplog.records
                                  if r.levelno == logging.WARNING]))
    assert got[0] == got[1]
    metrics, warned = got[1]
    tree = memo.tree
    assert metrics["tail_fraction"] > 0
    assert memo.read[tree.n_inner * tree.n_gains :].any()
    assert not any(np.shares_memory(out, cap_rows(tree)) for out, _ in stepped)
    assert not tree._have[tree.n_inner :].any()
    if name == "lopsided-cap-fails":
        assert len(warned) == 1 and "failure history (0, 0, 0, 0, 0) " in warned[0]


def test_a_cap_overflow_names_its_history_and_keeps_its_step_error():
    problem, geometry, policy = lopsided_two_gain_case()
    with pytest.raises(SupportOverflowError,
                       match=r"failure history \(0, 0, 0, 0, 0\) overflowed") as err:
        build_chain(problem, geometry, policy, depth=5)
    with pytest.raises(SupportOverflowError) as step:
        _HistoryTree(problem, geometry, policy, 5).belief((0,) * 5)
    cause = err.value.__cause__
    assert type(cause) is SupportOverflowError and str(cause) == str(step.value)
