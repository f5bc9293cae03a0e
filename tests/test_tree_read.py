"""`_HistoryTree.read`, the one way the chain build and the simulator read
beliefs off the failure-history tree.

The inner nodes' rows come as views of the tree's array, the cap nodes' as
the level step's own blocks, which the tree does not store; either way each
asked node is handed once, with the belief and error a fresh tree's
``belief_at`` gives it.
"""

import numpy as np
import pytest

from remotepower import ActionFunction, PowerPolicy, SupportOverflowError, build_chain
from remotepower.solver import _HistoryTree
from test_history_tree import lopsided_two_gain_case
from test_rollout_passes import frozen_canonical_policy


def tree_case(name, canon_problem, canon_geometry):
    if name == "canonical-depth-8":
        return (canon_problem, canon_geometry,
                frozen_canonical_policy(canon_problem, canon_geometry), 8)
    # depth 5: the all-zero history overflows at the cap; depth 6: inside it
    return (*lopsided_two_gain_case(), int(name[-1]))


def read_all(tree, nodes):
    taken = []
    tree.read(nodes, lambda rows, weights, errors: taken.append((rows, weights, errors)))
    return taken


@pytest.mark.parametrize("name", ["canonical-depth-8", "lopsided-depth-5", "lopsided-depth-6"])
def test_each_asked_node_is_handed_once_as_a_fresh_tree_steps_it(name, canon_problem,
                                                                 canon_geometry):
    args = tree_case(name, canon_problem, canon_geometry)
    tree = _HistoryTree(*args)
    n_nodes = len(tree.nodes)
    rng = np.random.default_rng(5)
    # unsorted, with repeats, from every level
    asked = rng.integers(0, n_nodes, size=n_nodes // 3).tolist() + [0, n_nodes - 1, n_nodes - 1]
    got = {}
    for nodes in (asked, range(n_nodes)):
        taken = read_all(tree, nodes)
        rows = [i for r, _, _ in taken for i in r]
        assert sorted(rows) == sorted(set(nodes))
        for r, weights, errors in taken:
            assert len(r) == len(weights) == len(errors)
            inner = r[0] < tree.n_inner
            assert all((i < tree.n_inner) == inner for i in r)
            assert np.shares_memory(weights, tree._weights) == inner
            got.update({i: (row.copy(), err) for i, row, err in zip(r, weights, errors)})
        assert not tree._have[tree.n_inner :].any()

    fresh = _HistoryTree(*args)
    failed = 0
    for i, (row, err) in got.items():
        if err is None:
            assert row.tobytes() == fresh.belief_at(i).weights.tobytes()
            continue
        failed += 1
        with pytest.raises(type(err)) as want:
            fresh.belief_at(i)
        assert str(err) == str(want.value)
    assert (failed > 0) == name.startswith("lopsided")


def test_an_inner_overflow_raises_before_the_cap_is_stepped(monkeypatch):
    problem, geometry, policy = lopsided_two_gain_case()
    stepped = []
    fill_level = _HistoryTree._fill_level

    def recording(tree, rows, take=None):
        stepped.append((tree.n_inner, rows))
        return fill_level(tree, rows, take)

    monkeypatch.setattr(_HistoryTree, "_fill_level", recording)
    with pytest.raises(SupportOverflowError, match=r"failure history \(0, 0, 0, 0, 0\) "):
        build_chain(problem, geometry, policy, depth=6)
    assert stepped and all(i < n_inner for n_inner, rows in stepped for i in rows)


def test_a_rule_whose_expansion_fails_is_expanded_once(canon_problem, canon_geometry,
                                                       monkeypatch):
    # 1.5 is off the canonical level set, and an enforced rule must be on it
    policy = PowerPolicy(canon_problem.actions, canon_geometry, "baseline", baseline="constant",
                         baseline_param=1.5, enforce=True)
    with pytest.raises(ValueError) as want:
        policy.action_of((), 0)
    made = []
    post_init = ActionFunction.__post_init__

    def counting(action):
        made.append(action)
        post_init(action)

    monkeypatch.setattr(ActionFunction, "__post_init__", counting)
    with pytest.raises(ValueError) as got:
        build_chain(canon_problem, canon_geometry, policy, 8)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert len(made) == 2  # the cap's full-power rule and the one failing expansion
