"""The array rollout against the per-step loop, and the visited-node tree fill.

`simulate` walks each time block in array passes and reads beliefs only at
the nodes its path visits; `oracles.simulate_per_step` is the rollout one
step at a time.  Their metrics and trace files must agree byte for byte,
whatever the time-block length.
"""

import json
import logging

import numpy as np
import pytest

from oracles import simulate_per_step
from remotepower import (
    ActionSet,
    ControlProblem,
    CostWeights,
    FadingChannel,
    GridGeometry,
    GridGeometryError,
    PolicyDomainError,
    PowerPolicy,
    ReceptionModel,
    ScalarProcess,
    SupportOverflowError,
    on_off_action,
    simulate,
)
from remotepower import simulator, solver
from remotepower.solver import _HistoryTree
from test_history_tree import CANONICAL_POLICY, lopsided_two_gain_case, three_gain_problem


def frozen_canonical_policy(problem, geometry):
    with open(CANONICAL_POLICY) as fh:
        return PowerPolicy.from_dict(json.load(fh)["policy"], problem.actions, geometry)


def lopsided_policy(problem, geometry):
    lopsided = np.where(geometry.nodes() >= 1.0, 4.0, 0.0)
    return PowerPolicy.uniform(lopsided, problem.actions, geometry, enforce=False)


def rollout_case(name, tiny_problem, tiny_geometry, canon_problem, canon_geometry):
    """(problem, geometry, policy, estimator mode, horizon, seed, keyword
    arguments) of each rollout the array passes must match."""
    on_off = PowerPolicy.on_off(1.5, tiny_problem.actions, tiny_geometry)
    three = three_gain_problem()
    cases = {
        "tiny-closed-form": (tiny_problem, tiny_geometry, on_off, "closed_form", 3000, 42,
                             dict(depth=4)),
        "tiny-belief-mean": (tiny_problem, tiny_geometry, on_off, "belief_mean", 3000, 42,
                             dict(depth=4)),
        "three-gain": (three, tiny_geometry, PowerPolicy.on_off(1.5, three.actions, tiny_geometry),
                       "belief_mean", 5000, 21, dict(depth=3, replication=2)),
        # the belief overflows five failures deep
        "lopsided": (tiny_problem, tiny_geometry, lopsided_policy(tiny_problem, tiny_geometry),
                     "belief_mean", 50_000, 13, dict(depth=6)),
        # 1.5 is no power level, and the cap sends full power
        "off-level-constant": (tiny_problem, tiny_geometry,
                               PowerPolicy.constant(1.5, tiny_problem.actions, tiny_geometry),
                               "closed_form", 20_000, 3, dict(depth=3)),
        "window-past-the-horizon": (tiny_problem, tiny_geometry, on_off, "belief_mean", 5000, 9,
                                    dict(depth=6, window=777)),
    }
    for r in range(2):
        cases[f"canonical-replication-{r}"] = (
            canon_problem, canon_geometry, frozen_canonical_policy(canon_problem, canon_geometry),
            "belief_mean", 6000, 1, dict(depth=8, replication=r, window=1000),
        )
    return cases[name]


CASES = ["tiny-closed-form", "tiny-belief-mean", "three-gain", "lopsided", "off-level-constant",
         "window-past-the-horizon", "canonical-replication-0", "canonical-replication-1"]


def both_rollouts(case, tmp_path, caplog):
    """Each rollout's metrics, trace bytes and warning messages."""
    problem, geometry, policy, mode, horizon, seed, kwargs = case
    got = []
    for name, run in (("passes", simulate), ("per-step", simulate_per_step)):
        path = tmp_path / f"{name}.csv"
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            m = run(problem, geometry, policy, mode, horizon, seed, trace_path=str(path),
                    trace_comment=["setup: one case"], **kwargs)
        got.append((m.to_dict(), path.read_bytes(),
                    [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]))
    return got


@pytest.mark.parametrize("name", CASES)
def test_rollout_equals_the_per_step_loop(name, tiny_problem, tiny_geometry, canon_problem,
                                          canon_geometry, tmp_path, caplog):
    case = rollout_case(name, tiny_problem, tiny_geometry, canon_problem, canon_geometry)
    (metrics, trace, warned), (want_metrics, want_trace, want_warned) = both_rollouts(
        case, tmp_path, caplog)
    assert metrics == want_metrics
    assert trace == want_trace
    assert warned == want_warned
    if name == "lopsided":
        assert len(warned) == 1 and "failure history (0, 0, 0, 0, 0) " in warned[0]


@pytest.mark.parametrize("steps", [1, 7, 64, None])
def test_rollout_does_not_depend_on_the_block_length(steps, tmp_path, monkeypatch):
    problem, geometry, policy = lopsided_two_gain_case()
    horizon = 3000

    def run(name):
        path = tmp_path / f"{name}.csv"
        m = simulate(problem, geometry, policy, "belief_mean", horizon, 5, depth=6, window=450,
                     trace_path=str(path))
        return m.to_dict(), path.read_bytes()

    want = run("default")
    monkeypatch.setattr(simulator, "_BLOCK_STEPS", horizon if steps is None else steps)
    assert run(f"blocks-{steps}") == want


def test_block_draws_equal_one_shot_draws():
    for stream in (simulator.STREAM_NOISE, simulator.STREAM_CHANNEL, simulator.STREAM_RECEPTION):
        whole = simulator._generator(11, 3, stream)
        blocks = simulator._generator(11, 3, stream)
        if stream == simulator.STREAM_NOISE:
            want = whole.normal(0.0, 1.5, 1001)
            got = [blocks.normal(0.0, 1.5)] + [blocks.normal(0.0, 1.5, n) for n in (1, 7, 992)]
        else:
            want = whole.random(1001)
            got = [blocks.random()] + [blocks.random(n) for n in (1, 7, 992)]
        assert np.concatenate([np.atleast_1d(g) for g in got]).tobytes() == want.tobytes()


def visited_nodes(tree, rng, count):
    """`count` distinct nodes below the root, drawn across every level."""
    return np.sort(rng.choice(np.arange(1, len(tree.nodes)), count, replace=False))


def ancestors_and_self(tree, nodes):
    out = set()
    for i in nodes:
        while i > 0 and i not in out:
            out.add(int(i))
            i = (i - 1) // tree.n_gains
    return out


@pytest.mark.parametrize("cpus", [1, 2])
def test_visited_fill_equals_full_fill(cpus, canon_problem, canon_geometry, monkeypatch):
    monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
    policy = frozen_canonical_policy(canon_problem, canon_geometry)
    full = _HistoryTree(canon_problem, canon_geometry, policy, 8)
    visited = _HistoryTree(canon_problem, canon_geometry, policy, 8)
    nodes = visited_nodes(visited, np.random.default_rng(7), 60)
    visited.fill(nodes)
    for i in sorted(ancestors_and_self(visited, nodes)):
        assert visited.belief_at(i).weights.tobytes() == full.belief_at(i).weights.tobytes()


def test_visited_fill_steps_no_row_it_was_not_asked_for(canon_problem, canon_geometry,
                                                        monkeypatch):
    policy = frozen_canonical_policy(canon_problem, canon_geometry)
    tree = _HistoryTree(canon_problem, canon_geometry, policy, 8)
    stepped = []
    step_rows = solver._step_rows

    def counting(geometry, process, parents, succ, fail, out):
        stepped.append(len(parents))
        return step_rows(geometry, process, parents, succ, fail, out)

    monkeypatch.setattr(solver, "_step_rows", counting)
    rng = np.random.default_rng(3)
    asked = set()
    for count in (20, 20, 5):  # later fills find some of their rows filled
        nodes = visited_nodes(tree, rng, count)
        before = sum(stepped)
        new = ancestors_and_self(tree, nodes) - asked
        tree.fill(nodes)
        asked |= new
        assert sum(stepped) - before == len(new)
        assert set(np.flatnonzero(tree._have).tolist()) == asked | {0}


def test_visited_fill_passes_a_failed_node_error_down(monkeypatch):
    problem, geometry, policy = lopsided_two_gain_case()
    tree = _HistoryTree(problem, geometry, policy, 7)
    failing = tree.node_index[(0,) * 5]
    below = [tree.node_index[node] for node in ((0,) * 7, (0,) * 5 + (1, 0), (0,) * 6)]
    tree.fill(below)
    assert not tree._have[tree.node_index[(0, 0, 0, 0, 1)]]  # the failing node's sibling
    with pytest.raises(SupportOverflowError) as failed:
        tree.belief_at(failing)
    for i in below:
        with pytest.raises(SupportOverflowError) as again:
            tree.belief_at(i)
        assert again.value is failed.value


@pytest.mark.parametrize("steps", [None, 1])
@pytest.mark.parametrize("error", [PolicyDomainError, GridGeometryError])
def test_rollout_stops_where_the_loop_does_at_a_state_without_a_rule(
    error, steps, tiny_problem, tiny_geometry, tmp_path, monkeypatch
):
    # the policy covers only the root, or its rule after one miss is off the
    # level set, so the first miss finds no rule; the trace keeps the steps
    # before it.  One-step blocks start that miss's block at it.
    if steps is not None:
        monkeypatch.setattr(simulator, "_BLOCK_STEPS", steps)
    rules = {((), 0): on_off_action(1.0, tiny_problem.actions)}
    if error is GridGeometryError:
        rules[((0,), 0)] = np.full(tiny_geometry.n_points, 1.5)
    policy = PowerPolicy.from_rules(rules, tiny_problem.actions, tiny_geometry)
    got = []
    for name, run in (("passes", simulate), ("per-step", simulate_per_step)):
        path = tmp_path / f"{name}.csv"
        with pytest.raises(error) as err:
            run(tiny_problem, tiny_geometry, policy, "closed_form", 1000, 17, depth=3,
                trace_path=str(path))
        got.append((str(err.value), path.read_bytes()))
    assert got[0] == got[1]
    assert got[0][1].count(b"\n") > 1


def test_rollout_overflows_where_the_loop_does(tmp_path):
    # nothing gets through, so the innovation grows as 1.2^k until its
    # square leaves the floats, about 1950 steps in
    problem = ControlProblem(
        process=ScalarProcess(a=1.2, noise_var=1.0),
        channel=FadingChannel(gains=(1.0,), transition=((1.0,),)),
        reception=ReceptionModel(form="on_off", on_level=5.0, on_prob=1.0),
        actions=ActionSet(levels=(0.0, 4.0), saturation_radius=6.0),
        cost=CostWeights(alpha=0.5),
    )
    geometry = GridGeometry(half_width=20.0, n_points=401, convolution="direct")
    policy = PowerPolicy.on_off(1.5, problem.actions, geometry)
    got = []
    for name, run in (("passes", simulate), ("per-step", simulate_per_step)):
        path = tmp_path / f"{name}.csv"
        with pytest.raises(OverflowError) as err:
            run(problem, geometry, policy, "closed_form", 5000, 1, depth=3, trace_path=str(path))
        got.append((err.value.args, path.read_bytes()))
    assert got[0] == got[1]
    assert 1900 < got[0][1].count(b"\n") < 2000
