"""verify_structure's randomized probes: chunks of rows against one probe at a time."""

import dataclasses
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_tiny_problem
from oracles import rearrangement_lexsort, verify_structure_per_probe
from remotepower import (
    ActionSet,
    BeliefGrid,
    ControlProblem,
    CostWeights,
    FadingChannel,
    GridGeometry,
    PowerPolicy,
    ReceptionModel,
    ScalarProcess,
    build_chain,
    build_geometry,
    build_problem,
    evaluate_policy,
    load_config,
    symmetric_decreasing_rearrangement,
    verify_structure,
)
from remotepower.rearrange import _rearranged_rows
from remotepower.solver import _cost_margins, _order_verdicts

INPUTS = os.path.join(os.path.dirname(__file__), "..", "bench", "inputs")


def frozen_canonical_chain():
    cfg = load_config(os.path.join(INPUTS, "check-canonical.json"))
    problem = build_problem(cfg)
    geometry = build_geometry(cfg, problem)
    with open(os.path.join(INPUTS, "canonical_policy.json")) as f:
        policy = PowerPolicy.from_dict(json.load(f)["policy"], problem.actions, geometry)
    return build_chain(problem, geometry, policy, cfg["solver"]["depth"])


def probe_chain(*, a=1.2, noise_var=1.0, scale=1.0, levels=(0.0, 2.0, 4.0),
                saturation_radius=10.0, half_width=20.0, n_points=401, convolution="fft"):
    """A two-gain problem's depth-1 chain: the probes read only its problem
    and grid."""
    problem = ControlProblem(
        process=ScalarProcess(a=a, noise_var=noise_var),
        channel=FadingChannel(gains=(1.0, 2.0), transition=((0.6, 0.4), (0.3, 0.7))),
        reception=ReceptionModel(form="exponential", scale=scale),
        actions=ActionSet(levels=levels, saturation_radius=saturation_radius),
        cost=CostWeights(alpha=0.5),
    )
    geometry = GridGeometry(half_width=half_width, n_points=n_points, convolution=convolution)
    return build_chain(problem, geometry, PowerPolicy.max_power(problem.actions, geometry), 1)


def pipeline(chain, samples, seed):
    """The chunked probe loops, with the draws verify_structure makes."""
    problem = chain.problem
    L = problem.actions.saturation_radius
    rng = np.random.default_rng(seed)
    margins = _cost_margins(chain, rng, samples)
    order_radius = (L - 6.0 * problem.process.noise_var**0.5) / abs(problem.process.a)
    verdicts = []
    if order_radius >= 10.0 * chain.geometry.spacing:
        verdicts = _order_verdicts(chain, rng, order_radius, samples)
    return margins, verdicts


CASES = {
    # the canonical problem, grid and frozen policy, as check-canonical runs it
    "frozen-canonical": (frozen_canonical_chain, 400, 1),
    # a contracting sign flip: the step reverses every row
    "negative-a": (lambda: probe_chain(a=-1.2), 96, 5),
    "direct-grid": (lambda: probe_chain(convolution="direct"), 96, 2),
    # a 129-point grid on +-32 with success certain at every level above zero:
    # a permutation that leaves no mass inside the first switch radius makes
    # the failure branch degenerate
    "degenerate-steps": (lambda: probe_chain(
        a=1.05, noise_var=1e-4, scale=0.01, saturation_radius=30.25, half_width=32.0,
        n_points=129,
    ), 100, 4),
}


@pytest.mark.parametrize("case", list(CASES))
def test_chunked_probes_equal_the_probes_one_at_a_time(case):
    make_chain, samples, seed = CASES[case]
    chain = make_chain()
    want = verify_structure_per_probe(chain, samples, seed)
    margins, verdicts = pipeline(chain, samples, seed)
    assert margins == want["margins"]
    assert verdicts == want["verdicts"]
    assert len(verdicts) == samples
    if case == "degenerate-steps":
        assert want["skipped"] >= 1
    evaluation = evaluate_policy(chain, chain.problem.cost)
    rows = verify_structure(chain, evaluation, samples=samples, seed=seed)
    cost_row, order_row = rows[2], rows[3]
    assert cost_row[2] == f"{samples} probes, worst margin {min(want['margins']):.3e}"
    assert order_row[1:] == (False not in want["verdicts"], f"{want['checked']} probes")


def test_the_frozen_canonical_probes_are_pinned():
    margins, verdicts = pipeline(frozen_canonical_chain(), 400, 1)
    assert f"{min(margins):.3e}" == "4.470e-02"
    assert verdicts == [True] * 400


def bits(weights: np.ndarray) -> bytes:
    return np.ascontiguousarray(weights).view(np.uint64).tobytes()


def awkward_beliefs(geometry, rng):
    """Beliefs whose rearrangement has ties and edges to get right."""
    nodes = geometry.nodes()
    n = geometry.n_points
    out = []
    # long runs of tied zeros around a few spikes
    w = np.zeros(n)
    spikes = min(7, n)
    w[rng.choice(n, size=spikes, replace=False)] = rng.random(spikes)
    w[n // 2] = 1.0
    out.append(w)
    # mass in the two half-width endpoint cells, tied with each other and not
    w = np.full(n, 1e-3)
    w[0] = w[-1] = 5.0
    out.append(w)
    w = rng.random(n) ** 8
    w[0], w[-1] = 3.0, 2.0
    out.append(w)
    # endpoint cells tied with a run of interior zeros
    w = np.exp(-0.5 * (nodes / (0.05 * geometry.half_width)) ** 2)
    w[np.abs(nodes) > 0.4 * geometry.half_width] = 0.0
    out.append(w)
    # an off-centre bump, and a lopsided pair of bumps
    out.append(np.exp(-0.5 * ((nodes - 0.3 * geometry.half_width) / 1.3) ** 2))
    out.append(np.exp(-((nodes + 2.0) ** 2)) + 0.3 * np.exp(-((nodes - 5.0) ** 2) / 4.0))
    # an even belief, which comes back as itself up to renormalization
    out.append(np.exp(-0.5 * (nodes / (0.2 * geometry.half_width)) ** 2))
    cell_w = geometry.cell_widths()
    return [BeliefGrid(geometry, w / float(cell_w @ w)) for w in out]


@pytest.mark.parametrize("convolution", ["fft", "direct"])
@pytest.mark.parametrize("shape", [(20.0, 401), (60.0, 4001), (1.0, 3), (3.0, 1501)])
def test_row_rearrangement_equals_the_lexsort_rearrangement(convolution, shape, rng):
    geometry = GridGeometry(half_width=shape[0], n_points=shape[1], convolution=convolution)
    beliefs = awkward_beliefs(geometry, rng)
    rows = np.array([b.weights for b in beliefs])
    errors = [None] * len(rows)
    got = _rearranged_rows(geometry, rows, errors)
    assert errors == [None] * len(rows)
    for belief, row in zip(beliefs, got):
        want = rearrangement_lexsort(geometry, belief.weights)
        assert bits(row) == bits(want)
        assert bits(symmetric_decreasing_rearrangement(belief).weights) == bits(want)


def test_a_row_holding_negative_zero_is_rearranged_by_the_full_sort():
    geometry = GridGeometry(half_width=20.0, n_points=401)
    w = np.exp(-0.5 * (geometry.nodes() - 1.0) ** 2)
    w[np.abs(geometry.nodes()) > 6.0] = 0.0
    w[::7] = np.where(w[::7] == 0.0, -0.0, w[::7])
    w /= float(geometry.cell_widths() @ w)
    assert np.signbit(w).any()
    errors = [None]
    got = _rearranged_rows(geometry, w[None], errors)
    assert errors == [None]
    assert bits(got[0]) == bits(rearrangement_lexsort(geometry, w))


@pytest.mark.parametrize(
    "kwargs",
    [{"samples": True}, {"samples": 2.5}, {"samples": 0}, {"seed": True}, {"seed": 2.5},
     {"seed": -1}, {"samples": np.float64(3.0)}],
)
def test_verify_structure_rejects_bad_samples_and_seeds(kwargs, tiny_geometry):
    problem = make_tiny_problem()
    policy = PowerPolicy.max_power(problem.actions, tiny_geometry)
    chain = build_chain(problem, tiny_geometry, policy, 3)
    evaluation = evaluate_policy(chain, problem.cost)
    args = {"samples": 5, "seed": 1, **kwargs}
    with pytest.raises(ValueError, match="samples" if "samples" in kwargs else "seed"):
        verify_structure(chain, evaluation, **args)


def test_verify_structure_takes_no_seed(tiny_geometry):
    problem = make_tiny_problem()
    policy = PowerPolicy.max_power(problem.actions, tiny_geometry)
    chain = build_chain(problem, tiny_geometry, policy, 3)
    rows = verify_structure(chain, evaluate_policy(chain, problem.cost), samples=3, seed=None)
    assert rows[2][2].startswith("3 probes")


def test_the_first_failing_probe_raises_as_it_does_one_at_a_time():
    # a saturation radius inside a cell: shuffled mass leaks past it
    chain = probe_chain(saturation_radius=10.02)
    with pytest.raises(ValueError) as want:
        verify_structure_per_probe(chain, 40, 3)
    with pytest.raises(ValueError) as got:
        pipeline(chain, 40, 3)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert type(got.value).__name__ == "MeasureMatchError"


def probes_on(monkeypatch, caplog, cpus, chain, samples, seed):
    """Both probe passes on one generator with `cpus` CPUs and a pool from
    one probe on: the margins, the verdicts, the generator's final state,
    and the worker count each pass logged."""
    import remotepower.solver as solver

    monkeypatch.setattr(solver, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(solver, "_POOL_MIN_PROBES", 1)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="remotepower.solver"):
        problem = chain.problem
        L = problem.actions.saturation_radius
        rng = np.random.default_rng(seed)
        margins = _cost_margins(chain, rng, samples)
        order_radius = (L - 6.0 * problem.process.noise_var**0.5) / abs(problem.process.a)
        verdicts = _order_verdicts(chain, rng, order_radius, samples)
    workers = [int(re.search(r"on (\d+) worker", r.getMessage()).group(1)) for r in caplog.records]
    return margins, verdicts, rng.bit_generator.state, workers


@pytest.mark.parametrize("case", ["frozen-canonical", "negative-a", "degenerate-steps"])
def test_the_pool_and_the_serial_loop_give_the_same_probes(case, monkeypatch, caplog):
    make_chain, samples, seed = CASES[case]
    chain = make_chain()
    *serial, serial_workers = probes_on(monkeypatch, caplog, 1, chain, samples, seed)
    *pooled, pooled_workers = probes_on(monkeypatch, caplog, 2, chain, samples, seed)
    assert (serial_workers, pooled_workers) == ([1, 1], [2, 2])
    assert pooled == serial
    assert len(serial[1]) == samples
    if case == "degenerate-steps":
        assert None in serial[1]
    assert multiprocessing.active_children() == []


def overflowing_probe_chain():
    """Probes whose order steps push mass past the +-12 grid: the first to
    overflow is order probe 29 of 40 at seed 2, and later ones overflow too.
    The chain is built at a = 1.2, whose own steps fit, and its problem
    swapped for a = 1.8; the probes read only the problem and the grid."""
    chain = probe_chain(half_width=12.0, n_points=241)
    problem = dataclasses.replace(chain.problem, process=ScalarProcess(a=1.8, noise_var=1.0))
    return dataclasses.replace(chain, problem=problem)


@pytest.mark.parametrize("case", ["measure-match", "support-overflow"])
def test_the_pool_raises_the_first_failing_probe_s_error(case, monkeypatch, caplog):
    # measure-match: a saturation radius inside a cell, so shuffled mass leaks past it
    chain, seed, name = {
        "measure-match": (lambda: probe_chain(saturation_radius=10.02), 3, "MeasureMatchError"),
        "support-overflow": (overflowing_probe_chain, 2, "SupportOverflowError"),
    }[case]
    chain = chain()
    errors = []
    for cpus in (1, 2):
        with pytest.raises(ValueError) as err:
            probes_on(monkeypatch, caplog, cpus, chain, 40, seed)
        errors.append(err.value)
        assert multiprocessing.active_children() == []
    serial, pooled = errors
    assert type(pooled) is type(serial) and type(serial).__name__ == name
    assert str(pooled) == str(serial)


VERIFY_ERRORS = {
    "measure-match": (lambda: probe_chain(saturation_radius=10.02), 3, "MeasureMatchError"),
    "support-overflow": (overflowing_probe_chain, 2, "SupportOverflowError"),
    # a contracting plant puts the order probes' radius, (L - 6 sigma_w) / |a|
    # = 24, past the +-20 grid, while the cost probes fit
    "order-radius-off-grid": (lambda: probe_chain(a=0.25, saturation_radius=12.0), 1,
                              "ValueError"),
    # the same, with a cost probe failing first
    "cost-fails-first": (lambda: probe_chain(a=0.25, saturation_radius=12.02), 3,
                         "MeasureMatchError"),
}


@pytest.mark.filterwarnings("ignore:.*process is not unstable")
@pytest.mark.parametrize("case", list(VERIFY_ERRORS))
def test_verify_structure_raises_the_same_error_with_the_pool(case, monkeypatch):
    # the pool takes both passes at once, and the caller draws the order
    # probes before any cost probe is scored
    import remotepower.solver as solver

    make_chain, seed, name = VERIFY_ERRORS[case]
    chain = make_chain()
    evaluation = evaluate_policy(chain, chain.problem.cost)
    monkeypatch.setattr(solver, "_POOL_MIN_PROBES", 1)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(solver, "_cpu_count", lambda cpus=cpus: cpus)
        with pytest.raises(ValueError) as err:
            verify_structure(chain, evaluation, samples=40, seed=seed)
        errors.append(err.value)
        assert multiprocessing.active_children() == []
    serial, pooled = errors
    assert type(pooled) is type(serial) and type(serial).__name__ == name
    assert str(pooled) == str(serial)


@pytest.mark.filterwarnings("ignore:.*process is not unstable")
def test_an_order_radius_past_the_grid_is_named_with_the_half_width(monkeypatch):
    import remotepower.solver as solver

    chain = probe_chain(a=0.25, saturation_radius=12.0)
    evaluation = evaluate_policy(chain, chain.problem.cost)
    monkeypatch.setattr(solver, "_POOL_MIN_PROBES", 1)
    for cpus in (1, 2):
        monkeypatch.setattr(solver, "_cpu_count", lambda cpus=cpus: cpus)
        with pytest.raises(ValueError, match=r"radius .* = 24 .*half width 20$") as err:
            verify_structure(chain, evaluation, samples=40, seed=1)
        assert type(err.value) is ValueError
        assert multiprocessing.active_children() == []


_ONE_CPU_GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
import remotepower.solver as solver
from remotepower import evaluate_policy, verify_structure
from test_structure_probes import probe_chain

chain = probe_chain()
evaluation = evaluate_policy(chain, chain.problem.cost)
solver._cpu_count = lambda: 1
rows = verify_structure(chain, evaluation, samples=400, seed=1)
assert rows[3][2] == "400 probes", rows
assert "concurrent.futures.process" not in sys.modules, "one CPU loads the pool"
solver._cpu_count = lambda: 2
assert verify_structure(chain, evaluation, samples=400, seed=1) == rows
assert "concurrent.futures.process" in sys.modules, "two CPUs take no pool"
"""


def test_probes_on_one_cpu_load_no_process_pool():
    # a fresh interpreter: this one may have loaded the pool already
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    src = os.path.join(here, "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU_GUARD, here],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
