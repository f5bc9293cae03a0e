"""Command-line front end, exercised in process through run()."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import remotepower.cli as cli
import remotepower.simulator as simulator
from conftest import TINY_CONFIG
from remotepower import (
    DEFAULT_CONFIG,
    ConfigError,
    PowerPolicy,
    build_geometry,
    build_problem,
    load_config,
    solve,
    verify_structure,
)
from remotepower.cli import run


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture()
def solved(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = run(["solve", tiny_cfg_path, "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    return out, json.loads(out.read_text())


def test_print_default_config(capsys):
    assert run(["--print-default-config"]) == 0
    assert json.loads(capsys.readouterr().out) == DEFAULT_CONFIG


def test_help_and_missing_subcommand(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
    assert run([]) == 3


def test_validate_accepts_the_defaults(tmp_path, capsys):
    path = tmp_path / "defaults.json"
    path.write_text("{}")
    assert run(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "stability margin:" in out
    assert "FAIL" not in out


def test_validate_flags_insufficient_reception(tmp_path, capsys):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(
        {"reception": {"form": "on_off", "on_level": 4.0, "on_prob": 0.2}}
    ))
    assert run(["validate", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_malformed_json_is_reported_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"process": {\n  "a": }\n}')
    assert run(["validate", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"solver": {"depht": 3}}))
    assert run(["validate", str(path)]) == 3
    assert "unknown key" in capsys.readouterr().err


def test_missing_policy_file(tiny_cfg_path, tmp_path, capsys):
    code = run(["evaluate", tiny_cfg_path, "--policy", str(tmp_path / "nope.json")])
    assert code == 3
    assert "cannot read policy file" in capsys.readouterr().err


def test_solve_artifact_is_a_complete_record(solved):
    _, payload = solved
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-9
    assert payload["rho_star"] == min(payload["rho_history"])
    assert payload["config"]["solver"]["depth"] == 3
    assert payload["config"]["grid"]["half_width"] == 20.0
    assert payload["seed"] is None
    assert payload["policy"]["mode"] in ("threshold", "tabular")


def test_evaluate_reproduces_the_solved_cost(tiny_cfg_path, tmp_path, solved, capsys):
    solution_path, payload = solved
    out = tmp_path / "eval.json"
    code = run(["evaluate", tiny_cfg_path, "--policy", str(solution_path), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    ev = json.loads(out.read_text())
    assert ev["rho"] == payload["rho_star"]
    assert ev["tail_occupancy"] == payload["tail_occupancy"]


def test_simulate_is_thread_count_invariant(tiny_cfg_path, tmp_path, solved, capsys):
    solution_path, _ = solved
    a = tmp_path / "serial.json"
    b = tmp_path / "pooled.json"
    base = ["simulate", tiny_cfg_path, "--policy", str(solution_path),
            "--horizon", "2000", "--replications", "3"]
    assert run(base + ["--threads", "1", "-o", str(a)]) == 0
    assert run(base + ["--threads", "4", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_trace_embeds_provenance(tiny_cfg_path, tmp_path, solved, capsys):
    solution_path, _ = solved
    out = tmp_path / "metrics.json"
    trace = tmp_path / "trace.csv"
    code = run([
        "simulate", tiny_cfg_path, "--policy", str(solution_path),
        "--horizon", "500", "--replications", "1", "--seed", "123",
        "-o", str(out), "--trace", str(trace),
    ])
    capsys.readouterr()
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0][len("# config: "):])["solver"]["depth"] == 3
    assert lines[1] == "# seed: 123"
    assert lines[2].split(",")[:3] == ["k", "x", "x_hat_closed"]
    assert len(lines) == 3 + 500
    assert json.loads(out.read_text())["seed"] == 123


def test_sweep_with_free_power(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", tiny_cfg_path, "--alpha", "0", "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# seed: null"
    assert lines[2] == "alpha,rho_star,mean_power,mean_error"
    alpha, rho, power, error = (float(c) for c in lines[3].split(","))
    assert alpha == 0.0
    assert power == pytest.approx(4.0, abs=1e-9)  # nothing discourages transmitting
    assert rho == pytest.approx(error, rel=1e-12)


def test_sweep_rejects_bad_alpha_range(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", tiny_cfg_path, "--alpha", "1:0:2", "-o", str(out)]) == 3
    assert "bad --alpha range" in capsys.readouterr().err


def test_rearrange_demo_tabulates_both_rules(tiny_cfg_path, tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert run(["rearrange-demo", tiny_cfg_path, "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[2] == "e,a,a_sigma,theta,theta_hat"
    assert len(lines) == 3 + 401
    first = [float(c) for c in lines[3].split(",")]
    assert first[0] == -20.0


def test_verify_structure_on_the_tiny_instance(tiny_cfg_path, capsys):
    assert run(["verify-structure", tiny_cfg_path, "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "threshold class optimal in one-step backup" in out
    assert "FAIL" not in out
    # saturation radius 6 leaves no leak-free probe region on this instance
    assert "skipped" in out


def test_unconverged_solve_exits_2(tmp_path, capsys):
    cfg = dict(TINY_CONFIG)
    cfg["solver"] = {"depth": 3, "max_rounds": 1}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "solution.json"
    assert run(["solve", str(path), "-o", str(out)]) == 2
    assert "before convergence" in capsys.readouterr().err
    assert json.loads(out.read_text())["converged"] is False
    assert run(["verify-structure", str(path), "--samples", "5"]) == 2


def _assert_one_line_input_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize(
    "cfg",
    [
        {"grid": {"half_width": 10.0}},  # inside the saturation radius 12
        {"actions": {"saturation_radius": 2.0}, "grid": {"half_width": 4.0}},  # 4 noise sigmas
    ],
)
def test_solve_on_a_too_narrow_grid_exits_3(tmp_path, capsys, cfg):
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    _assert_one_line_input_error(run(["solve", str(path)]), capsys)


def test_simulate_rejects_a_nonpositive_horizon(tiny_cfg_path, solved, capsys):
    solution_path, _ = solved
    code = run(["simulate", tiny_cfg_path, "--policy", str(solution_path), "-T", "0"])
    _assert_one_line_input_error(code, capsys)


def test_simulate_rejects_a_nonpositive_replication_count(tiny_cfg_path, solved, capsys):
    solution_path, _ = solved
    code = run(["simulate", tiny_cfg_path, "--policy", str(solution_path),
                "--replications", "0"])
    _assert_one_line_input_error(code, capsys)


@pytest.mark.parametrize(
    "cfg",
    [
        {"grid": {"half_width": [1]}},
        {"grid": {"half_width": None, "n_points": None}},
        {"solver": {"depth": "8"}},
        {"solver": {"depth": 0}},
        {"solver": {"max_rounds": 0}},
        {"solver": {"threshold_points": 1}},
    ],
)
def test_bad_grid_or_solver_values_are_input_errors(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    _assert_one_line_input_error(run(["solve", str(path)]), capsys)


def _tiny_config_with(tmp_path, section: str, entries: dict) -> str:
    cfg = dict(TINY_CONFIG)
    cfg[section] = {**TINY_CONFIG.get(section, {}), **entries}
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "entries",
    [{"horizon": "100"}, {"horizon": 100.5}, {"replications": 2.0}, {"replications": True}],
)
def test_simulate_rejects_non_integer_counts(tmp_path, solved, capsys, entries):
    solution_path, _ = solved
    path = _tiny_config_with(tmp_path, "simulate", entries)
    code = run(["simulate", path, "--policy", str(solution_path)])
    _assert_one_line_input_error(code, capsys)


@pytest.mark.parametrize(
    "section, entries",
    [
        ("grid", {"n_points": 401.9}),
        ("grid", {"n_points": True}),
        ("channel", {"initial_gain_index": 0.0}),
        ("channel", {"initial_gain_index": "0"}),
    ],
)
def test_grid_size_and_gain_index_must_be_integers(tmp_path, capsys, section, entries):
    path = _tiny_config_with(tmp_path, section, entries)
    _assert_one_line_input_error(run(["solve", path]), capsys)


def test_simulate_trace_comes_from_the_one_run_of_replication_zero(
    tiny_cfg_path, tmp_path, solved, capsys, monkeypatch
):
    runs = []
    real = simulator.simulate

    def counting(*args, **kwargs):
        runs.append(kwargs.get("replication", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting, raising=False)
    solution_path, _ = solved
    out = tmp_path / "metrics.json"
    trace = tmp_path / "trace.csv"
    code = run([
        "simulate", tiny_cfg_path, "--policy", str(solution_path), "--horizon", "400",
        "--replications", "3", "--seed", "5", "-o", str(out), "--trace", str(trace),
    ])
    capsys.readouterr()
    assert code == 0
    assert sorted(runs) == [0, 1, 2]
    rows = [line.split(",") for line in trace.read_text().splitlines()[3:]]
    cost = 0.0
    for row in rows:
        cost += float(row[8]) + float(row[9])
    metrics = json.loads(out.read_text())["metrics"]
    assert cost / 400 == metrics["per_replication"][0]["avg_cost"]


def test_simulate_trace_is_thread_count_invariant(tiny_cfg_path, tmp_path, solved, capsys):
    solution_path, _ = solved
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"metrics{threads}.json"
        trace = tmp_path / f"trace{threads}.csv"
        code = run([
            "simulate", tiny_cfg_path, "--policy", str(solution_path), "--horizon", "400",
            "--replications", "3", "--seed", "5", "--threads", threads,
            "-o", str(out), "--trace", str(trace),
        ])
        assert code == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "section, entries",
    [
        ("process", {"a": "1.2"}),
        ("process", {"noise_var": True}),
        ("process", {"init_var": None}),
        ("channel", {"gains": [1.0, "2.0"]}),
        ("channel", {"gains": "0.5"}),
        ("channel", {"transition": [[0.8, 0.2], [True, 0.7]]}),
        ("channel", {"transition": "[[1.0]]"}),
        ("reception", {"scale": "1"}),
        ("reception", {"on_level": False}),
        ("reception", {"on_prob": "1.0"}),
        ("actions", {"levels": [0.0, "4.0"]}),
        ("actions", {"saturation_radius": True}),
        ("cost", {"alpha": True}),
        ("cost", {"alpha": "0.5"}),
        ("grid", {"half_width": "20"}),
    ],
)
def test_real_valued_entries_must_be_json_numbers(tmp_path, capsys, section, entries):
    path = _tiny_config_with(tmp_path, section, entries)
    # validate builds the model sections only, not the grid
    for command in ("solve",) if section == "grid" else ("validate", "solve"):
        _assert_one_line_input_error(run([command, path]), capsys)


@pytest.mark.parametrize(
    "section, entries",
    [
        ("cost", {"alpha": float("nan")}),
        ("cost", {"alpha": float("inf")}),
        ("process", {"a": float("-inf")}),
        ("channel", {"gains": [float("nan")]}),
        ("actions", {"saturation_radius": float("inf")}),
        ("reception", {"scale": 10**400}),
        ("grid", {"half_width": float("nan")}),
        ("solver", {"tol_rho": float("inf")}),
    ],
)
def test_non_finite_config_numbers_are_input_errors(tmp_path, capsys, section, entries):
    # json writes and reads NaN, Infinity and -Infinity literals
    path = _tiny_config_with(tmp_path, section, entries)
    for command in ("solve",) if section == "grid" else ("validate", "solve"):
        _assert_one_line_input_error(run([command, path]), capsys)


@pytest.mark.parametrize("alpha", ["nan:1:2", "0:inf:1", "0:0.5:inf", "-inf:1:0", "nan"])
def test_sweep_rejects_a_non_finite_alpha_range(tiny_cfg_path, tmp_path, capsys, alpha):
    out = tmp_path / "sweep.csv"
    code = run(["sweep", tiny_cfg_path, f"--alpha={alpha}", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "bad --alpha range" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_verify_structure_needs_at_least_one_sample(tiny_cfg_path, capsys, samples):
    code = run(["verify-structure", tiny_cfg_path, "--samples", samples])
    _assert_one_line_input_error(code, capsys)


@pytest.mark.parametrize("command", ["simulate", "verify-structure"])
@pytest.mark.parametrize(
    "entries",
    [
        {"window": float("nan")},
        {"window": 0},
        {"window": -5},
        {"window": 2.5},
        {"base_seed": float("nan")},
        {"base_seed": -1},
        {"base_seed": 1.5},
        {"base_seed": "7"},
        {"estimator": "bogus"},
    ],
)
def test_bad_simulate_settings_are_input_errors(tmp_path, solved, capsys, command, entries):
    solution_path, _ = solved
    path = _tiny_config_with(tmp_path, "simulate", entries)
    code = run([command, path, "--policy", str(solution_path)])
    _assert_one_line_input_error(code, capsys)


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_needs_at_least_one_thread(tiny_cfg_path, solved, capsys, threads):
    solution_path, _ = solved
    code = run(["simulate", tiny_cfg_path, "--policy", str(solution_path), "--threads", threads])
    _assert_one_line_input_error(code, capsys)


@pytest.mark.parametrize("command", ["simulate", "verify-structure"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_seed_flag_is_an_input_error(tiny_cfg_path, solved, capsys, command, seed):
    solution_path, _ = solved
    code = run([command, tiny_cfg_path, "--policy", str(solution_path), "--seed", seed])
    _assert_one_line_input_error(code, capsys)


def _tiny_setup(tiny_cfg_path):
    cfg = load_config(tiny_cfg_path)
    problem = build_problem(cfg)
    return cfg, problem, build_geometry(cfg, problem)


def test_verify_structure_fails_a_lopsided_policy(tiny_cfg_path, tmp_path, capsys):
    _, problem, geometry = _tiny_setup(tiny_cfg_path)
    nodes = geometry.nodes()
    rule = np.where((nodes > 1) | (np.abs(nodes) > 6), 4.0, 0.0)
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(PowerPolicy.uniform(rule, problem.actions, geometry).to_dict()))
    code = run(["verify-structure", tiny_cfg_path, "--policy", str(path), "--samples", "20"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "actions symmetric and outward monotone       FAIL  3 violations: asymmetric at mirrored nodes",
        "threshold class optimal in one-step backup   FAIL  max tabular advantage 2.358e-02 (tol 1e-05)",
        "rearranged rule never costs more             PASS  20 probes, worst margin 1.829e-01",
        "belief order survives a failed transmission  PASS  skipped: saturation radius too tight for a leak-free probe region",
    ]


def test_verify_structure_on_the_frozen_canonical_policy(capsys):
    inputs = os.path.join(os.path.dirname(__file__), "..", "bench", "inputs")
    code = run([
        "verify-structure", os.path.join(inputs, "check-canonical.json"),
        "--policy", os.path.join(inputs, "canonical_policy.json"),
        "--seed", "1", "--samples", "400",
    ])
    shape, witness, cost_order, belief_order = capsys.readouterr().out.splitlines()
    assert code == 0
    assert shape.endswith("PASS  510 states")
    assert "max tabular advantage 0.000e+00" in witness
    assert "worst margin 4.470e-02" in cost_order
    assert belief_order.endswith("PASS  400 probes")


def test_verify_structure_rows_are_what_the_cli_prints(tiny_cfg_path, capsys):
    assert run(["verify-structure", tiny_cfg_path, "--seed", "3", "--samples", "40"]) == 0
    printed = capsys.readouterr().out
    cfg, problem, geometry = _tiny_setup(tiny_cfg_path)
    result = solve(problem, geometry, **cli._solver_args(cfg))
    rows = verify_structure(result.chain, result.evaluation, samples=40, seed=3)
    assert cli._print_table(rows)
    assert capsys.readouterr().out == printed


_IMPORT_GUARD = """
import sys
import remotepower, remotepower.cli
from remotepower.cli import run

HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

assert not loaded(), f"import loads {loaded()}"
config, solution = sys.argv[1:]
assert run(["solve", config, "-o", solution]) == 0
assert run(["simulate", config, "--policy", solution, "-o", solution + ".sim"]) == 0
assert run(["verify-structure", config, "--samples", "5"]) == 0
assert not loaded(), f"the commands load {loaded()}"
"""


def test_commands_never_load_scipy_signal(tiny_cfg_path, tmp_path):
    # a fresh interpreter: this one has imported everything the suite uses
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, tiny_cfg_path, str(tmp_path / "solution.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


_THREAD_GUARD = """
import sys, threading
import remotepower, remotepower.cli

assert threading.active_count() == 1, f"import starts {threading.enumerate()}"
assert remotepower.cli.run(["validate", sys.argv[1]]) == 0
assert threading.active_count() == 1, f"validate starts {threading.enumerate()}"
"""


def test_import_and_validate_start_no_thread(tiny_cfg_path):
    # a fresh interpreter: pytest may run threads of its own
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _THREAD_GUARD, tiny_cfg_path],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_sweep_rejects_a_range_with_too_many_points(tiny_cfg_path, tmp_path, capsys):
    # (stop - start) / step overflows to inf: the point count is not finite
    out = tmp_path / "sweep.csv"
    code = run(["sweep", tiny_cfg_path, "--alpha", "0:1e-320:1", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "bad --alpha range" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


_FOOTPRINT_GUARD = """
import math, sys
import remotepower
from remotepower import ScalarProcess, error_growth_windows
from remotepower.cli import run

OPTIONAL = ("scipy.fft", "scipy.special", "scipy.sparse.csgraph", "concurrent.futures.process")

def loaded():
    return [m for m in OPTIONAL if m in sys.modules]

assert not loaded(), f"import remotepower loads {loaded()}"
config, solution = sys.argv[1:]
for argv in (
    ["validate", config],
    ["solve", config, "-o", solution],
    ["evaluate", config, "--policy", solution, "-o", solution + ".eval"],
    ["simulate", config, "--policy", solution, "--threads", "1", "-o", solution + ".sim"],
    ["verify-structure", config, "--samples", "5"],
    ["rearrange-demo", config, "-o", solution + ".csv"],
):
    assert run(argv) == 0, argv
    assert not loaded(), f"{argv[0]} loads {loaded()}"

windows = error_growth_windows(ScalarProcess(a=1.2, noise_var=1.0), 50_000, 10_000, 1)
assert "scipy.special" in sys.modules
assert windows == [3639.8441835122744, 7286.275319391366, 10932.70645527046,
                   14579.13759114955, 18225.56872702864], windows
"""


def test_commands_at_one_thread_load_no_optional_module(tiny_cfg_path, tmp_path):
    # a fresh interpreter: this one has imported everything the suite uses
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_GUARD, tiny_cfg_path, str(tmp_path / "solution.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _edited_policy(solved, tmp_path, edit) -> str:
    """The tiny solve output with `edit` applied to its policy, as a file."""
    _, payload = solved
    payload = json.loads(json.dumps(payload))
    edit(payload["policy"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _bad_policy_runs(tiny_cfg_path, policy_path, capsys) -> list[tuple[int, str]]:
    """Exit code and stderr of each command that reads a stored policy."""
    results = []
    for command in ("evaluate", "simulate", "verify-structure"):
        code = run([command, tiny_cfg_path, "--policy", policy_path])
        results.append((code, capsys.readouterr().err))
    return results


def test_a_policy_with_the_wrong_threshold_count_is_bad_input(tiny_cfg_path, tmp_path, solved, capsys):
    # two thresholds for the tiny config's two power levels, which take one
    path = _edited_policy(solved, tmp_path, lambda p: p["states"][0].update(thresholds=[1.0, 2.0]))
    for code, err in _bad_policy_runs(tiny_cfg_path, path, capsys):
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "2 thresholds cannot address 2 power levels" in err


def test_a_policy_threshold_past_the_saturation_radius_is_bad_input(
    tiny_cfg_path, tmp_path, solved, capsys
):
    path = _edited_policy(solved, tmp_path, lambda p: p["states"][0].update(thresholds=[7.0]))
    for code, err in _bad_policy_runs(tiny_cfg_path, path, capsys):
        assert code == 3
        assert len(err.strip().splitlines()) == 1
        assert "top threshold exceeds the saturation radius" in err


def test_a_policy_that_misses_a_state_is_bad_input(tiny_cfg_path, tmp_path, solved, capsys):
    path = _edited_policy(solved, tmp_path, lambda p: p["states"].pop())
    for code, err in _bad_policy_runs(tiny_cfg_path, path, capsys):
        assert code == 3
        assert err == "error: policy does not cover node (0, 0) at gain 0\n"


def test_verify_structure_reports_a_probe_measure_mismatch_as_bad_input(tmp_path, capsys):
    # on the tiny grid a saturation radius of 10.02 leaves a probe's two
    # beliefs with different mass beyond it
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["actions"]["saturation_radius"] = 10.02
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    code = run(["verify-structure", str(path), "--samples", "40", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: beliefs differ by ")
    assert len(captured.err.strip().splitlines()) == 1


def test_sweep_refuses_more_than_the_most_points(tiny_cfg_path, tmp_path, capsys):
    # a finite span of 1e300 steps
    out = tmp_path / "sweep.csv"
    code = run(["sweep", tiny_cfg_path, "--alpha", "0:1e-300:1", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "bad --alpha range" in err and "too many points" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    assert len(cli._parse_alpha_range(f"0:1:{cli._MAX_SWEEP_POINTS - 1}")) == cli._MAX_SWEEP_POINTS
    with pytest.raises(cli.ConfigError, match="too many points"):
        cli._parse_alpha_range(f"0:1:{cli._MAX_SWEEP_POINTS}")


def test_a_nan_threshold_in_a_stored_policy_is_a_config_error(tmp_path, capsys):
    inputs = os.path.join(os.path.dirname(__file__), "..", "bench", "inputs")
    with open(os.path.join(inputs, "canonical_policy.json")) as f:
        payload = json.load(f)
    root = next(s for s in payload["policy"]["states"] if s["node"] == [] and s["gain"] == 0)
    root["thresholds"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    code = run(["evaluate", os.path.join(inputs, "solve-canonical.json"), "--policy", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "thresholds must be nonnegative and nondecreasing" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"baseline": "on_off", "baseline_param": None},
        {"baseline": "bogus", "baseline_param": 2.0, "enforce": False},
    ],
)
def test_malformed_baseline_policies_are_input_errors(tiny_cfg_path, tmp_path, capsys, fields):
    policy = {"mode": "baseline", "levels": [0.0, 4.0], "saturation_radius": 6.0,
              "grid": {"half_width": 20.0, "n_points": 401}, "default": None, "states": [],
              **fields}
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(policy))
    code = run(["evaluate", tiny_cfg_path, "--policy", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("config error:") and "baseline" in err
    assert len(err.strip().splitlines()) == 1


def test_a_null_half_width_is_worked_out_from_the_model(tmp_path, capsys):
    path = _tiny_config_with(tmp_path, "grid", {"half_width": None, "n_points": 2001})
    assert run(["solve", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    # 30 * sqrt(W / (1 - q(u_max, h_min))) with W = 1 and q = 1 - exp(-4)
    assert payload["config"]["grid"]["half_width"] == 221.67168296791928
    with pytest.raises(ConfigError, match="grid.half_width: null requires the model sections"):
        build_geometry(load_config(path))


def test_solve_into_a_missing_directory_is_an_io_error(tiny_cfg_path, tmp_path, capsys):
    code = run(["solve", tiny_cfg_path, "-o", str(tmp_path / "absent" / "out.json")])
    assert _assert_one_line_input_error(code, capsys).startswith("i/o error: ")


@pytest.mark.parametrize(
    "case, expected",
    [
        ("missing", "cannot read policy file"),
        ("malformed", "malformed JSON in"),
        ("other grid", "does not match the config: policy grid does not match the configured grid"),
        ("other saturation radius", "policy saturation radius does not match the configuration"),
    ],
)
def test_unreadable_or_mismatched_policy_files_are_config_errors(
    tiny_cfg_path, tmp_path, solved, capsys, case, expected
):
    broken = tmp_path / "broken.json"
    broken.write_text('{"policy": ')
    paths = {
        "missing": lambda: str(tmp_path / "nope.json"),
        "malformed": lambda: str(broken),
        "other grid": lambda: _edited_policy(
            solved, tmp_path, lambda p: p["grid"].update(n_points=201)),
        "other saturation radius": lambda: _edited_policy(
            solved, tmp_path, lambda p: p.update(saturation_radius=5.0)),
    }
    code = run(["evaluate", tiny_cfg_path, "--policy", paths[case]()])
    err = _assert_one_line_input_error(code, capsys)
    assert err.startswith("config error: ") and expected in err


def test_an_impossible_depth_is_one_error_line(tmp_path, capsys):
    cfg = {**TINY_CONFIG, "channel": {"gains": [0.5, 2.0], "transition": [[0.5, 0.5], [0.5, 0.5]]},
           "solver": {"depth": 40}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cfg))
    err = _assert_one_line_input_error(run(["solve", str(path)]), capsys)
    assert err.startswith("error: the failure-history tree of depth 40 has 2199023255551 nodes")


@pytest.mark.filterwarnings("ignore:.*process is not unstable")
def test_an_order_probe_radius_past_the_grid_is_one_config_error(tmp_path, capsys):
    # (L - 6 sigma_w) / |a| = (12 - 6) / 0.25 = 24 on a +-20 grid
    cfg = {"process": {"a": 0.25, "noise_var": 1.0},
           "actions": {"levels": [0, 4], "saturation_radius": 12},
           "grid": {"half_width": 20, "n_points": 401}}
    path = tmp_path / "contracting.json"
    path.write_text(json.dumps(cfg))
    err = _assert_one_line_input_error(run(["verify-structure", str(path)]), capsys)
    assert err.startswith("config error: ") and "= 24 " in err and "half width 20" in err
