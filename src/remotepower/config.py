"""JSON experiment configs: defaults, merging, and model construction.

A config is one JSON document with the sections process, channel, reception,
actions, cost, grid, solver, and simulate.  User files override defaults key
by key within each section; unknown sections or keys are rejected so typos
fail loudly instead of silently running the default.
"""

from __future__ import annotations

import copy
import json
import math
import sys

from .belief import GridGeometry
from .model import (
    ActionSet,
    ControlProblem,
    CostWeights,
    FadingChannel,
    ModelError,
    ReceptionModel,
    ScalarProcess,
    _is_int,
    reception_prob,
)


class ConfigError(ValueError):
    """Config file missing, malformed, or containing unknown/invalid entries."""


DEFAULT_CONFIG: dict = {
    "process": {"a": 1.2, "noise_var": 1.0, "init_var": 1.0},
    "channel": {
        "gains": [0.5, 2.0],
        "transition": [[0.8, 0.2], [0.3, 0.7]],
        "initial_gain_index": 0,
    },
    "reception": {"form": "exponential", "scale": 1.0, "on_level": None, "on_prob": 1.0},
    "actions": {"levels": [0.0, 1.0, 2.0, 4.0], "saturation_radius": 12.0},
    "cost": {"alpha": 0.5},
    "grid": {"half_width": 60.0, "n_points": 4001, "convolution": "fft"},
    "solver": {"depth": 8, "tol_rho": 1e-6, "max_rounds": 200, "threshold_points": None},
    "simulate": {
        "horizon": 1_000_000,
        "replications": 20,
        "base_seed": 20250817,
        "estimator": "closed_form",
        "window": 100_000,
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def merge_config(user: dict) -> dict:
    """Overlay a user config on the defaults, rejecting unknown keys."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = default_config()
    for section, entries in user.items():
        if section not in resolved:
            raise ConfigError(
                f"unknown config section {section!r}; "
                f"expected one of {sorted(resolved)}"
            )
        if not isinstance(entries, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in entries.items():
            if key not in resolved[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section {section!r}; "
                    f"expected one of {sorted(resolved[section])}"
                )
            resolved[section][key] = value
    _check_solver(resolved["solver"])
    _check_simulate(resolved["simulate"])
    return resolved


def _is_number(value) -> bool:
    """True for a JSON number (an int or a float); a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """A JSON number that is a finite float (json also reads NaN and Infinity)."""
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _numbers(values, name: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_number(v, f"{name}[{k}]") for k, v in enumerate(values))


def _check_solver(solver: dict) -> None:
    """Reject solver entries of the wrong type or range before any solve."""
    for key in ("depth", "max_rounds"):
        if not (_is_int(solver[key]) and solver[key] >= 1):
            raise ConfigError(f"solver.{key} must be an integer >= 1, got {solver[key]!r}")
    tol = solver["tol_rho"]
    if not (_is_number(tol) and 0 <= tol <= sys.float_info.max):
        raise ConfigError(f"solver.tol_rho must be a finite number >= 0, got {tol!r}")
    points = solver["threshold_points"]
    if points is not None and not (_is_int(points) and points >= 2):
        raise ConfigError(
            f"solver.threshold_points must be null or an integer >= 2, got {points!r}"
        )


def _check_simulate(sim: dict) -> None:
    """Reject simulate entries of the wrong type or range before any rollout."""
    for key in ("horizon", "replications", "window"):
        if not (_is_int(sim[key]) and sim[key] >= 1):
            raise ConfigError(f"simulate.{key} must be an integer >= 1, got {sim[key]!r}")
    seed = sim["base_seed"]
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"simulate.base_seed must be an integer >= 0, got {seed!r}")
    if sim["estimator"] not in ("closed_form", "belief_mean"):
        raise ConfigError(
            f"simulate.estimator must be 'closed_form' or 'belief_mean', got {sim['estimator']!r}"
        )


def load_config(path: str | None) -> dict:
    """Read and resolve a config file; None means pure defaults."""
    if path is None:
        return default_config()
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"malformed JSON in {path} at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    return merge_config(user)


def build_problem(cfg: dict) -> ControlProblem:
    """Model objects from the resolved sections; every real-valued entry must
    be a JSON number (not a string or a bool) and every index a JSON integer."""
    index = cfg["channel"]["initial_gain_index"]
    if not _is_int(index):
        raise ConfigError(f"channel.initial_gain_index must be an integer, got {index!r}")
    pc, ch, rc, ac = cfg["process"], cfg["channel"], cfg["reception"], cfg["actions"]
    transition = ch["transition"]
    if not isinstance(transition, list):
        raise ConfigError(f"channel.transition must be a list of rows, got {transition!r}")
    try:
        process = ScalarProcess(
            a=_number(pc["a"], "process.a"),
            noise_var=_number(pc["noise_var"], "process.noise_var"),
            init_var=_number(pc["init_var"], "process.init_var"),
        )
        channel = FadingChannel(
            gains=_numbers(ch["gains"], "channel.gains"),
            transition=tuple(
                _numbers(row, f"channel.transition[{k}]") for k, row in enumerate(transition)
            ),
            initial_gain_index=index,
        )
        on_level = rc["on_level"]
        reception = ReceptionModel(
            form=rc["form"],
            scale=_number(rc["scale"], "reception.scale"),
            on_level=None if on_level is None else _number(on_level, "reception.on_level"),
            on_prob=_number(rc["on_prob"], "reception.on_prob"),
        )
        actions = ActionSet(
            levels=_numbers(ac["levels"], "actions.levels"),
            saturation_radius=_number(ac["saturation_radius"], "actions.saturation_radius"),
        )
        cost = CostWeights(alpha=_number(cfg["cost"]["alpha"], "cost.alpha"))
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, (ModelError, ConfigError)):
            raise
        raise ConfigError(f"invalid config value: {err}") from err
    return ControlProblem(process, channel, reception, actions, cost)


def default_geometry(problem: ControlProblem, n_points: int, convolution: str) -> GridGeometry:
    """Grid wide enough for the worst sustained failure run: half width
    30 * sqrt(W / (1 - q(u_max, h_min))), i.e. wider the likelier failures."""
    q_min = float(
        reception_prob(
            problem.reception, problem.actions.u_max, min(problem.channel.gains)
        )
    )
    if q_min >= 1.0:
        q_min = 1.0 - 1e-6
    half = 30.0 * math.sqrt(problem.process.noise_var / (1.0 - q_min))
    return GridGeometry(half_width=half, n_points=n_points, convolution=convolution)


def build_geometry(cfg: dict, problem: ControlProblem | None = None) -> GridGeometry:
    """Geometry from the grid section; a null half_width invokes the default
    sizing heuristic (which then needs the problem)."""
    grid = cfg["grid"]
    if grid["half_width"] is None and problem is None:
        raise ConfigError("grid.half_width: null requires the model sections")
    n_points = grid["n_points"]
    if not _is_int(n_points):
        raise ConfigError(f"grid.n_points must be an integer, got {n_points!r}")
    try:
        if grid["half_width"] is None:
            return default_geometry(problem, n_points=n_points, convolution=grid["convolution"])
        return GridGeometry(
            half_width=_number(grid["half_width"], "grid.half_width"),
            n_points=n_points,
            convolution=grid["convolution"],
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid grid section: {err}") from err
