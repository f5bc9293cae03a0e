"""Stationary transmission policies and their structural checks.

Two concrete rule shapes appear throughout: ThresholdAction, the symmetric
outward-nondecreasing step rule parametrized by switch radii, and raw tabular
node-value arrays for the unrestricted case.  A PowerPolicy maps every
(chain node, gain index) pair of the solver's failure-history chain to one of
those rules; baselines (max power, constant, on-off) are the state-independent
special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .belief import (
    ActionFunction,
    BeliefGrid,
    GridGeometry,
    _check_radii,
    _grid_arrays,
    banded_action,
)
from .model import ActionSet
from .rearrange import rearranged_action, symmetric_decreasing_rearrangement

NodeKey = tuple[int, ...]
StateKey = tuple[NodeKey, int]


class PolicyDomainError(KeyError):
    """Policy asked for a (node, gain) pair it does not cover."""


@dataclass(frozen=True)
class ThresholdAction:
    """Symmetric step rule: level index j applies for thresholds[j-1] <= |e|.

    One threshold per level transition, nondecreasing; at a threshold the
    higher level already applies.  The top threshold may not exceed the
    saturation radius, so the expanded rule transmits u_max outside it.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_radii(self.thresholds, "thresholds")

    def _check_fits(self, action_set: ActionSet) -> None:
        """Raise ValueError unless the rule has one threshold per level
        transition of `action_set` and its top one is within the saturation
        radius."""
        if len(self.thresholds) != action_set.n_levels - 1:
            raise ValueError(
                f"{len(self.thresholds)} thresholds cannot address "
                f"{action_set.n_levels} power levels"
            )
        if self.thresholds and self.thresholds[-1] > action_set.saturation_radius:
            raise ValueError("top threshold exceeds the saturation radius")

    def level_at(self, e: float, action_set: ActionSet) -> float:
        idx = int(np.searchsorted(np.asarray(self.thresholds), abs(e), side="right"))
        return action_set.levels[idx]

    def as_action(
        self,
        geometry: GridGeometry,
        action_set: ActionSet,
        *,
        banded: bool = False,
    ) -> ActionFunction:
        """Expand onto the grid.  banded=True carries the exact radii so the
        belief operators integrate with cell splitting; the default samples
        node values only (the solver's convention).  Node values are built
        from the right half and mirrored, so the expansion is even by
        construction."""
        self._check_fits(action_set)
        radii = np.asarray(self.thresholds, dtype=float)
        if banded:
            return banded_action(radii, np.asarray(action_set.levels), action_set, geometry)
        half = _grid_arrays(geometry).nodes[geometry.n_points // 2 :]
        levels = np.asarray(action_set.levels)
        right = levels[np.searchsorted(radii, half, side="right")]
        values = np.concatenate((right[:0:-1], right))
        return ActionFunction(values, action_set, geometry)


TabularRule = np.ndarray
Rule = Union[ThresholdAction, TabularRule]


def max_power_action(action_set: ActionSet) -> ThresholdAction:
    """Transmit u_max everywhere."""
    return ThresholdAction((0.0,) * (action_set.n_levels - 1))


def on_off_action(threshold: float, action_set: ActionSet) -> ThresholdAction:
    """Stay silent inside |e| < threshold, transmit u_max outside."""
    return ThresholdAction((float(threshold),) * (action_set.n_levels - 1))


def threshold_grid(saturation_radius: float, count: int = 21) -> np.ndarray:
    """Candidate switch radii: uniform from 0 to the saturation radius."""
    if count < 2:
        raise ValueError("threshold grid needs at least 2 points")
    return np.linspace(0.0, float(saturation_radius), count)


def snap_thresholds(rule: ThresholdAction, grid: np.ndarray) -> ThresholdAction:
    """Move each switch radius to the nearest grid point (ties toward the
    smaller), restoring monotonicity afterwards."""
    grid = np.asarray(grid, dtype=float)
    snapped = [float(grid[int(np.argmin(np.abs(grid - t)))]) for t in rule.thresholds]
    out: list[float] = []
    prev = 0.0
    for t in snapped:
        prev = max(prev, t)
        out.append(prev)
    return ThresholdAction(tuple(out))


@dataclass(frozen=True)
class StructureReport:
    """Outcome of a symmetry/monotonicity check with the first violation."""

    ok: bool
    reason: str | None = None
    node_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_symmetric_monotone(action: ActionFunction) -> StructureReport:
    """Verify the rule is even (exact level equality on mirrored nodes) and
    nondecreasing in |e|."""
    v = action.values
    n = len(v)
    mirror = v != v[::-1]
    if np.any(mirror):
        j = int(np.argmax(mirror))
        return StructureReport(False, "asymmetric at mirrored nodes", j)
    right = v[n // 2 :]
    drops = np.diff(right) < 0
    if np.any(drops):
        j = n // 2 + int(np.argmax(drops)) + 1
        return StructureReport(False, "power level decreases outward", j)
    return StructureReport(True)


def extract_threshold_action(
    values: np.ndarray, geometry: GridGeometry, action_set: ActionSet
) -> ThresholdAction | None:
    """Fit an exact ThresholdAction to tabular node values, or None if the
    values are not symmetric-monotone.  The fit places each switch at the
    innermost node radius already using the higher level, so expanding the
    result reproduces `values` exactly."""
    v = np.asarray(values, dtype=float)
    if not np.array_equal(v, v[::-1]):
        return None
    right = v[geometry.n_points // 2 :]
    if np.any(np.diff(right) < 0):
        return None
    r = _grid_arrays(geometry).nodes[geometry.n_points // 2 :]
    radii: list[float] = []
    for level in action_set.levels[1:]:
        hits = np.nonzero(right >= level)[0]
        if len(hits) == 0:
            radii.append(float(action_set.saturation_radius))
        else:
            radii.append(min(float(r[hits[0]]), float(action_set.saturation_radius)))
    return ThresholdAction(tuple(radii))


def canonicalize(action: ActionFunction, theta: BeliefGrid) -> ThresholdAction:
    """Symmetric-monotone representative of a rule, measure-matched against
    the belief's rearrangement.

    The switch radii come out exact (no grid fitting step is needed), so the
    result always expands to a symmetric-monotone rule and preserves expected
    power and success probability against the rearranged belief.
    """
    theta_hat = symmetric_decreasing_rearrangement(theta)
    sigma = rearranged_action(action, theta, theta_hat)
    radii, _ = sigma.bands
    return ThresholdAction(tuple(float(x) for x in radii))


@dataclass
class PowerPolicy:
    """Map from (chain node, gain index) to a transmission rule.

    mode "baseline" ignores the state entirely; "threshold"/"tabular" look the
    state up in `rules`, falling back to `default` when present.  `enforce`
    is forwarded to expanded ActionFunctions; False only for diagnostic
    baselines that deliberately break saturation (e.g. constant zero power).
    """

    action_set: ActionSet
    geometry: GridGeometry
    mode: str
    rules: dict[StateKey, Rule] = field(default_factory=dict)
    default: Rule | None = None
    baseline: str | None = None
    baseline_param: float | None = None
    enforce: bool = True

    _MODES = ("baseline", "threshold", "tabular")
    _BASELINES = ("max_power", "constant", "on_off")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        if self.mode != "baseline":
            return
        if self.baseline not in self._BASELINES:
            raise ValueError(f"baseline must be one of {self._BASELINES}, got {self.baseline!r}")
        param = self.baseline_param
        if self.baseline != "max_power" and not (
            isinstance(param, (int, float)) and not isinstance(param, bool) and math.isfinite(param)
        ):
            raise ValueError(
                f"the {self.baseline} baseline needs a finite baseline_param, got {param!r}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def max_power(cls, action_set: ActionSet, geometry: GridGeometry) -> "PowerPolicy":
        return cls(action_set, geometry, "baseline", baseline="max_power")

    @classmethod
    def constant(
        cls, level: float, action_set: ActionSet, geometry: GridGeometry
    ) -> "PowerPolicy":
        """Fixed power everywhere.  Sub-maximal levels break the saturation
        constraint and are expanded unenforced (diagnostic use only)."""
        enforce = level == action_set.u_max
        return cls(
            action_set,
            geometry,
            "baseline",
            baseline="constant",
            baseline_param=float(level),
            enforce=enforce,
        )

    @classmethod
    def on_off(
        cls, threshold: float, action_set: ActionSet, geometry: GridGeometry
    ) -> "PowerPolicy":
        return cls(
            action_set,
            geometry,
            "baseline",
            baseline="on_off",
            baseline_param=float(threshold),
        )

    @classmethod
    def uniform(
        cls,
        rule: Rule,
        action_set: ActionSet,
        geometry: GridGeometry,
        *,
        enforce: bool = True,
    ) -> "PowerPolicy":
        """Same rule at every state (used for hand-built test policies)."""
        mode = "threshold" if isinstance(rule, ThresholdAction) else "tabular"
        return cls(action_set, geometry, mode, default=rule, enforce=enforce)

    @classmethod
    def from_rules(
        cls,
        rules: dict[StateKey, Rule],
        action_set: ActionSet,
        geometry: GridGeometry,
    ) -> "PowerPolicy":
        tabular = any(not isinstance(r, ThresholdAction) for r in rules.values())
        return cls(action_set, geometry, "tabular" if tabular else "threshold", rules=dict(rules))

    # -- lookup -------------------------------------------------------------

    def rule_for(self, node: NodeKey, gain_index: int) -> Rule:
        if self.mode == "baseline":
            if self.baseline == "max_power":
                return max_power_action(self.action_set)
            if self.baseline == "on_off":
                return on_off_action(self.baseline_param, self.action_set)
            return np.full(self.geometry.n_points, self.baseline_param)
        key = (tuple(node), int(gain_index))
        if key in self.rules:
            return self.rules[key]
        if self.default is not None:
            return self.default
        raise PolicyDomainError(f"policy does not cover node {node} at gain {gain_index}")

    def action_of(self, node: NodeKey, gain_index: int) -> ActionFunction:
        rule = self.rule_for(node, gain_index)
        if isinstance(rule, ThresholdAction):
            return rule.as_action(self.geometry, self.action_set)
        return ActionFunction(np.asarray(rule, dtype=float), self.action_set, self.geometry,
                              enforce=self.enforce)

    def is_threshold_only(self) -> bool:
        entries = list(self.rules.values())
        if self.default is not None:
            entries.append(self.default)
        if self.mode == "baseline":
            return self.baseline in ("max_power", "on_off")
        return all(isinstance(r, ThresholdAction) for r in entries)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def rule_dict(rule: Rule) -> dict:
            if isinstance(rule, ThresholdAction):
                return {"thresholds": list(rule.thresholds)}
            return {"table": [float(x) for x in np.asarray(rule)]}

        states = [
            {"node": list(node), "gain": gain, **rule_dict(rule)}
            for (node, gain), rule in sorted(self.rules.items())
        ]
        return {
            "mode": self.mode,
            "baseline": self.baseline,
            "baseline_param": self.baseline_param,
            "enforce": self.enforce,
            "levels": list(self.action_set.levels),
            "saturation_radius": self.action_set.saturation_radius,
            "grid": {"half_width": self.geometry.half_width, "n_points": self.geometry.n_points},
            "default": rule_dict(self.default) if self.default is not None else None,
            "states": states,
        }

    @classmethod
    def from_dict(
        cls, data: dict, action_set: ActionSet, geometry: GridGeometry
    ) -> "PowerPolicy":
        """Rebuild a policy against the configured model, validating that the
        stored level set, grid and threshold rules agree with it."""
        if list(action_set.levels) != [float(x) for x in data["levels"]]:
            raise ValueError("policy level set does not match the configured actions")
        if data["saturation_radius"] != action_set.saturation_radius:
            raise ValueError("policy saturation radius does not match the configuration")
        g = data["grid"]
        if g["half_width"] != geometry.half_width or g["n_points"] != geometry.n_points:
            raise ValueError("policy grid does not match the configured grid")

        def parse_rule(entry: dict) -> Rule:
            if "thresholds" in entry and entry.get("thresholds") is not None:
                rule = ThresholdAction(tuple(float(x) for x in entry["thresholds"]))
                rule._check_fits(action_set)
                return rule
            return np.asarray(entry["table"], dtype=float)

        rules: dict[StateKey, Rule] = {}
        for item in data.get("states", []):
            rules[(tuple(item["node"]), int(item["gain"]))] = parse_rule(item)
        default = parse_rule(data["default"]) if data.get("default") else None
        return cls(
            action_set,
            geometry,
            data["mode"],
            rules=rules,
            default=default,
            baseline=data.get("baseline"),
            baseline_param=data.get("baseline_param"),
            enforce=bool(data.get("enforce", True)),
        )

