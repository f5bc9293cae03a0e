"""Problem data: scalar process, Markov fading channel, reception model, power levels, cost.

Everything downstream (belief operators, solver, simulator) consumes the small
frozen dataclasses defined here.  Validation helpers return a report instead of
raising so the CLI can print diagnostics and pick an exit code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

RECEPTION_FORMS = ("exponential", "logistic", "on_off")


class ModelError(ValueError):
    """Malformed problem data (bad shapes, non-stochastic rows, ...)."""


@dataclass(frozen=True)
class ScalarProcess:
    """x_{k+1} = a * x_k + w_k with w_k ~ N(0, noise_var), x_0 ~ N(0, init_var)."""

    a: float
    noise_var: float
    init_var: float = 1.0

    def __post_init__(self) -> None:
        if self.a == 0.0:
            raise ModelError("state coefficient a must be nonzero (the map must be invertible)")
        if not self.noise_var > 0.0:
            raise ModelError(f"noise_var must be positive, got {self.noise_var}")
        if self.init_var < 0.0:
            raise ModelError(f"init_var must be nonnegative, got {self.init_var}")


@dataclass(frozen=True)
class FadingChannel:
    """Finite-state Markov channel gain.

    gains are strictly increasing and positive; transition[i][j] is the
    probability of moving from gains[i] to gains[j].
    """

    gains: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    initial_gain_index: int = 0

    def __post_init__(self) -> None:
        g = len(self.gains)
        if g == 0:
            raise ModelError("channel needs at least one gain")
        if any(h <= 0 for h in self.gains):
            raise ModelError("gains must be positive")
        if any(b <= a for a, b in zip(self.gains, self.gains[1:])):
            raise ModelError("gains must be strictly increasing")
        P = np.asarray(self.transition, dtype=float)
        if P.shape != (g, g):
            raise ModelError(f"transition must be {g}x{g}, got shape {P.shape}")
        if np.any(P < -1e-15):
            raise ModelError("transition probabilities must be nonnegative")
        rows = P.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ModelError(f"transition rows must sum to 1, got row sums {rows}")
        if not 0 <= self.initial_gain_index < g:
            raise ModelError("initial_gain_index out of range")

    @property
    def n_gains(self) -> int:
        return len(self.gains)

    def transition_matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)


@dataclass(frozen=True)
class ReceptionModel:
    """Packet success probability q(u, h) as a function of power u and gain h.

    Forms:
      exponential: q = 1 - exp(-u*h/scale)
      logistic:    q = 2 / (1 + exp(-u*h/scale)) - 1   (logistic rescaled through the origin)
      on_off:      q = on_prob if u >= on_level else 0  (gain-independent)

    All forms satisfy q(0, h) = 0 and are nondecreasing in u and in h.
    """

    form: str = "exponential"
    scale: float = 1.0
    on_level: float | None = None
    on_prob: float = 1.0

    def __post_init__(self) -> None:
        if self.form not in RECEPTION_FORMS:
            raise ModelError(f"unknown reception form {self.form!r}; expected one of {RECEPTION_FORMS}")
        if self.form in ("exponential", "logistic") and not self.scale > 0:
            raise ModelError("reception scale must be positive")
        if self.form == "on_off":
            if self.on_level is None or not self.on_level > 0:
                raise ModelError("on_off reception needs a positive on_level")
            if not 0.0 < self.on_prob <= 1.0:
                raise ModelError("on_prob must lie in (0, 1]")


def _is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def reception_prob(reception: ReceptionModel, power, gain: float):
    """Success probability q(power, gain); `power` may be a scalar or ndarray."""
    u = np.asarray(power, dtype=float)
    if np.any(u < -1e-12):
        raise ModelError("power must be nonnegative")
    if reception.form == "exponential":
        q = -np.expm1(-u * gain / reception.scale)
    elif reception.form == "logistic":
        q = 2.0 / (1.0 + np.exp(-u * gain / reception.scale)) - 1.0
    else:  # on_off
        q = np.where(u >= reception.on_level, reception.on_prob, 0.0)
    if np.ndim(power) == 0:
        return float(q)
    return q


@dataclass(frozen=True)
class ActionSet:
    """Admissible power levels plus the saturation geometry.

    levels are distinct, ascending, and start at 0; u_max = levels[-1].
    Structured transmission rules must use u_max whenever |e| exceeds
    saturation_radius.
    """

    levels: tuple[float, ...]
    saturation_radius: float

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ModelError("need at least two power levels (zero and one positive)")
        if self.levels[0] != 0.0:
            raise ModelError("levels must start at 0")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ModelError("levels must be strictly increasing")
        if not self.saturation_radius > 0:
            raise ModelError("saturation_radius must be positive")

    @property
    def u_max(self) -> float:
        return self.levels[-1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_index(self, u: float) -> int:
        """Index of an exact member of `levels`."""
        for i, lv in enumerate(self.levels):
            if lv == u:
                return i
        raise ModelError(f"{u} is not an admissible power level")


@dataclass(frozen=True)
class CostWeights:
    """Stage cost = alpha * power + squared estimation error on failure."""

    alpha: float

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ModelError("alpha must be nonnegative")


@dataclass(frozen=True)
class ControlProblem:
    """Bundle of everything that defines one power-control instance."""

    process: ScalarProcess
    channel: FadingChannel
    reception: ReceptionModel
    actions: ActionSet
    cost: CostWeights


@dataclass
class ValidationReport:
    ok: bool
    checks: dict[str, bool] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    margin: float | None = None  # validate_stability's 1 - a^2 rho


def validate_channel(channel: FadingChannel) -> ValidationReport:
    """Check the gain chain is irreducible and aperiodic (i.e. primitive).

    Uses the Wielandt primitivity bound: a g-state chain is primitive iff
    P^k is entrywise positive for some k <= (g-1)^2 + 1.
    """
    P = channel.transition_matrix()
    g = channel.n_gains
    mask = (P > 0).astype(float)
    power = np.eye(g)
    primitive = False
    for _ in range((g - 1) ** 2 + 1):
        power = power @ mask
        if np.all(power > 0):
            primitive = True
            break
    report = ValidationReport(ok=primitive)
    report.checks["irreducible_aperiodic"] = primitive
    if not primitive:
        report.messages.append(
            "gain chain is not irreducible+aperiodic; some power of the transition "
            "matrix never becomes entrywise positive"
        )
    return report


def validate_stability(
    process: ScalarProcess,
    channel: FadingChannel,
    reception: ReceptionModel,
    actions: ActionSet,
) -> ValidationReport:
    """Check that full power keeps the estimation error bounded in mean square.

    At full power the estimation error is a Markov jump linear system: a
    failure at gain h, of probability 1 - q(u_max, h), multiplies it by a
    (plus noise), and a success resets it.  Its second moment stays bounded
    exactly when a^2 * rho(diag(1 - q(u_max, h)) P) < 1, with rho the
    spectral radius and P the gain chain's transition matrix (Costa,
    Fragoso & Marques 2005); no policy succeeds more often, so no policy
    stabilizes a plant that full power cannot.  ``margin`` is 1 - a^2 rho.

    For |a| <= 1 the process is not exponentially unstable, the check is
    vacuous, and it passes with a warning: the toolkit targets |a| > 1.
    """
    report = ValidationReport(ok=True)
    a2 = process.a * process.a
    fail = [1.0 - reception_prob(reception, actions.u_max, h) for h in channel.gains]
    jump = np.asarray(fail)[:, None] * channel.transition_matrix()
    growth = a2 * float(np.max(np.abs(np.linalg.eigvals(jump))))
    report.margin = 1.0 - growth
    if a2 <= 1.0:
        warnings.warn(
            f"|a| = {abs(process.a)} <= 1: process is not unstable; "
            "stability margin check is vacuous",
            stacklevel=2,
        )
        report.checks["unstable_process"] = False
        report.checks["margin"] = True
        report.messages.append("process not unstable; margin check trivially satisfied")
        return report
    report.checks["unstable_process"] = True
    ok = growth < 1.0
    report.checks["margin"] = ok
    report.ok = ok
    report.messages.append(
        f"a^2 * rho(diag(1 - q(u_max, h)) P) = {growth:.6f} vs required < 1"
    )
    if not ok:
        report.messages.append(
            "max-power failures are too likely on the gains the channel visits; the "
            "estimation error cannot be kept bounded in mean square"
        )
    return report


def stationary_distribution(channel: FadingChannel) -> np.ndarray:
    """Stationary law of the gain chain, by direct linear solve.

    Requires irreducibility (validate_channel) for uniqueness; solves the
    balance equations with the normalization row appended in place of one
    redundant balance row.
    """
    P = channel.transition_matrix()
    g = channel.n_gains
    A = P.T - np.eye(g)
    A[-1, :] = 1.0
    b = np.zeros(g)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()

