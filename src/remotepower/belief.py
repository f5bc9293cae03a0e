"""Gridded innovation beliefs and the operators the controller needs on them.

A belief is a probability density for the estimation innovation, sampled on a
uniform symmetric grid.  Node j owns the cell [e_j - dx/2, e_j + dx/2] clipped
to [-E, E], so trapezoid sums and cell-mass sums are the same thing; the two
endpoint cells are half width.

Transmission rules enter in one of two shapes:

* node-valued (``bands is None``): the rule is constant on each cell, or
* banded (``bands`` set): the rule is a radially symmetric step function with
  exact real-valued switch radii.  When built, the rule splits each cell at
  zero and at the switch radii strictly inside it, and holds the pieces in cell
  order; that keeps layer-cake identities exact instead of quantized to the grid.

Every operator reads a rule through one per-cell average of a per-level
quantity (power, success or failure probability): the node's level on a node
rule, the length-weighted mean over the cell's pieces on a banded one.  The
shapes differ only in ``stage_cost``'s quadrature of the failure-branch
error, which is the node sum on a node rule (how the solver's chain is
defined) and exact over the pieces on a banded one.  The banded shape exists
because the rearrangement identities demand measure matching far below one
cell of mass; the solver itself stays on node rules.

Three things every belief step needs depend only on fixed inputs, so each is
computed once and then read:

* the grid arrays of a geometry (nodes, cell widths, cell bounds, the cell
  edges ``propagate`` pulls back through the plant map), per geometry;
* the noise kernel, its FFT length and its spectrum, per (geometry, noise
  variance);
* a rule's success probability at its levels, per (reception model, gain),
  kept on the rule.

Each is the array the per-call code used to build, made by the same
expressions, so every output is bit-identical to computing them afresh.  The
FFT path multiplies the two spectra of the full linear convolution that
``scipy.signal.fftconvolve`` takes, at the same 5-smooth length, through
NumPy's ``rfft``/``irfft`` (pocketfft, the bits of ``scipy.fft``'s
``rfftn``/``irfftn``), written with ``out=`` into buffers each stepping
thread keeps per grid.  Cached arrays are read-only;
``GridGeometry.nodes()`` and ``cell_widths()`` still return fresh ones.

There is one belief step after a miss, and it takes many rows at once as
(rows, points) arrays: the failure-history tree sends every child of a tree
level through it, in blocks of ``_BLOCK_ROWS`` rows on one thread or two, and
``propagate`` and ``post_failure`` are its one-row cases
(``verify_structure``'s order probes step each belief with ``propagate``).
It conditions the block on the miss and renormalizes it with elementwise
operations and one dot product per row, takes the row cumulative sums, pulls
each row back through the plant map, convolves all rows with the noise
kernel in one ``rfft``/``irfft`` pair over the row axis, checks each row's
escaped mass, and normalizes the block into an array its caller owns.  Every
row sees the same operations in the same order as a lone belief would, dot
products included, so a row's result does not depend on its block.  The step
makes on each row the checks a ``BeliefGrid`` makes on construction, so the
beliefs read from its output are views that are not checked again.  A row
that fails gets its error and the others go on.  The step builds no object
per row and calls no public function: numpy, its pocketfft included,
releases the interpreter lock for most of it, so two threads can step two
blocks at once, and the bench tracer (``bench/tracing.py``), which keeps one
span stack for all threads, traces none of it.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .model import ActionSet, CostWeights, ReceptionModel, ScalarProcess, reception_prob

logger = logging.getLogger(__name__)

NORMALIZATION_TOL = 1e-9
GAUSSIAN_TAIL_TOL = 1e-8
SUPPORT_OVERFLOW_TOL = 1e-6
DEGENERATE_SUCCESS_TOL = 1e-12

# Rows per block of the batched belief step, on one thread or two.  Each
# stepping thread holds about 2.3 MB of FFT buffers for 8 rows on the
# 4001-point grid.  Filling the canonical depth-8 tree (frozen policy, 2-vCPU
# Xeon VM) on one CPU took a median 354 and 317 us a row in blocks of 8, in
# two runs of 30 alternating fills, against 374 and 330 us in blocks of 16.
_BLOCK_ROWS = 8


class GridGeometryError(ValueError):
    """Requested density or rule does not fit on the grid."""


class SupportOverflowError(ValueError):
    """A propagated belief pushed non-negligible mass past the grid edge."""


class DegenerateSuccessError(ValueError):
    """Failure branch conditioned on an (almost) impossible event."""


@dataclass(frozen=True)
class GridGeometry:
    """Uniform symmetric grid on [-half_width, half_width] with an odd node count."""

    half_width: float
    n_points: int = 2001
    convolution: str = "direct"

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise GridGeometryError("half_width must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise GridGeometryError("n_points must be odd and at least 3")
        if self.convolution not in ("direct", "fft"):
            raise GridGeometryError("convolution must be 'direct' or 'fft'")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_points)

    def cell_widths(self) -> np.ndarray:
        w = np.full(self.n_points, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class _GridArrays:
    """Read-only arrays fixed by a geometry: nodes, cell widths, each cell's
    edges clipped to the grid, and the n_points + 1 cell edges."""

    nodes: np.ndarray
    cell_w: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray
    edges: np.ndarray


@functools.lru_cache(maxsize=16)
def _grid_arrays(geometry: GridGeometry) -> _GridArrays:
    nodes, half, E = geometry.nodes(), 0.5 * geometry.spacing, geometry.half_width
    arrays = _GridArrays(
        nodes=nodes,
        cell_w=geometry.cell_widths(),
        cell_lo=np.maximum(nodes - half, -E),
        cell_hi=np.minimum(nodes + half, E),
        edges=np.concatenate(([-E], nodes[:-1] + half, [E])),
    )
    for arr in vars(arrays).values():
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _noise_kernel(geometry: GridGeometry, noise_var: float) -> tuple[np.ndarray, int, np.ndarray]:
    """Gaussian noise kernel over every node offset, the FFT length of its
    full convolution with a belief, and its spectrum at that length."""
    n = geometry.n_points
    offsets = geometry.spacing * np.arange(-(n - 1), n)
    kernel = np.exp(-0.5 * offsets**2 / noise_var) / math.sqrt(2.0 * math.pi * noise_var)
    size = _next_fast_len(3 * n - 2)
    spectrum = np.fft.rfft(kernel, size)
    kernel.flags.writeable = spectrum.flags.writeable = False
    return kernel, size, spectrum


def _next_fast_len(target: int) -> int:
    """The smallest 2**i * 3**j * 5**k >= target, as
    ``scipy.fft.next_fast_len(target, True)`` picks a real FFT length."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches target
            best = min(best, p35 << max(0, (-(-target // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


_fft_local = threading.local()


def _fft_buffers(n: int, size: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's zero-padded input, spectrum and full output of the FFT
    convolution, `rows` rows each.  They are kept per thread for one
    (n_points, FFT length) and grown by rows: the step writes only the first
    n columns of the input, so the padding stays zero while n is the same."""
    held = getattr(_fft_local, "buffers", None)
    if held is None or held[0] != (n, size) or len(held[1]) < rows:
        held = _fft_local.buffers = (
            (n, size),
            np.zeros((rows, size)),
            np.empty((rows, size // 2 + 1), dtype=complex),
            np.empty((rows, size)),
        )
    return held[1][:rows], held[2][:rows], held[3][:rows]


class BeliefGrid:
    """Normalized innovation density sampled on a GridGeometry.

    weights[j] is the density value at node j.  The trapezoid integral must
    sit within NORMALIZATION_TOL of one; constructors renormalize first.
    """

    __slots__ = ("geometry", "weights", "nodes", "_cell_w")

    def __init__(self, geometry: GridGeometry, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (geometry.n_points,):
            raise GridGeometryError(
                f"weights shape {weights.shape} does not match n_points {geometry.n_points}"
            )
        if not np.all(np.isfinite(weights)):
            raise GridGeometryError("weights must be finite")
        if np.any(weights < -1e-12):
            raise GridGeometryError("weights must be nonnegative")
        weights = np.maximum(weights, 0.0)
        grid = _grid_arrays(geometry)
        self.geometry = geometry
        self.weights = weights
        self.nodes = grid.nodes
        self._cell_w = grid.cell_w
        errors: list[ValueError | None] = [None]
        _check_normalized(weights[None], self._cell_w, errors)
        if errors[0] is not None:
            raise errors[0]

    @classmethod
    def _view(cls, geometry: GridGeometry, weights: np.ndarray) -> BeliefGrid:
        """A belief on weights the belief step has already checked: no copy,
        no checks."""
        self = object.__new__(cls)
        grid = _grid_arrays(geometry)
        self.geometry, self.weights = geometry, weights
        self.nodes, self._cell_w = grid.nodes, grid.cell_w
        return self

    @property
    def half_width(self) -> float:
        return self.geometry.half_width

    @property
    def n_points(self) -> int:
        return self.geometry.n_points

    @property
    def spacing(self) -> float:
        return self.geometry.spacing

    def cell_masses(self) -> np.ndarray:
        return self._cell_w * self.weights

    def integral(self) -> float:
        return float(self._cell_w @ self.weights)


def _clipped_totals(rows: np.ndarray, cell_w: np.ndarray) -> np.ndarray:
    """Clip every row at zero in place and return its trapezoid integral, one
    dot product per row, so that each row's bits are a lone belief's."""
    np.maximum(rows, 0.0, out=rows)
    return np.array([cell_w @ row for row in rows])


def _normalize_rows(
    rows: np.ndarray, totals: np.ndarray, cell_w: np.ndarray, out: np.ndarray,
    errors: list[ValueError | None],
) -> None:
    """Write each clipped row divided by its total to `out`, and make the
    checks a BeliefGrid makes on the result.  A row that fails one gets its
    error in `errors`; rows that already have one are divided by 1."""
    for r, total in enumerate(totals):
        if errors[r] is not None:
            continue
        if total <= 0:
            errors[r] = GridGeometryError("cannot normalize an all-zero density")
        elif abs(total - 1.0) > 1e-12:
            logger.debug("renormalization absorbed %.3e quadrature drift", abs(total - 1.0))
    live = np.array([err is None for err in errors])
    np.divide(rows, np.where(live, totals, 1.0)[:, None], out=out)
    finite = np.isfinite(out).all(axis=1)
    for r in np.flatnonzero(live):
        if not finite[r]:
            errors[r] = GridGeometryError("weights must be finite")
    _check_normalized(out, cell_w, errors)


def _check_normalized(
    rows: np.ndarray, cell_w: np.ndarray, errors: list[ValueError | None]
) -> None:
    """The normalization check a BeliefGrid makes, on every row that has no
    error yet."""
    for r, row in enumerate(rows):
        if errors[r] is not None:
            continue
        total = float(cell_w @ row)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            errors[r] = GridGeometryError(
                f"belief not normalized: trapezoid integral {total!r} "
                f"(drift budget {NORMALIZATION_TOL})"
            )


def _renormalized(geometry: GridGeometry, raw: np.ndarray) -> BeliefGrid:
    rows = np.array(raw, dtype=float, ndmin=2)
    cell_w = _grid_arrays(geometry).cell_w
    errors: list[ValueError | None] = [None]
    _normalize_rows(rows, _clipped_totals(rows, cell_w), cell_w, rows, errors)
    return _one_row(geometry, rows, errors)


def _one_row(geometry: GridGeometry, rows: np.ndarray, errors: list) -> BeliefGrid:
    """The belief in a one-row step's result, or the row's error raised."""
    if errors[0] is not None:
        raise errors[0]
    return BeliefGrid._view(geometry, rows[0])


def gaussian_grid(mean: float, var: float, geometry: GridGeometry) -> BeliefGrid:
    """Sample a normal density on the grid, refusing if visible mass is left outside.

    The off-grid tail must stay below GAUSSIAN_TAIL_TOL; the error suggests a
    half_width that would fit.
    """
    if not var > 0:
        raise GridGeometryError("variance must be positive")
    sigma = math.sqrt(var)
    E = geometry.half_width
    upper = 0.5 * math.erfc((E - mean) / (sigma * math.sqrt(2.0)))
    lower = 0.5 * math.erfc((E + mean) / (sigma * math.sqrt(2.0)))
    tail = upper + lower
    if tail >= GAUSSIAN_TAIL_TOL:
        needed = abs(mean) + 6.0 * sigma
        raise GridGeometryError(
            f"normal({mean}, {var}) leaves {tail:.3e} mass outside [-{E}, {E}]; "
            f"use half_width >= {needed:.2f}"
        )
    x = _grid_arrays(geometry).nodes
    w = np.exp(-0.5 * (x - mean) ** 2 / var) / (sigma * math.sqrt(2.0 * math.pi))
    return _renormalized(geometry, w)


def mean(belief: BeliefGrid) -> float:
    return float(belief.cell_masses() @ belief.nodes)


def variance(belief: BeliefGrid) -> float:
    m = mean(belief)
    return float(belief.cell_masses() @ (belief.nodes - m) ** 2)


def outward_mass(belief: BeliefGrid, radius: float) -> float:
    """Mass of {|e| >= radius}, with the density constant on each cell."""
    grid = _grid_arrays(belief.geometry)
    lo, hi = grid.cell_lo, grid.cell_hi
    pos = np.maximum(0.0, hi - np.maximum(lo, radius))
    neg = np.maximum(0.0, np.minimum(hi, -radius) - lo)
    return float(belief.weights @ (pos + neg))


# ---------------------------------------------------------------------------
# transmission rules on the grid


@dataclass
class ActionFunction:
    """Power level per grid node, optionally backed by exact symmetric bands.

    values[j] must come from action_set.levels and equal u_max wherever
    |node_j| exceeds the saturation radius.  ``enforce=False`` is an explicit
    escape hatch for diagnostic rules (the zero-power baseline, deliberately
    asymmetric probes) that break those constraints.

    bands, when present, is (radii, band_levels): the rule equals
    band_levels[i] for radii[i-1] <= |e| < radii[i] (the last level extends to
    infinity).  Node values are point samples of that step function; at a
    switch radius the higher band already applies.  A banded rule also keeps
    its pieces (``_cell_pieces``) as five flat arrays: cell, band, lo, hi and
    length, at most n_points + 2 * bands - 1 of each.
    Success probabilities at the rule's levels are kept per (reception, gain)
    once asked for, so ``values`` and ``bands`` must not change afterwards.
    """

    values: np.ndarray
    action_set: ActionSet
    geometry: GridGeometry
    bands: tuple[np.ndarray, np.ndarray] | None = None
    enforce: bool = True
    saturated: bool = field(init=False)
    _pieces: tuple[np.ndarray, ...] | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _success: dict[tuple[ReceptionModel, float], np.ndarray] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.geometry.n_points,):
            raise GridGeometryError("action values must match the grid")
        if self.action_set.saturation_radius >= self.geometry.half_width:
            raise GridGeometryError(
                "saturation radius must sit strictly inside the grid half_width"
            )
        levels = np.asarray(self.action_set.levels)
        member = np.isin(self.values, levels)
        grid = _grid_arrays(self.geometry)
        outside = np.abs(grid.nodes) > self.action_set.saturation_radius
        self.saturated = bool(np.all(self.values[outside] == self.action_set.u_max))
        if self.enforce:
            if not member.all():
                bad = self.values[~member][:3]
                raise GridGeometryError(f"action values not in the level set: {bad}")
            if not self.saturated:
                raise GridGeometryError(
                    "action must transmit at u_max beyond the saturation radius"
                )
        if self.bands is not None:
            radii, blevels = self.bands
            radii = np.asarray(radii, dtype=float)
            blevels = np.asarray(blevels, dtype=float)
            if len(blevels) != len(radii) + 1:
                raise GridGeometryError("bands need len(levels) == len(radii) + 1")
            _check_radii(radii, "band radii")
            self.bands = (radii, blevels)
            self._pieces = _cell_pieces(grid, radii)

    def value_at(self, e: float) -> float:
        """Rule evaluated at a real innovation (band rule, else the nearest
        node, a midpoint going up, as the simulator snaps)."""
        if self.bands is not None:
            radii, blevels = self.bands
            return float(blevels[int(np.searchsorted(radii, abs(e), side="right"))])
        idx = int((e + self.geometry.half_width) / self.geometry.spacing + 0.5)
        idx = min(max(idx, 0), self.geometry.n_points - 1)
        return float(self.values[idx])


def _check_radii(radii, what: str) -> None:
    """Raise GridGeometryError unless the switch radii are nonnegative and
    nondecreasing; a NaN radius is neither, +inf is both."""
    radii = np.asarray(radii, dtype=float)
    if not (np.all(radii >= 0.0) and np.all(radii[1:] >= radii[:-1])):
        raise GridGeometryError(f"{what} must be nonnegative and nondecreasing")


def _cell_pieces(grid: _GridArrays, radii: np.ndarray) -> tuple[np.ndarray, ...]:
    """A banded rule's pieces in cell order, as (cell, band, lo, hi, length).
    Each cell is one piece [cell_lo, cell_hi], split at zero and at every
    switch radius strictly inside it; a split cell lists its e >= 0 pieces,
    then its e < 0 ones, each side's bands from zero outward."""
    cuts = np.unique(np.concatenate((-radii, [0.0], radii)))
    # every (cell j, cut c) with cell_lo[j] < c < cell_hi[j]
    spans = zip(cuts, np.searchsorted(grid.cell_hi, cuts, "right"),
                np.searchsorted(grid.cell_lo, cuts, "left"))
    at, cut = map(np.array, zip(*[(j, c) for c, first, stop in spans for j in range(first, stop)]))
    lo, hi = np.insert(grid.cell_lo, at + 1, cut), np.insert(grid.cell_hi, at, cut)
    cell = np.insert(np.arange(len(grid.nodes)), at, at)
    band = np.searchsorted(radii, np.maximum(lo, -hi), side="right")
    # the order a dense (side, band, cell) sum adds a cell's pieces in, so the
    # bincount's cell averages equal oracles.dense_cell_average bit for bit
    order = np.argsort((2 * cell + (hi <= 0.0)) * (len(radii) + 1) + band, kind="stable")
    return cell, band[order], lo[order], hi[order], (hi - lo)[order]


def constant_action(
    level: float, action_set: ActionSet, geometry: GridGeometry, *, enforce: bool = True
) -> ActionFunction:
    """Rule transmitting one fixed level everywhere (enforce=False below u_max)."""
    values = np.full(geometry.n_points, float(level))
    return ActionFunction(values, action_set, geometry, enforce=enforce)


def banded_action(
    radii: np.ndarray,
    band_levels: np.ndarray,
    action_set: ActionSet,
    geometry: GridGeometry,
    *,
    enforce: bool = True,
) -> ActionFunction:
    """Symmetric step rule from exact switch radii; node values are point samples."""
    radii = np.asarray(radii, dtype=float)
    band_levels = np.asarray(band_levels, dtype=float)
    r = np.abs(_grid_arrays(geometry).nodes)
    values = band_levels[np.searchsorted(radii, r, side="right")]
    return ActionFunction(values, action_set, geometry, bands=(radii, band_levels), enforce=enforce)


def _levels(action: ActionFunction) -> np.ndarray:
    """The rule's levels: one per node, or one per band on a banded rule."""
    return action.values if action.bands is None else action.bands[1]


def _level_success(
    action: ActionFunction, reception: ReceptionModel, gain: float
) -> np.ndarray:
    """Success probability at each of the rule's levels, computed once per
    (reception, gain) and kept on the rule."""
    key = (reception, gain)
    q = action._success.get(key)
    if q is None:
        q = action._success[key] = reception_prob(reception, _levels(action), gain)
        q.flags.writeable = False
    return q


def _cell_average(action: ActionFunction, per_level: np.ndarray) -> np.ndarray:
    """Per-cell mean of a quantity given at the rule's levels: the node's own
    value, or on a banded rule the length-weighted mean over the cell's pieces."""
    if action.bands is None:
        return per_level
    cell, band, _, _, lengths = action._pieces
    return np.bincount(cell, per_level[band] * lengths) / _grid_arrays(action.geometry).cell_w


def expected_power(belief: BeliefGrid, action: ActionFunction) -> float:
    """Mean transmitted power under the belief."""
    return float(belief.cell_masses() @ _cell_average(action, _levels(action)))


def success_prob(
    belief: BeliefGrid, gain: float, action: ActionFunction, reception: ReceptionModel
) -> float:
    """Probability the packet gets through: reception probability integrated
    against the belief."""
    q = _cell_average(action, _level_success(action, reception, gain))
    return min(max(float(belief.cell_masses() @ q), 0.0), 1.0)


def post_failure(
    belief: BeliefGrid, gain: float, action: ActionFunction, reception: ReceptionModel
) -> BeliefGrid:
    """Belief conditioned on a transmission failure.

    Requires the failure event to be non-degenerate (success probability below
    1 - DEGENERATE_SUCCESS_TOL).  On a banded rule, the surviving mass of a
    cell split by a switch radius is averaged back over the cell, keeping cell
    masses exact.  The one-row case of the belief step's conditioning.
    """
    succ, fail = _rule_vectors(action, reception, gain)
    errors: list[ValueError | None] = [None]
    rows = _condition_rows(belief.geometry, belief.weights[None], [succ], [fail], errors)
    return _one_row(belief.geometry, rows, errors)


def _failure_center(belief: BeliefGrid, q_at_nodes: np.ndarray) -> float:
    """Mean innovation of the failure branch under per-node success
    probabilities; zero when that branch carries no mass."""
    fail_w = (1.0 - q_at_nodes) * belief.cell_masses()
    fail_mass = float(fail_w.sum())
    if fail_mass < DEGENERATE_SUCCESS_TOL:
        return 0.0
    return float(fail_w @ belief.nodes) / fail_mass


def propagate(
    belief: BeliefGrid,
    gain: float,
    action: ActionFunction,
    received: int,
    process: ScalarProcess,
    reception: ReceptionModel,
) -> BeliefGrid:
    """One-step belief update after observing the transmission outcome.

    Success resets the innovation to pure process noise.  Failure conditions
    on the miss, pushes the density through the plant map e -> a*e, and
    convolves with the noise kernel (the one-row case of the belief step).
    Mass escaping the grid beyond SUPPORT_OVERFLOW_TOL raises instead of being
    silently renormalized away.
    """
    if received:
        return gaussian_grid(0.0, process.noise_var, belief.geometry)
    succ, fail = _rule_vectors(action, reception, gain)
    out = np.empty((1, belief.n_points))
    errors = _step_rows(belief.geometry, process, belief.weights[None], [succ], [fail], out)
    return _one_row(belief.geometry, out, errors)


def _rule_vectors(
    action: ActionFunction, reception: ReceptionModel, gain: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell success and failure probability of a rule at a gain, the two
    vectors a row of the belief step reads."""
    q = _level_success(action, reception, gain)
    return _cell_average(action, q), _cell_average(action, 1.0 - q)


def _condition_rows(
    geometry: GridGeometry,
    parents: np.ndarray,
    succ: list[np.ndarray],
    fail: list[np.ndarray],
    errors: list[ValueError | None],
) -> np.ndarray:
    """Each row of `parents` conditioned on a miss under its row of `succ`
    and `fail`, as a new (rows, points) array; a degenerate or unnormalizable
    row gets its error in `errors` and zeros in the result."""
    cell_w = _grid_arrays(geometry).cell_w
    for r, (parent, q) in enumerate(zip(parents, succ)):
        phi = min(max(float((cell_w * parent) @ q), 0.0), 1.0)
        if 1.0 - phi < DEGENERATE_SUCCESS_TOL:
            errors[r] = DegenerateSuccessError(
                f"success probability {phi} leaves no failure branch to condition on"
            )
    rows = np.array(fail)
    np.multiply(rows, parents, out=rows)
    _normalize_rows(rows, _clipped_totals(rows, cell_w), cell_w, rows, errors)
    rows[[err is not None for err in errors]] = 0.0
    return rows


def _step_rows(
    geometry: GridGeometry,
    process: ScalarProcess,
    parents: np.ndarray,
    succ: list[np.ndarray],
    fail: list[np.ndarray],
    out: np.ndarray,
) -> list[ValueError | None]:
    """The belief step after a miss for every row of `parents` (one geometry,
    each row under its own per-cell success and failure vectors), written to
    the same rows of `out`.  Returns each row's error or None; a row that
    fails is still written, finite when its parent row is (zeros when
    degenerate), and the others go on."""
    n = geometry.n_points
    grid = _grid_arrays(geometry)
    errors: list[ValueError | None] = [None] * len(parents)
    conditioned = _condition_rows(geometry, parents, succ, fail, errors)

    # exact mass projection of the stretched density e -> a*e: the cell-constant
    # CDF is piecewise linear, so pulling target cell edges back through the map
    # keeps masses exact even across the jumps a banded action puts in theta_plus;
    # each stage reuses the last one's rows, so a block holds few temporaries
    cum = np.zeros((len(parents), n + 1))
    np.cumsum(np.multiply(grid.cell_w, conditioned, out=conditioned), axis=1, out=cum[:, 1:])
    pulled = grid.edges / abs(process.a)
    for c in cum:
        c[:] = np.interp(pulled, grid.edges, c, left=0.0, right=float(c[-1]))
    kernel, size, spectrum = _noise_kernel(geometry, process.noise_var)
    if geometry.convolution == "fft":
        padded, product, full = _fft_buffers(n, size, len(parents))
        weighted = padded[:, :n]
    else:
        weighted = conditioned
    # a mirrored plant map writes each row's cell masses from the far end
    np.subtract(cum[:, 1:], cum[:, :-1], out=weighted if process.a > 0 else weighted[:, ::-1])
    del cum

    if geometry.convolution == "fft":
        # the "valid" part of the full linear convolution, as fftconvolve takes it
        np.fft.rfft(padded, out=product)
        np.fft.irfft(np.multiply(spectrum, product, out=product), size, out=full)
        raw = full[:, n - 1 : 2 * n - 1]
    else:
        raw = np.array([np.convolve(w, kernel, mode="valid") for w in weighted])

    totals = _clipped_totals(raw, grid.cell_w)
    for r, total in enumerate(totals):
        escaped = 1.0 - float(total)
        if errors[r] is None and escaped > SUPPORT_OVERFLOW_TOL:
            errors[r] = SupportOverflowError(
                f"{escaped:.3e} of the propagated belief escaped [-{geometry.half_width}, "
                f"{geometry.half_width}]; enlarge the grid half_width"
            )
    _normalize_rows(raw, totals, grid.cell_w, out, errors)
    return errors


def stage_cost(
    belief: BeliefGrid,
    gain: float,
    action: ActionFunction,
    reception: ReceptionModel,
    weights: CostWeights,
) -> float:
    """Expected one-step cost: alpha * power plus squared innovation error kept
    on failure.

    The error is measured against the failure-branch mean, which is what the
    estimator will use if this transmission misses.  When success is
    essentially certain the failure branch carries no weight and only power
    is charged.
    """
    alpha = weights.alpha
    power = expected_power(belief, action)
    q = _level_success(action, reception, gain)
    if action.bands is not None:
        cell, band, lo, hi, lengths = action._pieces
        fail_w = (1.0 - q)[band] * belief.weights[cell]
        fail_mass = float(np.sum(fail_w * lengths))
        if fail_mass < DEGENERATE_SUCCESS_TOL:
            return alpha * power
        e_hat = 0.5 * float(np.sum(fail_w * (hi * hi - lo * lo))) / fail_mass
        b, a = hi - e_hat, lo - e_hat
        distortion = float(np.sum(fail_w * lengths * (b * b + a * b + a * a))) / 3.0
    else:
        distortion = _node_distortion(belief.cell_masses(), q, belief.nodes)
    return alpha * power + distortion


def _node_distortion(masses: np.ndarray, q: np.ndarray, nodes: np.ndarray) -> float:
    """Squared error about the failure-branch mean of a node rule with
    per-node success probabilities q, in the node-sum quadrature; zero when
    the failure branch carries no mass."""
    fail_w = (1.0 - q) * masses
    fail_mass = float(fail_w.sum())
    if fail_mass < DEGENERATE_SUCCESS_TOL:
        return 0.0
    e_hat = float(fail_w @ nodes) / fail_mass
    return float(fail_w @ (nodes - e_hat) ** 2)
