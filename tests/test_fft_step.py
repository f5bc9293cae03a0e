"""The belief step's FFT convolution on NumPy's pocketfft, into per-thread
buffers, against the same step on scipy.fft (``oracles.step_rows_scipy_fft``),
bit for bit."""

import dataclasses

import numpy as np
import pytest
import scipy.fft

from oracles import step_rows_scipy_fft
from remotepower import GridGeometry, SupportOverflowError, banded_action, constant_action
from remotepower.belief import _next_fast_len, _noise_kernel, _rule_vectors, _step_rows


def _rows(geometry, count: int, floor: float = 0.0) -> np.ndarray:
    """`count` normalized two-bump densities with different centres and
    widths, plus `floor` everywhere so that the outer cells are nonzero."""
    x = geometry.nodes()
    rows = []
    for r in range(count):
        c, s = -9.0 + 18.0 * r / max(count - 1, 1), 1.0 + 0.5 * (r % 5)
        dens = np.exp(-0.5 * ((x - c) / s) ** 2) + 0.3 * np.exp(-0.5 * ((x + 0.5 * c - 2.0) / 3.0) ** 2)
        dens += floor * dens.max()
        rows.append(dens / float(geometry.cell_widths() @ dens))
    return np.array(rows)


def _vectors(problem, geometry, count: int):
    """Per-row success and failure vectors: a threshold rule per row with its
    own switch radius, at alternating gains, and one full-power rule."""
    acts = problem.actions
    levels = np.asarray(acts.levels)
    succ, fail = [], []
    for r in range(count):
        if r % 7 == 6:
            rule = constant_action(acts.u_max, acts, geometry)
        else:
            radii = np.sort(np.linspace(0.4, acts.saturation_radius - 0.5, len(levels) - 1) - 0.1 * r)
            rule = banded_action(np.maximum(radii, 0.0), levels, acts, geometry)
        gain = problem.channel.gains[r % problem.channel.n_gains]
        s, f = _rule_vectors(rule, problem.reception, gain)
        succ.append(s)
        fail.append(f)
    return succ, fail


def _assert_step_matches_oracle(geometry, process, parents, succ, fail):
    got, want = np.empty_like(parents), np.empty_like(parents)
    got_errors = _step_rows(geometry, process, parents, succ, fail, got)
    want_errors = step_rows_scipy_fft(geometry, process, parents, succ, fail, want)
    assert [repr(e) for e in got_errors] == [repr(e) for e in want_errors]
    live = [e is None for e in want_errors]
    assert any(live)
    assert np.array_equal(got[live], want[live])
    return got_errors


@pytest.mark.parametrize("a", [1.2, -1.2])
@pytest.mark.parametrize("rows", [1, 4, 8, 16])
def test_step_blocks_match_scipy_fft(canon_problem, canon_geometry, a, rows):
    assert canon_geometry.convolution == "fft"
    process = dataclasses.replace(canon_problem.process, a=a)
    parents = _rows(canon_geometry, rows)
    succ, fail = _vectors(canon_problem, canon_geometry, rows)
    _assert_step_matches_oracle(canon_geometry, process, parents, succ, fail)


def test_a_row_that_escapes_the_grid_keeps_its_error(canon_problem, canon_geometry):
    parents = _rows(canon_geometry, 8)
    x = canon_geometry.nodes()
    edge = np.exp(-0.5 * ((x - 0.9 * canon_geometry.half_width) / 2.0) ** 2)
    parents[3] = edge / float(canon_geometry.cell_widths() @ edge)
    succ, fail = _vectors(canon_problem, canon_geometry, 8)
    errors = _assert_step_matches_oracle(
        canon_geometry, canon_problem.process, parents, succ, fail
    )
    assert [r for r, e in enumerate(errors) if e is not None] == [3]
    assert isinstance(errors[3], SupportOverflowError)


def _step_sequence(problem, grids, a: float):
    process = dataclasses.replace(problem.process, a=a)
    for geometry, rows in grids:
        parents = _rows(geometry, rows, floor=1e-9)
        succ, fail = _vectors(problem, geometry, rows)
        assert _assert_step_matches_oracle(geometry, process, parents, succ, fail) == [None] * rows


@pytest.mark.parametrize("a", [1.2, -1.2])
@pytest.mark.parametrize("first", [4001, 4011])
def test_grids_that_share_an_fft_length_do_not_share_padding(canon_problem, first, a):
    # 4001 and 4011 points both convolve at length 12150; every row has mass
    # in its outer cells, so a padding column left over from the wider grid
    # would change the narrower grid's step
    other = 4011 if first == 4001 else 4001
    grids = [GridGeometry(60.0, n, "fft") for n in (first, other)]
    w = canon_problem.process.noise_var
    assert [_noise_kernel(g, w)[1] for g in grids] == [12150, 12150]
    _step_sequence(canon_problem, [(grids[0], 8), (grids[1], 4), (grids[0], 4), (grids[1], 16)], a)


def test_a_shorter_fft_length_after_a_longer_one(canon_problem):
    long, short = GridGeometry(60.0, 4001, "fft"), GridGeometry(60.0, 2001, "fft")
    w = canon_problem.process.noise_var
    assert _noise_kernel(short, w)[1] < _noise_kernel(long, w)[1]
    _step_sequence(canon_problem, [(long, 16), (short, 4), (long, 4), (short, 16)], 1.2)


def test_next_fast_len_is_scipys_real_fft_length():
    got = [_next_fast_len(t) for t in range(1, 50_001)]
    assert got == [scipy.fft.next_fast_len(t, True) for t in range(1, 50_001)]
