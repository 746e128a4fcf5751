"""Property tests: the fast pilot-wave paths against plain reference versions.

`check_noncrossing` is compared with an O(n^2) pair count, and the shared-cell
velocity interpolation with the per-field interpolation it replaced, which
is kept here as the reference and must agree bit for bit.
"""

import math

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import pilotwave

# ---------------------------------------------------------------------------
# non-crossing


def _brute_swaps(series: np.ndarray) -> int:
    """Pairs strictly ordered at one time and strictly reversed at the next."""
    count = 0
    for a, b in zip(series[:-1], series[1:]):
        for i in range(a.size):
            for j in range(a.size):
                if a[i] < a[j] and b[i] > b[j]:
                    count += 1
    return count


_shapes = st.tuples(st.integers(1, 5), st.integers(0, 24))


@given(hnp.arrays(np.float64, _shapes, elements=st.integers(-3, 3).map(float)))
def test_noncrossing_matches_brute_force_on_series_with_ties(series):
    assert pilotwave.check_noncrossing(series) == _brute_swaps(series)


@given(hnp.arrays(np.float64, _shapes, elements=st.floats(-1e6, 1e6)))
def test_noncrossing_matches_brute_force_on_random_series(series):
    assert pilotwave.check_noncrossing(series) == _brute_swaps(series)


@given(hnp.arrays(np.float64, _shapes, elements=st.floats(-1e6, 1e6)))
def test_noncrossing_zero_on_sorted_series(series):
    ordered = np.sort(series, axis=1)
    assert pilotwave.check_noncrossing(ordered) == 0 == _brute_swaps(ordered)


@given(hnp.arrays(np.float64, st.integers(0, 24), elements=st.floats(-1e6, 1e6), unique=True))
def test_noncrossing_counts_every_pair_of_a_reversed_series(row):
    series = np.stack([row, -row, row])
    n = row.size
    assert pilotwave.check_noncrossing(series) == n * (n - 1) == _brute_swaps(series)


# ---------------------------------------------------------------------------
# shared-cell interpolation


def _per_field_interpolate(grid, field, positions):
    """Per-field bilinear interpolation, recomputing the cells for every field."""
    idx = []
    frac = []
    for d, axis in enumerate(grid.axes):
        u = (positions[:, d] - axis.qmin) / axis.dq
        u = np.clip(u, 0.0, axis.npoints - 1 - 1e-12)
        i = np.floor(u).astype(np.intp)
        idx.append(i)
        frac.append(u - i)
    if grid.ndim == 1:
        i, w = idx[0], frac[0]
        return (1.0 - w) * field[i] + w * field[i + 1]
    i, j = idx
    wx, wy = frac
    return (
        (1.0 - wx) * (1.0 - wy) * field[i, j]
        + wx * (1.0 - wy) * field[i + 1, j]
        + (1.0 - wx) * wy * field[i, j + 1]
        + wx * wy * field[i + 1, j + 1]
    )


def _per_field_velocity(grid, fields, positions):
    rho, nums, eps = fields
    rho_p = np.maximum(_per_field_interpolate(grid, rho, positions), eps)
    out = np.empty_like(positions)
    for d, num in enumerate(nums):
        out[:, d] = _per_field_interpolate(grid, num, positions) / rho_p
    return out


def _per_call_flow_fields(psi, params):
    """Density and velocity numerators, wavenumbers rebuilt on every call."""
    grid = psi.grid
    v = psi.values
    rho = np.abs(v) ** 2
    nums = []
    for axis_idx, (k, m) in enumerate(zip(pilotwave._wavenumbers(grid), params.masses)):
        shape = [1] * grid.ndim
        shape[axis_idx] = k.size
        grad = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(v, axis=axis_idx), axis=axis_idx)
        nums.append(np.imag(np.conj(v) * grad) / m)
    return rho, nums, pilotwave.NODE_EPS_FACTOR * float(rho.max())


_GRIDS = {
    1: pilotwave.GridSpec.make((-4.0, 4.0, 64)),
    2: pilotwave.GridSpec.make((-4.0, 4.0, 64), (-5.0, 5.0, 128)),
}


def _positions(ndim):
    # reaches past both grid ends, so the clipped edge cells are drawn too
    return st.integers(1, 40).flatmap(
        lambda n: hnp.arrays(np.float64, (n, ndim), elements=st.floats(-7.0, 7.0))
    )


def _same_bits(a, b):
    # bit for bit, signed zeros included
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(ndim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shared_cells_velocity_equals_per_field_interpolation(ndim, seed, data):
    grid = _GRIDS[ndim]
    positions = data.draw(_positions(ndim))
    rng = np.random.default_rng(seed)
    rho = rng.random(grid.shape) ** 4  # small densities hit the eps floor
    nums = [rng.standard_normal(grid.shape) for _ in range(ndim)]
    fields = (rho, nums, 1e-3)
    assert _same_bits(
        pilotwave._velocity_from_fields(grid, fields, positions),
        _per_field_velocity(grid, fields, positions),
    )


@settings(deadline=None, max_examples=30)
@given(
    ndim=st.sampled_from([1, 2]),
    center=st.floats(-1.0, 1.0),
    momentum=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_velocity_field_equals_per_call_reference(ndim, center, momentum, data):
    grid = _GRIDS[ndim]
    profile = pilotwave.GaussianProfile(
        center=(center,) * ndim, width=(0.5,) * ndim, momentum=(momentum,) * ndim
    )
    psi = pilotwave.init_wavefunction(grid, profile)
    params = pilotwave.PhysicsParams(masses=(1.0, 2.0)[:ndim], potential=pilotwave.free())
    positions = data.draw(_positions(ndim))
    expected = _per_field_velocity(grid, _per_call_flow_fields(psi, params), positions)
    assert _same_bits(pilotwave.velocity_field(psi, params, positions), expected)
    assert math.isfinite(float(np.abs(expected).max()))
