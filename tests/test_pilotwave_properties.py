"""Property tests: the fast pilot-wave paths against plain reference versions.

`check_noncrossing` is compared with an O(n^2) pair count, the shared-cell
velocity interpolation with the per-field interpolation it replaced, and the
block-batched trajectory integrator with the per-step RK4 loop it replaced.
The references are kept here and must agree bit for bit.
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


def _coordinates(axis):
    """Any point of the axis and beyond it, grid nodes exactly, the upper
    edge of the last interior cell (the last node) and its neighbours, and
    points past both grid ends, where the clipped edge cells are read."""
    last = float(axis.nodes[-1])
    return st.one_of(
        st.floats(-7.0, 7.0),
        st.integers(0, axis.npoints - 1).map(lambda i: float(axis.nodes[i])),
        st.sampled_from([last, np.nextafter(last, -np.inf), np.nextafter(last, np.inf), axis.qmax]),
        st.floats(axis.qmax, 2.0 * axis.qmax),
        st.floats(2.0 * axis.qmin, axis.qmin),
    )


def _positions(grid):
    point = st.tuples(*(_coordinates(a) for a in grid.axes))
    return st.lists(point, min_size=1, max_size=40).map(lambda rows: np.array(rows, dtype=np.float64))


def _same_bits(a, b):
    # bit for bit, signed zeros included
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(ndim=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_shared_cells_velocity_equals_per_field_interpolation(ndim, seed, data):
    grid = _GRIDS[ndim]
    positions = data.draw(_positions(grid))
    rng = np.random.default_rng(seed)
    rho = rng.random(grid.shape) ** 4  # small densities hit the eps floor
    nums = [rng.standard_normal(grid.shape) for _ in range(ndim)]
    out = np.empty_like(positions)
    # entries past the last node stay NaN, so reading one fails the comparison
    corners = np.full((1, rho.size, 2**ndim, 1 + ndim), np.nan)
    pilotwave._lay_corners(grid, np.stack([rho, *nums])[None], corners)
    sampler = pilotwave._Sampler(grid, positions.shape[0])
    sampler.velocity(corners[0], 1e-3, positions, out)
    assert _same_bits(out, _per_field_velocity(grid, (rho, nums, 1e-3), positions))


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
    positions = data.draw(_positions(grid))
    expected = _per_field_velocity(grid, _per_call_flow_fields(psi, params), positions)
    assert _same_bits(pilotwave.velocity_field(psi, params, positions), expected)
    assert math.isfinite(float(np.abs(expected).max()))


# ---------------------------------------------------------------------------
# block-batched integration


def _oracle_integrate(psi, params, positions, dt, steps, save_every=1, margin_cells=4,
                      keep_wavefunctions=True):
    """The per-step RK4 loop: two Strang half steps, three fresh snapshots'
    fields and four velocity evaluations per step, every temporary new."""
    grid = psi.grid
    vgrid = params.potential.values(grid, params.masses)
    q = np.atleast_2d(np.asarray(positions, dtype=np.float64)).copy()
    n = q.shape[0]
    absorbed_at = np.full(n, -1, dtype=np.intp)
    lo = np.array([a.qmin + margin_cells * a.dq for a in grid.axes])
    hi = np.array([a.qmax - margin_cells * a.dq for a in grid.axes])

    def mark_absorbed(step):
        alive = absorbed_at < 0
        out = np.any((q < lo) | (q > hi), axis=1)
        absorbed_at[alive & out] = step

    mark_absorbed(0)
    saved_steps = [0]
    snaps = [q.copy()]
    wfs = [psi] if keep_wavefunctions else []

    h = dt / 2
    exp_v_half = np.exp(-0.5j * h * vgrid)
    exp_k = np.exp(-1j * h * pilotwave._kinetic_grid(grid, params.masses))

    def half_step(values):
        v = exp_v_half * values
        # a ufunc call, not `*`: on grids of 256 KiB and more numpy may
        # evaluate `exp_k * temporary` as `temporary * exp_k`, whose complex
        # products can round differently
        v = np.fft.ifftn(np.multiply(exp_k, np.fft.fftn(v)))
        return exp_v_half * v

    cur = psi.values.copy()
    fields_t = _per_call_flow_fields(psi, params)
    for step in range(1, steps + 1):
        mid = half_step(cur)
        nxt = half_step(mid)
        psi_mid = pilotwave.GridWavefunction(grid, mid, time=psi.time + (step - 0.5) * dt)
        psi_nxt = pilotwave.GridWavefunction(grid, nxt, time=psi.time + step * dt)
        fields_m = _per_call_flow_fields(psi_mid, params)
        fields_n = _per_call_flow_fields(psi_nxt, params)

        alive = absorbed_at < 0
        k1 = _per_field_velocity(grid, fields_t, q)
        k2 = _per_field_velocity(grid, fields_m, q + 0.5 * dt * k1)
        k3 = _per_field_velocity(grid, fields_m, q + 0.5 * dt * k2)
        k4 = _per_field_velocity(grid, fields_n, q + dt * k3)
        np.copyto(q, q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), where=alive[:, None])
        mark_absorbed(step)

        cur = nxt
        fields_t = fields_n
        if step % save_every == 0 or step == steps:
            saved_steps.append(step)
            snaps.append(q.copy())
            if keep_wavefunctions:
                wfs.append(psi_nxt)

    steps_arr = np.array(saved_steps, dtype=np.intp)
    return pilotwave.TrajectoryRun(
        grid=grid,
        dt=float(dt),
        saved_steps=steps_arr,
        times=psi.time + dt * steps_arr.astype(np.float64),
        positions=np.stack(snaps),
        absorbed_at=absorbed_at,
        wavefunctions=tuple(wfs),
    )


# 1D with long blocks, 2D with blocks of two steps, and a 2D grid with blocks
# of one step
_RUN_GRIDS = {
    "1d": (pilotwave.GridSpec.make((-4.0, 4.0, 64)), 0.002),
    "2d": (pilotwave.GridSpec.make((-4.0, 4.0, 64), (-5.0, 5.0, 64)), 0.002),
    "2d-large": (pilotwave.GridSpec.make((-4.0, 4.0, 128), (-5.0, 5.0, 128)), 0.0009),
}


@st.composite
def _step_counts(draw, block):
    """Steps below, at and above the block length, and not a multiple of it."""
    edges = [1, block - 1, block, block + 1, 2 * block, 2 * block + 1]
    return draw(st.sampled_from([s for s in edges if s >= 1]) | st.integers(1, 2 * block + 3))


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(sorted(_RUN_GRIDS)),
    momentum=st.floats(-3.0, 3.0),
    t0=st.sampled_from([0.0, 0.25]),
    keep=st.booleans(),
    data=st.data(),
)
def test_integration_equals_per_step_reference(name, momentum, t0, keep, data):
    grid, dt = _RUN_GRIDS[name]
    ndim = grid.ndim
    block = pilotwave._block_steps(grid)
    if name == "2d-large":
        assert block == 1
        steps = data.draw(st.integers(1, 3))
    else:
        assert block > 1
        steps = data.draw(_step_counts(block))
    save_every = data.draw(st.integers(1, steps + 2))
    profile = pilotwave.GaussianProfile(
        center=(0.3,) * ndim, width=(0.5,) * ndim, momentum=(momentum,) * ndim
    )
    psi = pilotwave.init_wavefunction(grid, profile)
    psi = pilotwave.GridWavefunction(grid, psi.values, time=t0)
    params = pilotwave.PhysicsParams(
        masses=(1.0, 2.0)[:ndim], potential=pilotwave.harmonic(1.0, (0.2,) * ndim)
    )
    # rows start inside and outside the interior margin, and near its edge
    n = data.draw(st.integers(1, 30))
    positions = data.draw(hnp.arrays(np.float64, (n, ndim), elements=st.floats(-4.0, 4.0)))

    run = pilotwave.integrate_trajectories(
        psi, params, positions, dt, steps, save_every=save_every, keep_wavefunctions=keep
    )
    ref = _oracle_integrate(psi, params, positions, dt, steps, save_every, keep_wavefunctions=keep)
    assert np.array_equal(run.saved_steps, ref.saved_steps)
    assert _same_bits(run.times, ref.times)
    assert _same_bits(run.positions, ref.positions)
    assert np.array_equal(run.absorbed_at, ref.absorbed_at)
    assert len(run.wavefunctions) == len(ref.wavefunctions) == (len(ref.saved_steps) if keep else 0)
    for got, want in zip(run.wavefunctions, ref.wavefunctions):
        assert got.time == want.time
        assert _same_bits(got.values, want.values)
