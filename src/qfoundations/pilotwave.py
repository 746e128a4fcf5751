"""Grid Schrodinger evolution with Bohmian trajectories on top.

Natural units (hbar = 1) throughout.  The wave function obeys

    i dpsi/dt = sum_k -(1/(2 m_k)) d^2 psi/dq_k^2 + V(q) psi

on a periodic uniform grid (1 or 2 axes), advanced by Strang splitting:
half kick exp(-i V dt/2), full spectral drift exp(-i k^2 dt / (2m)), half
kick.  The scheme is norm-preserving and second order in dt.

Particles ride the wave: a configuration Q(t) follows

    dQ_k/dt = Im( psi* dpsi/dq_k / |psi|^2 )(Q(t), t) / m_k,

integrated with RK4 using wave-function snapshots at t, t+dt/2 and t+dt.
Density and the velocity numerator are interpolated bilinearly between grid
nodes; the denominator is floored at 1e-12 of the density maximum so node
neighborhoods cannot produce infinities.

An ensemble drawn from |psi|^2 (inverse-CDF over grid cells plus uniform
jitter inside a cell) stays |psi|^2-distributed under this flow; the
Kolmogorov-Smirnov check `check_equivariance` and the 1D order-preservation
check `check_noncrossing` make that testable.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GRID_NORM_TOL",
    "NORM_DRIFT_TOL",
    "NODE_EPS_FACTOR",
    "NormDriftError",
    "GridAxis",
    "GridSpec",
    "GridWavefunction",
    "Potential",
    "free",
    "harmonic",
    "double_slit_barrier",
    "PhysicsParams",
    "GaussianProfile",
    "TwoGaussianProfile",
    "init_wavefunction",
    "step_schrodinger",
    "velocity_field",
    "sample_equilibrium",
    "integrate_trajectories",
    "TrajectoryRun",
    "EquivarianceReport",
    "check_equivariance",
    "check_noncrossing",
    "conditional_wavefunction",
    "export_trajectories_csv",
    "export_wavefunction_csv",
]

GRID_NORM_TOL = 1e-10
NORM_DRIFT_TOL = 1e-8
NODE_EPS_FACTOR = 1e-12
LEAKAGE_TOL = 1e-6


class NormDriftError(ValueError):
    """The evolved wave function lost unit norm beyond NORM_DRIFT_TOL."""


@dataclass(frozen=True)
class GridAxis:
    qmin: float
    qmax: float
    npoints: int

    def __post_init__(self):
        if self.qmax <= self.qmin:
            raise ValueError(f"axis needs qmax > qmin, got [{self.qmin}, {self.qmax}]")
        n = self.npoints
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError(f"npoints must be a power of two >= 64, got {n}")

    @property
    def dq(self) -> float:
        return (self.qmax - self.qmin) / self.npoints

    @property
    def nodes(self) -> np.ndarray:
        # periodic grid: right endpoint excluded
        return self.qmin + self.dq * np.arange(self.npoints)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(f"1 or 2 axes supported, got {len(self.axes)}")

    @classmethod
    def make(cls, *axes: tuple[float, float, int]) -> "GridSpec":
        return cls(tuple(GridAxis(*a) for a in axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.npoints for a in self.axes)

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for a in self.axes:
            v *= a.dq
        return v

    def meshes(self) -> list[np.ndarray]:
        return np.meshgrid(*[a.nodes for a in self.axes], indexing="ij")


class GridWavefunction:
    """Complex values on the grid nodes at one instant, unit L2 norm."""

    __slots__ = ("grid", "values", "time")

    def __init__(self, grid: GridSpec, values, time: float = 0.0):
        v = np.asarray(values, dtype=np.complex128)
        if v.shape != grid.shape:
            raise ValueError(f"expected shape {grid.shape}, got {v.shape}")
        nrm = math.sqrt(float(np.sum(np.abs(v) ** 2)) * grid.cell_volume)
        if not abs(nrm - 1.0) <= GRID_NORM_TOL:
            raise ValueError(f"wavefunction norm {nrm!r} is off unity beyond {GRID_NORM_TOL}")
        v = v.copy()
        v.setflags(write=False)
        self.grid = grid
        self.values = v
        self.time = float(time)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2)) * self.grid.cell_volume)


class Potential:
    """Named analytic potential V(q); evaluated on a grid given the masses."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = dict(params)

    def values(self, grid: GridSpec, masses: Sequence[float]) -> np.ndarray:
        meshes = grid.meshes()
        if self.kind == "free":
            return np.zeros(grid.shape)
        if self.kind == "harmonic":
            omega = self.params["omega"]
            centers = self.params.get("center") or (0.0,) * grid.ndim
            v = np.zeros(grid.shape)
            for m, q, c in zip(masses, meshes, centers):
                v = v + 0.5 * m * omega**2 * (q - c) ** 2
            return v
        if self.kind == "double_slit_barrier":
            h = self.params["height"]
            w = self.params["thickness"]
            c = self.params.get("center", 0.0)
            wall = h * np.exp(-((meshes[0] - c) ** 2) / (2.0 * w**2))
            if grid.ndim == 1:
                return wall
            d = self.params["slit_separation"]
            a = self.params["slit_width"]
            y = meshes[1]
            openings = np.exp(-((y - d / 2) ** 2) / (2 * a**2)) + np.exp(
                -((y + d / 2) ** 2) / (2 * a**2)
            )
            return wall * np.clip(1.0 - openings, 0.0, 1.0)
        raise ValueError(f"unknown potential kind {self.kind!r}")


def free() -> Potential:
    return Potential("free", {})


def harmonic(omega: float, center: Sequence[float] | None = None) -> Potential:
    return Potential("harmonic", {"omega": float(omega), "center": tuple(center) if center else None})


def double_slit_barrier(
    height: float,
    thickness: float,
    slit_separation: float = 0.0,
    slit_width: float = 1.0,
    center: float = 0.0,
) -> Potential:
    return Potential(
        "double_slit_barrier",
        {
            "height": float(height),
            "thickness": float(thickness),
            "slit_separation": float(slit_separation),
            "slit_width": float(slit_width),
            "center": float(center),
        },
    )


@dataclass(frozen=True)
class PhysicsParams:
    """Masses per axis and the external potential."""

    masses: tuple[float, ...]
    potential: Potential

    def __post_init__(self):
        if any(m <= 0 for m in self.masses):
            raise ValueError(f"masses must be positive, got {self.masses}")


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian packet; `width` is the standard deviation of |psi|^2 per axis."""

    center: tuple[float, ...]
    width: tuple[float, ...]
    momentum: tuple[float, ...]

    def amplitude(self, meshes: list[np.ndarray]) -> np.ndarray:
        out = np.ones(meshes[0].shape, dtype=np.complex128)
        for q, c, s, p in zip(meshes, self.center, self.width, self.momentum):
            out = out * np.exp(-((q - c) ** 2) / (4.0 * s**2) + 1j * p * q)
        return out

    def tail_mass_outside(self, grid: GridSpec) -> float:
        leak = 0.0
        for axis, c, s in zip(grid.axes, self.center, self.width):
            z_hi = (axis.qmax - c) / (math.sqrt(2.0) * s)
            z_lo = (c - axis.qmin) / (math.sqrt(2.0) * s)
            leak += 0.5 * math.erfc(z_hi) + 0.5 * math.erfc(z_lo)
        return leak


@dataclass(frozen=True)
class TwoGaussianProfile:
    """Superposition of two Gaussian packets (double-slit style initial data)."""

    components: tuple[GaussianProfile, GaussianProfile]
    weights: tuple[float, float] = (1.0, 1.0)

    def amplitude(self, meshes: list[np.ndarray]) -> np.ndarray:
        a, b = self.components
        wa, wb = self.weights
        return wa * a.amplitude(meshes) + wb * b.amplitude(meshes)

    def tail_mass_outside(self, grid: GridSpec) -> float:
        return max(c.tail_mass_outside(grid) for c in self.components)


def init_wavefunction(grid: GridSpec, profile) -> GridWavefunction:
    """Evaluate a profile on the grid and normalize it discretely.

    Profiles whose analytic tail mass outside the grid exceeds 1e-6 are
    rejected: the periodic spectral stepper would silently wrap them.
    """
    leak = profile.tail_mass_outside(grid)
    if leak > LEAKAGE_TOL:
        raise ValueError(
            f"profile leaks {leak:.3e} probability outside the grid (limit {LEAKAGE_TOL})"
        )
    raw = profile.amplitude(grid.meshes())
    nrm = math.sqrt(float(np.sum(np.abs(raw) ** 2)) * grid.cell_volume)
    return GridWavefunction(grid, raw / nrm, time=0.0)


def _wavenumbers(grid: GridSpec) -> list[np.ndarray]:
    return [2.0 * math.pi * np.fft.fftfreq(a.npoints, d=a.dq) for a in grid.axes]


def _kinetic_grid(grid: GridSpec, masses: Sequence[float]) -> np.ndarray:
    ks = _wavenumbers(grid)
    if grid.ndim == 1:
        return ks[0] ** 2 / (2.0 * masses[0])
    kx, ky = np.meshgrid(ks[0], ks[1], indexing="ij")
    return kx**2 / (2.0 * masses[0]) + ky**2 / (2.0 * masses[1])


def _check_dt(grid: GridSpec, params: PhysicsParams, vgrid: np.ndarray, dt: float) -> None:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    dq = min(a.dq for a in grid.axes)
    bound = 0.25 * min(params.masses) * dq * dq
    if not dt <= bound:
        raise ValueError(f"dt = {dt} exceeds the kinetic stability bound {bound:.6e}")
    vmax = float(np.max(np.abs(vgrid)))
    if vmax != 0 and not dt <= 0.1 / vmax:
        raise ValueError(f"dt = {dt} exceeds the potential stability bound {0.1 / vmax:.6e}")


def _strang_step(grid: GridSpec, params: PhysicsParams, vgrid: np.ndarray, h: float):
    """One Strang splitting step of size h (half kick, drift, half kick), as a
    function of the grid values."""
    exp_v_half = np.exp(-0.5j * h * vgrid)
    exp_k = np.exp(-1j * h * _kinetic_grid(grid, params.masses))

    def step(values: np.ndarray) -> np.ndarray:
        v = exp_v_half * values
        v = np.fft.ifftn(exp_k * np.fft.fftn(v))
        return exp_v_half * v

    return step


def step_schrodinger(
    psi: GridWavefunction, params: PhysicsParams, dt: float, steps: int = 1
) -> GridWavefunction:
    """Advance by `steps` Strang splitting steps of size dt."""
    grid = psi.grid
    vgrid = params.potential.values(grid, params.masses)
    _check_dt(grid, params, vgrid, dt)
    step = _strang_step(grid, params, vgrid, dt)
    v = psi.values
    for _ in range(steps):
        v = step(v)
    return GridWavefunction(grid, v, time=psi.time + dt * steps)


def _flow_fields(psi: GridWavefunction, params: PhysicsParams):
    """Cache density and velocity-numerator grids for one snapshot."""
    grid = psi.grid
    v = psi.values
    rho = np.abs(v) ** 2
    ks = _wavenumbers(grid)
    nums = []
    for axis_idx, (k, m) in enumerate(zip(ks, params.masses)):
        shape = [1] * grid.ndim
        shape[axis_idx] = k.size
        grad = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(v, axis=axis_idx), axis=axis_idx)
        nums.append(np.imag(np.conj(v) * grad) / m)
    eps = NODE_EPS_FACTOR * float(rho.max())
    return rho, nums, eps


def _cells(grid: GridSpec, positions: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat corner indices and weights of positions (n, d) for `_interpolate`.

    Computed once per set of positions and shared by every field sampled
    there.  The weights are the bilinear (linear in 1D) factors in the order
    the interpolation sums them.
    """
    idx = []
    frac = []
    for d, axis in enumerate(grid.axes):
        u = (positions[:, d] - axis.qmin) / axis.dq
        u = np.clip(u, 0.0, axis.npoints - 1 - 1e-12)
        fl = np.floor(u)
        idx.append(fl.astype(np.intp))
        frac.append(u - fl)
    if grid.ndim == 1:
        i, w = idx[0], frac[0]
        return [(i, 1.0 - w), (i + 1, w)]
    i, j = idx
    wx, wy = frac
    ny = grid.axes[1].npoints
    k = i * ny + j
    return [
        (k, (1.0 - wx) * (1.0 - wy)),
        (k + ny, wx * (1.0 - wy)),
        (k + 1, (1.0 - wx) * wy),
        (k + ny + 1, wx * wy),
    ]


def _interpolate(field: np.ndarray, cells) -> np.ndarray:
    """Interpolate a grid field at the positions described by `_cells`."""
    (k, c), *rest = cells
    out = c * field.take(k)
    for k, c in rest:
        out += c * field.take(k)
    return out


def _velocity_from_fields(grid, fields, positions: np.ndarray) -> np.ndarray:
    rho, nums, eps = fields
    cells = _cells(grid, positions)
    rho_p = np.maximum(_interpolate(rho, cells), eps)
    out = np.empty_like(positions)
    for d, num in enumerate(nums):
        out[:, d] = _interpolate(num, cells) / rho_p
    return out


def velocity_field(
    psi: GridWavefunction, params: PhysicsParams, positions: np.ndarray
) -> np.ndarray:
    """Guiding velocity Im(psi* grad psi)/(m |psi|^2) at given positions (n, d)."""
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if positions.shape[1] != psi.grid.ndim:
        raise ValueError(f"positions must have {psi.grid.ndim} columns")
    return _velocity_from_fields(psi.grid, _flow_fields(psi, params), positions)


def sample_equilibrium(psi: GridWavefunction, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n positions from |psi|^2: inverse CDF over cells, uniform jitter inside.

    Node q_k carries the mass of the cell [q_k - dq/2, q_k + dq/2), centred
    on it, so the ensemble sits on |psi|^2 and not half a cell beside it.
    Draw order is fixed (cell block first, jitter block second) so results
    depend only on the stream, not on call structure.
    """
    grid = psi.grid
    p = psi.density().reshape(-1) * grid.cell_volume
    p = p / p.sum()
    cum = np.cumsum(p)
    cum[-1] = 1.0
    cells = np.searchsorted(cum, rng.random(n), side="right")
    jitter = rng.random((n, grid.ndim))
    unravel = np.unravel_index(cells, grid.shape)
    out = np.empty((n, grid.ndim))
    for d, axis in enumerate(grid.axes):
        out[:, d] = axis.qmin + (unravel[d] + jitter[:, d] - 0.5) * axis.dq
    return out


@dataclass(frozen=True)
class TrajectoryRun:
    """Co-evolved ensemble: saved positions, wavefunction snapshots, flags."""

    grid: GridSpec
    dt: float
    saved_steps: np.ndarray  # (T,) int step indices
    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, n, d); absorbed trajectories frozen in place
    absorbed_at: np.ndarray  # (n,) step index of absorption, -1 if never
    wavefunctions: tuple  # GridWavefunction per saved step, or ()

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[1]

    @property
    def n_absorbed(self) -> int:
        return int(np.sum(self.absorbed_at >= 0))


def integrate_trajectories(
    psi: GridWavefunction,
    params: PhysicsParams,
    positions: np.ndarray,
    dt: float,
    steps: int,
    save_every: int = 1,
    margin_cells: int = 4,
    keep_wavefunctions: bool = True,
) -> TrajectoryRun:
    """Evolve psi and an ensemble together for `steps` steps of size dt.

    RK4 per step with the wave function advanced in two Strang half steps so
    exact t + dt/2 snapshots feed the midpoint stages.  Trajectories leaving
    the grid interior margin are flagged absorbed and frozen, never clamped.
    """
    grid = psi.grid
    vgrid = params.potential.values(grid, params.masses)
    _check_dt(grid, params, vgrid, dt)
    q = np.atleast_2d(np.asarray(positions, dtype=np.float64)).copy()
    if q.shape[1] != grid.ndim:
        raise ValueError(f"positions must have {grid.ndim} columns")
    n = q.shape[0]
    absorbed_at = np.full(n, -1, dtype=np.intp)

    lo = np.array([a.qmin + margin_cells * a.dq for a in grid.axes])
    hi = np.array([a.qmax - margin_cells * a.dq for a in grid.axes])

    def mark_absorbed(step: int) -> None:
        alive = absorbed_at < 0
        out = np.any((q < lo) | (q > hi), axis=1)
        absorbed_at[alive & out] = step

    mark_absorbed(0)

    saved_steps = [0]
    snaps = [q.copy()]
    wfs = [psi] if keep_wavefunctions else []

    half_step = _strang_step(grid, params, vgrid, dt / 2)
    cur = psi.values.copy()
    fields_t = _flow_fields(psi, params)
    for step in range(1, steps + 1):
        mid = half_step(cur)
        nxt = half_step(mid)
        psi_mid = GridWavefunction(grid, mid, time=psi.time + (step - 0.5) * dt)
        psi_nxt = GridWavefunction(grid, nxt, time=psi.time + step * dt)
        fields_m = _flow_fields(psi_mid, params)
        fields_n = _flow_fields(psi_nxt, params)

        # every row is stepped and only alive rows are written back, so absorbed
        # trajectories stay frozen without a gather and scatter of the positions
        alive = absorbed_at < 0
        k1 = _velocity_from_fields(grid, fields_t, q)
        k2 = _velocity_from_fields(grid, fields_m, q + 0.5 * dt * k1)
        k3 = _velocity_from_fields(grid, fields_m, q + 0.5 * dt * k2)
        k4 = _velocity_from_fields(grid, fields_n, q + dt * k3)
        np.copyto(q, q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), where=alive[:, None])
        mark_absorbed(step)

        cur = nxt
        fields_t = fields_n
        if step % save_every == 0 or step == steps:
            saved_steps.append(step)
            snaps.append(q.copy())
            if keep_wavefunctions:
                wfs.append(psi_nxt)

    final_norm = math.sqrt(float(np.sum(np.abs(cur) ** 2)) * grid.cell_volume)
    if not abs(final_norm - 1.0) < NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted to {final_norm!r} (limit {NORM_DRIFT_TOL} off unity)")

    steps_arr = np.array(saved_steps, dtype=np.intp)
    return TrajectoryRun(
        grid=grid,
        dt=float(dt),
        saved_steps=steps_arr,
        times=psi.time + dt * steps_arr.astype(np.float64),
        positions=np.stack(snaps),
        absorbed_at=absorbed_at,
        wavefunctions=tuple(wfs),
    )


@dataclass(frozen=True)
class EquivarianceReport:
    statistic: float
    threshold: float
    n: int
    n_absorbed: int
    verdict: str  # pass | fail | invalid


def _ks_marginal(xs: np.ndarray, axis: GridAxis, masses: np.ndarray) -> float:
    """Exact KS distance of a sample against the piecewise-linear CDF of the
    node-centred cell masses that `sample_equilibrium` draws from."""
    m = masses / masses.sum()
    cum = np.concatenate([[0.0], np.cumsum(m)])
    xs = np.sort(xs)
    u = np.clip((xs - axis.qmin) / axis.dq + 0.5, 0.0, axis.npoints - 1e-12)
    i = np.floor(u).astype(np.intp)
    model = cum[i] + (u - i) * m[i]
    n = xs.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(model - grid_hi)), np.max(np.abs(model - grid_lo))))


def check_equivariance(
    run_or_positions,
    psi: GridWavefunction | None = None,
    time_index: int = -1,
    threshold: float | None = None,
) -> EquivarianceReport:
    """KS distance between an ensemble and |psi|^2 at a shared time.

    Accepts a TrajectoryRun (snapshot picked by time_index) or a raw (n, d)
    position array together with psi.  In 2D the statistic is the larger of
    the two per-axis marginal KS distances.  More than 1% absorbed
    trajectories invalidates the verdict.
    """
    if isinstance(run_or_positions, TrajectoryRun):
        run = run_or_positions
        if psi is None:
            if not run.wavefunctions:
                raise ValueError("run kept no wavefunctions; pass psi explicitly")
            psi = run.wavefunctions[time_index]
        alive = run.absorbed_at < 0
        positions = run.positions[time_index][alive]
        n_absorbed = run.n_absorbed
        n_total = run.n_trajectories
    else:
        positions = np.atleast_2d(np.asarray(run_or_positions, dtype=np.float64))
        if psi is None:
            raise ValueError("psi is required with a raw position array")
        n_absorbed = 0
        n_total = positions.shape[0]

    grid = psi.grid
    rho = psi.density()
    stat = 0.0
    for d, axis in enumerate(grid.axes):
        other = tuple(i for i in range(grid.ndim) if i != d)
        masses = rho.sum(axis=other) if other else rho
        stat = max(stat, _ks_marginal(positions[:, d], axis, masses))

    n = positions.shape[0]
    if threshold is None:
        threshold = 1.63 / math.sqrt(n)  # 99% asymptotic KS quantile
    if n_absorbed > 0.01 * n_total:
        verdict = "invalid"
    else:
        verdict = "pass" if stat < threshold else "fail"
    return EquivarianceReport(stat, float(threshold), n, n_absorbed, verdict)


def _inversion_count(a: np.ndarray) -> int:
    """Pairs i < j with a[i] > a[j], by a bottom-up merge count in numpy.

    Values become ranks, equal values sharing one, so ties never count.  At
    width w the array holds sorted blocks of w ranks; tagging each rank with
    its block pair, key = pair * n + rank, makes all left blocks one sorted
    array, so one `searchsorted` counts, for every right-block element, the
    left-block elements above it, and one sort merges every pair.
    """
    n = a.size
    vals = np.unique(a, return_inverse=True)[1].reshape(-1).astype(np.int64)
    pos = np.arange(n, dtype=np.int64)
    count = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        key = pair * n + vals
        is_left = (pos // width) % 2 == 0
        left_keys = key[is_left]
        right_pair = pair[~is_left]
        # left block of pair p: starts at p * width in left_keys, holds width
        # ranks (every left block of a pair with a right block is full)
        at_most = np.searchsorted(left_keys, key[~is_left], side="right") - right_pair * width
        count += int((width - at_most).sum())
        key.sort()
        vals = key - pair * n
        width *= 2
    return count


def check_noncrossing(run_or_positions) -> int:
    """Count 1D order swaps between consecutive saved times (0 = no crossing).

    A swap is a pair of trajectories strictly ordered at one saved time and
    strictly reversed at the next; ties at either time are no swap.  Each
    snapshot pair is reordered by the earlier positions (ties broken by the
    later ones), and the swaps are the inversions of the later positions in
    that order.  A crossing-free pair leaves them non-decreasing, which one
    O(n) comparison confirms; only otherwise does the O(n log^2 n) merge count
    `_inversion_count` run.  Only defined for one spatial axis.
    """
    if isinstance(run_or_positions, TrajectoryRun):
        run = run_or_positions
        if run.grid.ndim != 1:
            raise ValueError("non-crossing is only defined on one axis")
        alive = run.absorbed_at < 0
        series = run.positions[:, alive, 0]
    else:
        series = np.asarray(run_or_positions, dtype=np.float64)
        if series.ndim == 3:
            if series.shape[2] != 1:
                raise ValueError("non-crossing is only defined on one axis")
            series = series[:, :, 0]
        if series.ndim != 2:
            raise ValueError("expected a (time, trajectory) array")

    violations = 0
    for before, after in zip(series[:-1], series[1:]):
        later = after[np.lexsort((after, before))]
        if not np.all(later[1:] >= later[:-1]):
            violations += _inversion_count(later)
    return violations


def conditional_wavefunction(psi: GridWavefunction, axis: int, value: float) -> GridWavefunction:
    """Slice a 2-axis wave function at a fixed coordinate on one axis.

    The slice is linearly interpolated between the two neighboring grid
    planes and renormalized on the remaining axis.  Conditioning on a node
    line (slice norm <= 1e-12) is rejected.
    """
    grid = psi.grid
    if grid.ndim != 2:
        raise ValueError("conditional slicing needs a 2-axis wavefunction")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    ax = grid.axes[axis]
    u = (value - ax.qmin) / ax.dq
    if u < 0 or u > ax.npoints - 1:
        raise ValueError(f"conditioning value {value} outside the grid axis")
    i = int(min(math.floor(u), ax.npoints - 2))
    w = u - i
    lo = np.take(psi.values, i, axis=axis)
    hi = np.take(psi.values, i + 1, axis=axis)
    sl = (1.0 - w) * lo + w * hi
    other = grid.axes[1 - axis]
    nrm = math.sqrt(float(np.sum(np.abs(sl) ** 2)) * other.dq)
    if nrm <= 1e-12:
        raise ValueError("conditioning on a node: slice norm is numerically zero")
    return GridWavefunction(GridSpec((other,)), sl / nrm, time=psi.time)


def export_trajectories_csv(path, run: TrajectoryRun) -> None:
    """Long-format CSV: trajectory_id,time,q1[,q2]; one row per (trajectory, time).

    Rows are written one trajectory at a time, so only one trajectory's text
    is held in memory.
    """
    ndim = run.grid.ndim
    cols = ",".join(f"q{d + 1}" for d in range(ndim))
    row_format = "%d,%s" + ",%r" * ndim + "\n"
    times = [repr(t) for t in run.times.tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"trajectory_id,time,{cols}\n")
        for tid in range(run.n_trajectories):
            rows = zip(itertools.repeat(tid), times, *run.positions[:, tid].T.tolist())
            fh.writelines(map(row_format.__mod__, rows))


def export_wavefunction_csv(directory, run: TrajectoryRun) -> list:
    """One CSV per saved snapshot, named wavefunction_<step>.csv, zero-padded."""
    if not run.wavefunctions:
        raise ValueError("run kept no wavefunctions")
    paths = []
    meshes = run.grid.meshes()
    coords = np.stack([m.reshape(-1) for m in meshes], axis=1)
    header = ",".join(f"q{d + 1}" for d in range(run.grid.ndim)) + ",re,im"
    # the grid columns are the same text in every snapshot
    qs = [",".join(map(repr, row)) for row in coords.tolist()]
    for step, wf in zip(run.saved_steps, run.wavefunctions):
        flat = wf.values.reshape(-1)
        rows = zip(qs, map(repr, flat.real.tolist()), map(repr, flat.imag.tolist()))
        p = os.path.join(directory, f"wavefunction_{int(step):06d}.csv")
        with open(p, "w", newline="\n") as fh:
            fh.write(header + "\n" + "".join(f"{q},{re},{im}\n" for q, re, im in rows))
        paths.append(p)
    return paths
