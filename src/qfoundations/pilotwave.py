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

The wave function does not depend on the particles, so the integrator
advances it a block of steps ahead: the Strang half steps fill the rows of
a preallocated block in sequence, and one batched pass then computes every
row's norm check, density, velocity numerators (one FFT pair per axis over
all rows) and density floor.  The particles then take those steps in a
fixed workspace: one interpolation kernel, shared with `velocity_field`,
gathers each cell corner of every field with one `take`, and the RK4 stages
combine through `out=` buffers in the order the formulas are written.  A
step allocates no ensemble-sized memory, and the results are bit for bit
those of advancing, evaluating and combining one step at a time.

An ensemble drawn from |psi|^2 (inverse-CDF over grid cells plus uniform
jitter inside a cell) stays |psi|^2-distributed under this flow; the
Kolmogorov-Smirnov check `check_equivariance` and the 1D order-preservation
check `check_noncrossing` make that testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GRID_NORM_TOL",
    "NODE_EPS_FACTOR",
    "NormDriftError",
    "GridAxis",
    "GridSpec",
    "GridWavefunction",
    "Potential",
    "free",
    "harmonic",
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
]

GRID_NORM_TOL = 1e-10
NODE_EPS_FACTOR = 1e-12
LEAKAGE_TOL = 1e-6

# grid values per wave-side block: a block advances the wave function by
# max(1, _BLOCK_POINTS // grid size) steps before the particles take them
_BLOCK_POINTS = 1 << 13


class NormDriftError(ValueError):
    """An evolved wave-function snapshot is off unit norm beyond GRID_NORM_TOL."""


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
        if self.kind == "free":
            return np.zeros(grid.shape)
        if self.kind == "harmonic":
            omega = self.params["omega"]
            centers = self.params.get("center") or (0.0,) * grid.ndim
            v = np.zeros(grid.shape)
            for m, q, c in zip(masses, grid.meshes(), centers):
                v = v + 0.5 * m * omega**2 * (q - c) ** 2
            return v
        raise ValueError(f"unknown potential kind {self.kind!r}")


def free() -> Potential:
    return Potential("free", {})


def harmonic(omega: float, center: Sequence[float] | None = None) -> Potential:
    return Potential("harmonic", {"omega": float(omega), "center": tuple(center) if center else None})


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
    function that writes the advanced grid values into `out`.

    `values` is read only before `out` is written, so `out` may be `values`.
    """
    exp_v_half = np.exp(-0.5j * h * vgrid)
    exp_k = np.exp(-1j * h * _kinetic_grid(grid, params.masses))
    kicked = np.empty(grid.shape, dtype=np.complex128)
    spectrum = np.empty_like(kicked)

    def step(values: np.ndarray, out: np.ndarray) -> None:
        np.multiply(exp_v_half, values, out=kicked)
        np.fft.fftn(kicked, out=spectrum)
        np.multiply(exp_k, spectrum, out=spectrum)
        np.fft.ifftn(spectrum, out=kicked)
        np.multiply(exp_v_half, kicked, out=out)

    return step


def step_schrodinger(
    psi: GridWavefunction, params: PhysicsParams, dt: float, steps: int = 1
) -> GridWavefunction:
    """Advance by `steps` Strang splitting steps of size dt."""
    grid = psi.grid
    vgrid = params.potential.values(grid, params.masses)
    _check_dt(grid, params, vgrid, dt)
    step = _strang_step(grid, params, vgrid, dt)
    v = psi.values.copy()
    for _ in range(steps):
        step(v, out=v)
    return GridWavefunction(grid, v, time=psi.time + dt * steps)


def _corner_offsets(grid: GridSpec) -> tuple[int, ...]:
    """Flat offsets of a cell's corners from its first node: (i), (i + 1) in
    1D; (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) in 2D."""
    if grid.ndim == 1:
        return (0, 1)
    ny = grid.axes[1].npoints
    return (0, ny, 1, ny + 1)


class _FlowBlock:
    """Rows of grid wave functions and their flow fields, computed together.

    Row r of `fields` holds |psi|^2 and then one velocity numerator
    Im(psi* dpsi/dq_k) / m_k per axis, each with the grid's shape; `eps` holds
    the density floor NODE_EPS_FACTOR * max |psi|^2 and `norms` the discrete
    L2 norm of each row.  A batched FFT, sum or maximum over rows gives every
    row the bits of the same call on that row alone.  Row r of `corners` is
    the corner table of row r's fields that `_Sampler.velocity` reads.
    """

    def __init__(self, grid: GridSpec, params: PhysicsParams, rows: int):
        shape = (rows, *grid.shape)
        self.grid = grid
        self.masses = params.masses
        self.values = np.empty(shape, dtype=np.complex128)
        self.fields = np.empty((rows, 1 + grid.ndim, *grid.shape))
        # entries past the grid's last node are never read; zeros keep them defined
        self.corners = np.zeros((rows, math.prod(grid.shape), len(_corner_offsets(grid)), 1 + grid.ndim))
        self.eps = np.empty(rows)
        self.norms = np.empty(rows)
        self._spectrum = np.empty(shape, dtype=np.complex128)
        self._grad = np.empty(shape, dtype=np.complex128)
        self._ik = []
        for axis_idx, k in enumerate(_wavenumbers(grid)):
            kshape = [1] * grid.ndim
            kshape[axis_idx] = k.size
            self._ik.append(1j * k.reshape(kshape))

    def compute(self, lo: int, hi: int) -> None:
        """Fill fields, corners, eps and norms of rows lo..hi-1 from their values."""
        grid_axes = tuple(range(1, self.grid.ndim + 1))
        v = self.values[lo:hi]
        spectrum = self._spectrum[lo:hi]
        grad = self._grad[lo:hi]
        rho = self.fields[lo:hi, 0]
        np.abs(v, out=rho)
        np.square(rho, out=rho)
        norms = self.norms[lo:hi]
        np.sum(rho, axis=grid_axes, out=norms)
        np.multiply(norms, self.grid.cell_volume, out=norms)
        np.sqrt(norms, out=norms)
        eps = self.eps[lo:hi]
        np.max(rho, axis=grid_axes, out=eps)
        np.multiply(eps, NODE_EPS_FACTOR, out=eps)
        for axis_idx, (ik, m) in enumerate(zip(self._ik, self.masses)):
            np.fft.fft(v, axis=1 + axis_idx, out=spectrum)
            np.multiply(ik, spectrum, out=spectrum)
            np.fft.ifft(spectrum, axis=1 + axis_idx, out=grad)
            np.conjugate(v, out=spectrum)
            np.multiply(spectrum, grad, out=grad)
            np.divide(grad.imag, m, out=self.fields[lo:hi, 1 + axis_idx])
        _lay_corners(self.grid, self.fields[lo:hi], self.corners[lo:hi])


def _lay_corners(grid: GridSpec, fields: np.ndarray, out: np.ndarray) -> None:
    """Write the corner tables of fields (rows, 1 + d, *grid.shape) into out
    (rows, grid size, corners, 1 + d): entry [r, k, c] holds every field of
    row r at corner c of the cell whose first node has flat index k."""
    size = math.prod(grid.shape)
    flat = fields.reshape(fields.shape[0], 1 + grid.ndim, size)
    for c, offset in enumerate(_corner_offsets(grid)):
        np.copyto(out[:, : size - offset, c], flat[:, :, offset:].transpose(0, 2, 1))


class _Sampler:
    """Guiding velocities of n positions, interpolated in fixed buffers.

    Density and velocity numerators are interpolated bilinearly (linearly in
    1D) from the corners of each position's grid cell, and the velocity is
    numerator / max(density, eps).  The fields come as a corner table (see
    `_lay_corners`): one row per cell holding every field at every corner,
    so a single `take` along its first axis gathers all of a position's
    corner values.  Each field is then summed over the corners in a fixed
    order, corner by corner, into contiguous buffers.  Positions are clipped
    into the grid first, so the gather never leaves the table and
    `mode="clip"` only spares numpy a copy.
    """

    def __init__(self, grid: GridSpec, n: int):
        d = grid.ndim
        corners = len(_corner_offsets(grid))
        self.grid = grid
        self._qmin = np.array([[a.qmin] for a in grid.axes])
        self._dq = np.array([[a.dq] for a in grid.axes])
        self._top = np.array([[a.npoints - 1 - 1e-12] for a in grid.axes])
        self._u = np.empty((d, n))
        self._floor = np.empty((d, n))
        self._cell = np.empty((d, n), dtype=np.intp)
        self._weights = np.empty((corners, n))
        self._gathered = np.empty((n, corners, 1 + d))
        # (corner, field, particle) view of the gathered rows
        self._by_corner = self._gathered.transpose(1, 2, 0)
        self._acc = np.empty((1 + d, n))
        self._term = np.empty((1 + d, n))

    def velocity(self, corners: np.ndarray, eps: float, positions: np.ndarray, out: np.ndarray) -> None:
        """Write the velocity at positions (n, d) from one row of `_FlowBlock`
        corners into out (n, d)."""
        u, fl, cell, w = self._u, self._floor, self._cell, self._weights
        np.subtract(positions.T, self._qmin, out=u)
        np.divide(u, self._dq, out=u)
        np.maximum(u, 0.0, out=u)
        np.minimum(u, self._top, out=u)
        np.floor(u, out=fl)
        np.copyto(cell, fl, casting="unsafe")
        np.subtract(u, fl, out=u)
        k = cell[0]
        if self.grid.ndim == 1:
            np.subtract(1.0, u[0], out=w[0])
            w = (w[0], u[0])
        else:
            wx, wy = u
            np.multiply(k, self.grid.axes[1].npoints, out=k)
            np.add(k, cell[1], out=k)
            np.subtract(1.0, wx, out=w[0])
            np.subtract(1.0, wy, out=w[1])
            np.multiply(w[0], wy, out=w[2])
            np.multiply(wx, wy, out=w[3])
            np.multiply(w[0], w[1], out=w[0])
            np.multiply(wx, w[1], out=w[1])
        corners.take(k, axis=0, out=self._gathered, mode="clip")
        acc, term = self._acc, self._term
        g0, *rest = self._by_corner
        np.multiply(w[0], g0, out=acc)
        for wc, g in zip(w[1:], rest):
            np.multiply(wc, g, out=term)
            np.add(acc, term, out=acc)
        rho_p = acc[0]
        np.maximum(rho_p, eps, out=rho_p)
        np.divide(acc[1:], rho_p, out=out.T)


def _checked_positions(grid: GridSpec, positions) -> np.ndarray:
    q = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if q.shape[1] != grid.ndim:
        raise ValueError(f"positions must have {grid.ndim} columns")
    if np.isnan(q).any():
        raise ValueError("positions must not be NaN")
    return q


def velocity_field(
    psi: GridWavefunction, params: PhysicsParams, positions: np.ndarray
) -> np.ndarray:
    """Guiding velocity Im(psi* grad psi)/(m |psi|^2) at given positions (n, d)."""
    q = _checked_positions(psi.grid, positions)
    flow = _FlowBlock(psi.grid, params, 1)
    flow.values[0] = psi.values
    flow.compute(0, 1)
    out = np.empty_like(q)
    _Sampler(psi.grid, q.shape[0]).velocity(flow.corners[0], flow.eps[0], q, out)
    return out


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


def _block_steps(grid: GridSpec) -> int:
    return max(1, _BLOCK_POINTS // math.prod(grid.shape))


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

    The wave function does not depend on the particles, so it runs ahead:
    each block of steps advances it into the rows of a `_FlowBlock`, checks
    every half-step snapshot's norm and computes every snapshot's flow fields
    together before the particles take those steps.  A snapshot off unit
    norm by more than GRID_NORM_TOL raises NormDriftError.
    """
    grid = psi.grid
    vgrid = params.potential.values(grid, params.masses)
    _check_dt(grid, params, vgrid, dt)
    q = _checked_positions(grid, positions).copy()
    n = q.shape[0]
    absorbed_at = np.full(n, -1, dtype=np.intp)

    lo = np.array([a.qmin + margin_cells * a.dq for a in grid.axes])
    hi = np.array([a.qmax - margin_cells * a.dq for a in grid.axes])
    alive = np.empty(n, dtype=bool)
    gone = np.empty(n, dtype=bool)
    below = np.empty(q.shape, dtype=bool)
    above = np.empty(q.shape, dtype=bool)

    def mark_absorbed(step: int) -> bool:
        """Flag the alive rows that q puts outside [lo, hi] absorbed at `step`
        and refresh `alive`; True if every row is still alive.  An absorbed
        row stays outside, so with no row outside none is absorbed."""
        np.less(q, lo, out=below)
        np.greater(q, hi, out=above)
        np.logical_or(below, above, out=below)
        if not below.any():
            return True
        np.any(below, axis=1, out=gone)
        np.logical_and(alive, gone, out=gone)
        np.copyto(absorbed_at, step, where=gone)
        np.less(absorbed_at, 0, out=alive)
        return False

    alive.fill(True)
    everyone = mark_absorbed(0)

    saved_steps = [0] + [s for s in range(1, steps + 1) if s % save_every == 0 or s == steps]
    saved = np.empty((len(saved_steps), *q.shape))
    saved[0] = q
    n_saved = 1
    wfs = [psi] if keep_wavefunctions else []

    block_steps = _block_steps(grid)
    half_step = _strang_step(grid, params, vgrid, dt / 2)
    flow = _FlowBlock(grid, params, 2 * block_steps + 1)
    sampler = _Sampler(grid, n)
    k1, k2, k3, k4, x = (np.empty_like(q) for _ in range(5))
    keep_alive = alive[:, None]
    flow.values[0] = psi.values
    fresh = 0  # first row whose fields are not computed yet
    for base in range(0, steps, block_steps):
        # row 0 is the wave function at step `base`; rows 2j+1 and 2j+2 are
        # the midpoint and the end of step base+j+1
        rows = 2 * min(block_steps, steps - base) + 1
        for r in range(1, rows):
            half_step(flow.values[r - 1], out=flow.values[r])
        flow.compute(fresh, rows)
        drifted = np.flatnonzero(~(np.abs(flow.norms[fresh:rows] - 1.0) <= GRID_NORM_TOL))
        if drifted.size:
            r = fresh + int(drifted[0])
            raise NormDriftError(
                f"norm drifted to {float(flow.norms[r])!r} in step {base + (r + 1) // 2} "
                f"(limit {GRID_NORM_TOL} off unity)"
            )

        for r in range(0, rows - 1, 2):
            step = base + r // 2 + 1
            f_t, f_m, f_n = flow.corners[r : r + 3]
            e_t, e_m, e_n = flow.eps[r : r + 3]
            # every row is stepped and only alive rows are written back, so
            # absorbed trajectories stay frozen without a gather and scatter
            sampler.velocity(f_t, e_t, q, k1)
            np.multiply(0.5 * dt, k1, out=x)
            np.add(q, x, out=x)
            sampler.velocity(f_m, e_m, x, k2)
            np.multiply(0.5 * dt, k2, out=x)
            np.add(q, x, out=x)
            sampler.velocity(f_m, e_m, x, k3)
            np.multiply(dt, k3, out=x)
            np.add(q, x, out=x)
            sampler.velocity(f_n, e_n, x, k4)
            # q + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.multiply(2.0, k2, out=k2)
            np.add(k1, k2, out=k1)
            np.multiply(2.0, k3, out=k3)
            np.add(k1, k3, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(dt / 6.0, k1, out=k1)
            np.add(q, k1, out=k1)
            np.copyto(q, k1, where=True if everyone else keep_alive)
            everyone = mark_absorbed(step)

            if step == saved_steps[n_saved]:
                saved[n_saved] = q
                n_saved += 1
                if keep_wavefunctions:
                    wfs.append(GridWavefunction(grid, flow.values[r + 2], time=psi.time + step * dt))

        # the last row starts the next block
        flow.values[0] = flow.values[rows - 1]
        flow.corners[0] = flow.corners[rows - 1]
        flow.eps[0] = flow.eps[rows - 1]
        fresh = 1

    steps_arr = np.array(saved_steps, dtype=np.intp)
    return TrajectoryRun(
        grid=grid,
        dt=float(dt),
        saved_steps=steps_arr,
        times=psi.time + dt * steps_arr.astype(np.float64),
        positions=saved,
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
