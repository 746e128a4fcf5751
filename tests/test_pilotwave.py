"""Grid Schroedinger + trajectory tests.

The derived expectations (spreading law, coherent-state motion, velocity
profile) come from closed forms that are re-verified here symbolically:
each oracle test substitutes the candidate solution into the PDE and checks
the residual is identically zero before any numerics rely on it.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

from qfoundations import pilotwave
from qfoundations.streams import stream


def _sigma(t, s0=1.0, m=1.0):
    return s0 * math.sqrt(1.0 + (t / (2.0 * m * s0 * s0)) ** 2)


def _coherent_exact(w=1.0, x0=1.0):
    """Vectorized exact coherent-state wavefunction psi(x, t), m = 1."""
    x, t = sp.symbols("x t", real=True)
    w_, x0_ = sp.symbols("omega x_0", positive=True)
    xc = x0_ * sp.cos(w_ * t)
    pc = sp.diff(xc, t)
    phi = w_ * t / 2 - w_ * x0_**2 * sp.sin(2 * w_ * t) / 4
    psi = (w_ / sp.pi) ** sp.Rational(1, 4) * sp.exp(
        -w_ * (x - xc) ** 2 / 2 + sp.I * pc * x - sp.I * phi
    )
    return sp.lambdify((x, t), psi.subs({w_: w, x0_: x0}), "numpy")


# ---------------------------------------------------------------------------
# oracles (self-checked closed forms)


def test_oracle_free_packet_solves_schrodinger_and_trajectory_law():
    x, t = sp.symbols("x t", real=True)
    s0 = sp.symbols("sigma_0", positive=True)
    zt = 1 + sp.I * t / (2 * s0**2)
    psi = (2 * sp.pi) ** sp.Rational(-1, 4) / sp.sqrt(s0 * zt) * sp.exp(
        -(x**2) / (4 * s0**2 * zt)
    )
    assert sp.simplify(sp.I * sp.diff(psi, t) + sp.diff(psi, x, 2) / 2) == 0

    # Q(t) = (Q(0)/sigma0) * sigma(t) solves dQ/dt = Im(psi'/psi)(Q, t)
    v = sp.im(sp.diff(psi, x) / psi)
    sig = s0 * sp.sqrt(1 + (t / (2 * s0**2)) ** 2)
    c = sp.symbols("c", real=True)
    assert sp.simplify(sp.diff(c * sig, t) - v.subs(x, c * sig)) == 0


def test_oracle_coherent_state_solves_schrodinger():
    x, t = sp.symbols("x t", real=True)
    w, x0 = sp.symbols("omega x_0", positive=True)
    xc = x0 * sp.cos(w * t)
    pc = sp.diff(xc, t)
    phi = w * t / 2 - w * x0**2 * sp.sin(2 * w * t) / 4
    psi = (w / sp.pi) ** sp.Rational(1, 4) * sp.exp(
        -w * (x - xc) ** 2 / 2 + sp.I * pc * x - sp.I * phi
    )
    res = sp.I * sp.diff(psi, t) + sp.diff(psi, x, 2) / 2 - w**2 * x**2 / 2 * psi
    assert sp.simplify(res) == 0
    # the phase gradient is x-independent: the packet translates rigidly
    assert sp.simplify(sp.diff(sp.im(sp.diff(psi, x) / psi), x)) == 0


# ---------------------------------------------------------------------------
# initialization


def test_init_gaussian_normalized():
    grid = pilotwave.GridSpec.make((-20.0, 20.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    assert abs(psi.norm() - 1.0) < 1e-10


def test_init_two_gaussian_half_mass_per_side():
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 512))
    # width 0.5 keeps the midpoint-node density below the tolerance; wider
    # packets leave a few-1e-6 sliver sitting exactly on x = 0
    prof = pilotwave.TwoGaussianProfile(
        components=(
            pilotwave.GaussianProfile(center=(-3.0,), width=(0.5,), momentum=(0.0,)),
            pilotwave.GaussianProfile(center=(3.0,), width=(0.5,), momentum=(0.0,)),
        ),
        weights=(0.5, 0.5),
    )
    psi = pilotwave.init_wavefunction(grid, prof)
    xs = grid.axes[0].nodes
    mass_left = float(np.sum(np.abs(psi.values[xs < 0.0]) ** 2) * grid.cell_volume)
    assert abs(mass_left - 0.5) < 1e-6


def test_init_momentum_expectation_spectral():
    # independent spectral oracle: <p> from the FFT power spectrum
    grid = pilotwave.GridSpec.make((-20.0, 20.0, 1024))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(2.0,))
    )
    dx = grid.axes[0].dq
    k = 2.0 * np.pi * np.fft.fftfreq(1024, d=dx)
    power = np.abs(np.fft.fft(psi.values)) ** 2
    assert abs(float(np.sum(k * power) / np.sum(power)) - 2.0) < 1e-6


def test_init_rejects_profile_leaking_past_grid():
    grid = pilotwave.GridSpec.make((-2.0, 2.0, 64))
    with pytest.raises(ValueError, match="tail|leak"):
        pilotwave.init_wavefunction(
            grid, pilotwave.GaussianProfile(center=(0.0,), width=(3.0,), momentum=(0.0,))
        )


def test_grid_capped_at_two_axes():
    with pytest.raises(ValueError):
        pilotwave.GridSpec.make((-1.0, 1.0, 64), (-1.0, 1.0, 64), (-1.0, 1.0, 64))


# ---------------------------------------------------------------------------
# wavefunction stepping


def _free_params():
    return pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())


def test_step_free_packet_width_matches_spreading_law():
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    dt, steps = 0.002, 500
    for _ in range(steps):
        psi = pilotwave.step_schrodinger(psi, _free_params(), dt)
    xs = grid.axes[0].nodes
    dens = np.abs(psi.values) ** 2
    width = math.sqrt(float(np.sum(xs**2 * dens) / np.sum(dens)))
    expected = _sigma(dt * steps)
    assert abs(width - expected) / expected < 1e-3


def test_step_harmonic_coherent_center_oscillates():
    w, x0 = 1.0, 1.0
    grid = pilotwave.GridSpec.make((-8.0, 8.0, 256))
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.harmonic(w))
    psi = pilotwave.init_wavefunction(
        grid,
        pilotwave.GaussianProfile(center=(x0,), width=(math.sqrt(0.5 / w),), momentum=(0.0,)),
    )
    dt = 5e-4
    steps = round(2.0 * math.pi / w / dt)
    xs = grid.axes[0].nodes
    worst = 0.0
    for s in range(1, steps + 1):
        psi = pilotwave.step_schrodinger(psi, params, dt)
        if s % 500 == 0:
            dens = np.abs(psi.values) ** 2
            center = float(np.sum(xs * dens) / np.sum(dens))
            worst = max(worst, abs(center - x0 * math.cos(w * s * dt)))
    assert worst / x0 < 1e-3


def test_step_norm_preserved_thousand_steps():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 128))
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.harmonic(0.7))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.5,), width=(0.9,), momentum=(0.3,))
    )
    for _ in range(1000):
        psi = pilotwave.step_schrodinger(psi, params, 5e-4)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_step_rejects_unstable_dt():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    with pytest.raises(ValueError, match="dt"):
        pilotwave.step_schrodinger(psi, _free_params(), 1.0)


def test_step_rejects_nan_dt():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    with pytest.raises(ValueError, match="dt must be positive, got nan"):
        pilotwave.step_schrodinger(psi, _free_params(), math.nan)


def test_wavefunction_rejects_nan_values():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 64))
    with pytest.raises(ValueError, match="norm nan"):
        pilotwave.GridWavefunction(grid, np.full(64, math.nan))


def test_convergence_second_order_against_exact_reference():
    # halving dt quarters the final-state error; reference is the closed
    # form, so the ratio sits at 4 rather than the 5 a quarter-dt numerical
    # reference would give
    w, x0, T = 1.0, 1.0, 0.8
    grid = pilotwave.GridSpec.make((-8.0, 8.0, 256))
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.harmonic(w))
    prof = pilotwave.GaussianProfile(center=(x0,), width=(math.sqrt(0.5 / w),), momentum=(0.0,))
    exact = _coherent_exact(w, x0)
    xs = grid.axes[0].nodes

    def final_error(dt):
        psi = pilotwave.init_wavefunction(grid, prof)
        for _ in range(round(T / dt)):
            psi = pilotwave.step_schrodinger(psi, params, dt)
        diff = psi.values - exact(xs, T)
        return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * grid.cell_volume)

    ratio = final_error(8e-4) / final_error(4e-4)
    assert 3.5 < ratio < 4.5


# ---------------------------------------------------------------------------
# velocity field


def test_velocity_zero_for_real_wavefunction():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 256))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = np.linspace(-3.0, 3.0, 25).reshape(-1, 1)
    v = pilotwave.velocity_field(psi, _free_params(), pos)
    assert float(np.max(np.abs(v))) < 1e-10


def test_velocity_plane_phase_gives_p_over_m():
    grid = pilotwave.GridSpec.make((-20.0, 20.0, 1024))
    p, m = 2.0, 1.5
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(2.0,), momentum=(p,))
    )
    params = pilotwave.PhysicsParams(masses=(m,), potential=pilotwave.free())
    v = pilotwave.velocity_field(psi, params, np.array([[0.0]]))
    assert abs(float(v[0, 0]) - p / m) < 1e-6


def test_velocity_free_packet_profile_matches_closed_form():
    # v(x,t) = x t / (4 m^2 sigma0^4 (1 + (t/(2 m sigma0^2))^2)), from the
    # oracle-verified phase
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    dt, steps = 0.001, 800
    for _ in range(steps):
        psi = pilotwave.step_schrodinger(psi, _free_params(), dt)
    t = dt * steps
    xs = np.linspace(-2.0, 2.0, 21)
    v = pilotwave.velocity_field(psi, _free_params(), xs.reshape(-1, 1))[:, 0]
    expected = xs * t / (4.0 * (1.0 + (t / 2.0) ** 2))
    assert float(np.max(np.abs(v - expected))) < 1e-3


# ---------------------------------------------------------------------------
# equilibrium sampling


def test_sample_narrow_gaussian_stays_near_center():
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(1.0,), width=(0.2,), momentum=(0.0,))
    )
    xs = pilotwave.sample_equilibrium(psi, 2000, stream(1, 0))
    assert float(np.max(np.abs(xs[:, 0] - 1.0))) < 5 * 0.2


def test_sample_two_gaussian_half_fraction():
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 512))
    prof = pilotwave.TwoGaussianProfile(
        components=(
            pilotwave.GaussianProfile(center=(-3.0,), width=(0.7,), momentum=(0.0,)),
            pilotwave.GaussianProfile(center=(3.0,), width=(0.7,), momentum=(0.0,)),
        ),
        weights=(0.5, 0.5),
    )
    psi = pilotwave.init_wavefunction(grid, prof)
    n = 10000
    xs = pilotwave.sample_equilibrium(psi, n, stream(2, 0))
    frac = float(np.mean(xs[:, 0] < 0.0))
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / n)


def test_sample_single_node_draws_stay_in_its_centred_cell():
    # all mass on one node of a 2D grid: every draw lies in the cell
    # [q_k - dq/2, q_k + dq/2) on each axis, not beside the node
    grid = pilotwave.GridSpec.make((-8.0, 8.0, 64), (0.0, 16.0, 64))
    values = np.zeros(grid.shape)
    values[20, 5] = 1.0 / math.sqrt(grid.cell_volume)
    xs = pilotwave.sample_equilibrium(pilotwave.GridWavefunction(grid, values), 2000, stream(9, 0))
    for d, k in enumerate((20, 5)):
        axis = grid.axes[d]
        q = axis.nodes[k]
        assert np.all(xs[:, d] >= q - axis.dq / 2) and np.all(xs[:, d] < q + axis.dq / 2)


def test_sample_ks_against_analytic_gaussian_cdf():
    grid = pilotwave.GridSpec.make((-12.0, 12.0, 1024))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    n = 10000
    xs = np.sort(pilotwave.sample_equilibrium(psi, n, stream(3, 0))[:, 0])
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(xs / math.sqrt(2.0)))
    ks = float(
        max(
            np.max(np.abs(cdf - np.arange(1, n + 1) / n)),
            np.max(np.abs(cdf - np.arange(0, n) / n)),
        )
    )
    assert ks < 1.63 / math.sqrt(n)


# ---------------------------------------------------------------------------
# trajectory integration


def test_ground_state_trajectories_stationary():
    w = 1.0
    grid = pilotwave.GridSpec.make((-8.0, 8.0, 256))
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.harmonic(w))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(math.sqrt(0.5 / w),), momentum=(0.0,))
    )
    pos = np.array([[-1.0], [-0.3], [0.4], [1.2]])
    steps = round(2.0 * math.pi / 9e-4)
    run = pilotwave.integrate_trajectories(psi, params, pos, dt=9e-4, steps=steps, save_every=steps)
    drift = float(np.max(np.abs(run.positions[-1] - run.positions[0])))
    assert drift < 1e-6


def test_free_packet_trajectories_follow_spreading_law():
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 200, stream(4, 0))
    dt, steps = 0.001, 1000
    run = pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=dt, steps=steps, save_every=steps)
    scale = _sigma(dt * steps)
    q0 = run.positions[0, :, 0]
    qT = run.positions[-1, :, 0]
    keep = np.abs(q0) >= 0.1
    rel = np.abs(qT[keep] - scale * q0[keep]) / np.abs(scale * q0[keep])
    assert float(np.max(rel)) < 1e-3


def test_trajectories_leaving_grid_are_absorbed_not_clamped():
    grid = pilotwave.GridSpec.make((-6.0, 6.0, 128))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(0.8,), momentum=(4.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 100, stream(5, 0))
    run = pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=0.002, steps=800, save_every=100)
    assert run.n_absorbed > 0
    frozen = run.absorbed_at >= 0
    # absorbed trajectories keep their last interior position in later saves
    last = run.positions[-1, frozen, 0]
    assert float(np.max(np.abs(last))) <= 6.0
    report = pilotwave.check_equivariance(run)
    assert report.verdict == "invalid"


class _Absorbing(pilotwave.Potential):
    """Constant imaginary potential -i*gamma: the norm decays as exp(-gamma t)."""

    def __init__(self, gamma):
        super().__init__("absorbing", {"gamma": gamma})

    def values(self, grid, masses):
        return np.full(grid.shape, -1j * self.params["gamma"])


def test_integration_raises_typed_error_on_norm_drift():
    # the first midpoint snapshot already lost more than GRID_NORM_TOL
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 128))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 20, stream(4, 0))
    for gamma in (1e-6, 10.0):
        params = pilotwave.PhysicsParams(masses=(1.0,), potential=_Absorbing(gamma))
        with pytest.raises(pilotwave.NormDriftError, match="norm drifted .* in step 1 "):
            pilotwave.integrate_trajectories(psi, params, pos, dt=1e-3, steps=3)


_FAULTS_PER_STEP = """
import resource
from qfoundations import pilotwave
from qfoundations.streams import stream

grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
psi = pilotwave.init_wavefunction(
    grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
)
params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())
pos = pilotwave.sample_equilibrium(psi, 10000, stream(7, 2))
faults = []
for steps in (200, 400):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pilotwave.integrate_trajectories(psi, params, pos, dt=0.001, steps=steps, save_every=100)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print((faults[1] - faults[0]) / 200)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are read on Linux")
def test_integration_steps_do_not_fault_in_fresh_memory():
    # A step that allocated ensemble-sized temporaries would have the C heap
    # hand them back and fault them in again, hundreds of pages per step.  A
    # fresh interpreter with the allocator at its defaults counts the faults
    # of 200 extra steps.
    src = os.path.dirname(os.path.dirname(os.path.abspath(pilotwave.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_STEP], env=env, capture_output=True, text=True, check=True
    )
    per_step = float(out.stdout)
    assert per_step < 20, f"{per_step} extra minor faults per step"


def test_nan_positions_rejected():
    # the interpolation clips cell indices into the grid, so a NaN position
    # must be refused before it reaches a gather
    grid = pilotwave.GridSpec.make((-10.0, 10.0, 128))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = np.array([[0.5], [np.nan]])
    with pytest.raises(ValueError, match="NaN"):
        pilotwave.velocity_field(psi, _free_params(), pos)
    with pytest.raises(ValueError, match="NaN"):
        pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=1e-3, steps=2)


def test_integration_deterministic():
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 256))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 50, stream(6, 0))
    runs = [
        pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=0.002, steps=200, save_every=50)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].positions, runs[1].positions)


# ---------------------------------------------------------------------------
# equivariance and non-crossing checks


def test_equivariance_at_time_zero():
    grid = pilotwave.GridSpec.make((-12.0, 12.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 10000, stream(7, 0))
    report = pilotwave.check_equivariance(pos, psi=psi)
    assert report.verdict == "pass"


def test_equivariance_rejects_shifted_ensemble():
    grid = pilotwave.GridSpec.make((-12.0, 12.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 10000, stream(8, 0)) + 3.0
    report = pilotwave.check_equivariance(pos, psi=psi)
    assert report.verdict == "fail"


def test_equivariance_passes_only_below_its_threshold():
    grid = pilotwave.GridSpec.make((-12.0, 12.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 2000, stream(9, 0))
    stat = pilotwave.check_equivariance(pos, psi=psi).statistic
    assert stat > 0
    assert pilotwave.check_equivariance(pos, psi=psi, threshold=1.01 * stat).verdict == "pass"
    assert pilotwave.check_equivariance(pos, psi=psi, threshold=0.99 * stat).verdict == "fail"


def test_equivariance_holds_at_every_saved_time():
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 4000, stream(10, 0))
    run = pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=0.002, steps=600, save_every=150)
    for idx in range(len(run.times)):
        report = pilotwave.check_equivariance(run, time_index=idx)
        assert report.verdict == "pass", f"KS too large at saved index {idx}"


def test_noncrossing_zero_on_correct_run():
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 256))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    pos = pilotwave.sample_equilibrium(psi, 300, stream(10, 0))
    run = pilotwave.integrate_trajectories(psi, _free_params(), pos, dt=0.002, steps=400, save_every=40)
    assert pilotwave.check_noncrossing(run) == 0


def test_noncrossing_counts_hand_built_swap():
    histories = np.zeros((2, 2, 1))
    histories[0, 0, 0], histories[0, 1, 0] = 0.0, 1.0
    histories[1, 0, 0], histories[1, 1, 0] = 1.0, 0.0  # the pair swaps order
    assert pilotwave.check_noncrossing(histories) == 1


def test_noncrossing_single_trajectory():
    histories = np.zeros((3, 1, 1))
    assert pilotwave.check_noncrossing(histories) == 0


def test_noncrossing_requires_1d():
    with pytest.raises(ValueError):
        pilotwave.check_noncrossing(np.zeros((2, 3, 2)))


# ---------------------------------------------------------------------------
# conditional wavefunction


def _grid2():
    return pilotwave.GridSpec.make((-8.0, 8.0, 128), (-8.0, 8.0, 128))


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b)) ** 2 / (
        float(np.sum(np.abs(a) ** 2)) * float(np.sum(np.abs(b) ** 2))
    )


def test_conditional_of_product_state_recovers_factor():
    psi = pilotwave.init_wavefunction(
        _grid2(),
        pilotwave.GaussianProfile(center=(1.0, -0.5), width=(0.8, 1.1), momentum=(0.4, 0.0)),
    )
    cond = pilotwave.conditional_wavefunction(psi, axis=1, value=0.3)
    ref = pilotwave.init_wavefunction(
        pilotwave.GridSpec.make((-8.0, 8.0, 128)),
        pilotwave.GaussianProfile(center=(1.0,), width=(0.8,), momentum=(0.4,)),
    )
    assert _fidelity(cond.values, ref.values) > 1.0 - 1e-9


def test_conditional_of_disjoint_sum_picks_the_live_component():
    # f1(x)g1(y) + f2(x)g2(y) with g1, g2 far apart: conditioning on y in
    # g1's support must return f1
    grid = _grid2()
    mesh = grid.meshes()
    f1 = np.exp(-((mesh[0] - 1.5) ** 2))
    g1 = np.exp(-((mesh[1] - 4.0) ** 2) / 0.25)
    f2 = np.exp(-((mesh[0] + 1.5) ** 2) / 2.0)
    g2 = np.exp(-((mesh[1] + 4.0) ** 2) / 0.25)
    values = f1 * g1 + f2 * g2
    values = values / math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    psi = pilotwave.GridWavefunction(grid, values)
    cond = pilotwave.conditional_wavefunction(psi, axis=1, value=4.0)
    xs = grid.axes[0].nodes
    ref = np.exp(-((xs - 1.5) ** 2))
    assert _fidelity(cond.values, ref) > 1.0 - 1e-6


def test_conditional_on_node_rejected():
    grid = _grid2()
    mesh = grid.meshes()
    # odd in y: exact node along y = 0
    values = mesh[1] * np.exp(-(mesh[0] ** 2) - mesh[1] ** 2)
    values = values / math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_volume)
    psi = pilotwave.GridWavefunction(grid, values)
    with pytest.raises(ValueError, match="node|norm"):
        pilotwave.conditional_wavefunction(psi, axis=1, value=0.0)


@pytest.mark.parametrize("n_absorbed, invalid", [(0, False), (10, False), (11, True), (500, True)])
def test_equivariance_is_invalid_above_one_percent_absorbed(n_absorbed, invalid):
    # 1000 trajectories at the quantiles of |psi|^2, the first n_absorbed of
    # them flagged absorbed: 10 is exactly 1%, 11 one trajectory over
    grid = pilotwave.GridSpec.make((-12.0, 12.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    axis, masses = grid.axes[0], psi.density()
    cdf = np.concatenate([[0.0], np.cumsum(masses / masses.sum())])
    # the CDF that check_equivariance tests against is linear across each
    # node-centred cell
    edges = axis.qmin + axis.dq * (np.arange(axis.npoints + 1) - 0.5)
    positions = np.interp((np.arange(1000) + 0.5) / 1000, cdf, edges)
    absorbed_at = np.where(np.arange(1000) < n_absorbed, 0, -1)
    run = pilotwave.TrajectoryRun(
        grid, 0.001, np.array([0]), np.array([0.0]), positions.reshape(1, 1000, 1), absorbed_at, (psi,)
    )
    report = pilotwave.check_equivariance(run)
    assert report.n_absorbed == n_absorbed
    assert report.verdict == ("invalid" if invalid else "pass")
