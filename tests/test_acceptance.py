"""Acceptance checks: eleven numbered criteria, one test and one summary
line each.  Tolerances and trial counts are stated inline; each test prints
"criterion NN ... PASS" once its assertions hold, so a verbose run reads as
a checklist.
"""

import itertools
import json
import math
import time

import numpy as np
import sympy as sp

from qfoundations import circuit, hilbert, inference, pilotwave
from qfoundations.cli import main as cli_main
from qfoundations.streams import stream

INT = circuit.INTERFERENCE
WP = circuit.WHICHPATH
R = sp.Rational


def _done(number, text):
    print(f"criterion {number:02d} {text}: PASS")


def test_criterion_01_eraser_correlations():
    t0 = time.perf_counter()
    both = circuit.copenhagen_joint_distribution(circuit.build_eraser(INT, INT))
    assert both == {("L1", "R1"): R(1, 2), ("L2", "R2"): R(1, 2),
                    ("L1", "R2"): 0, ("L2", "R1"): 0}
    mixed = circuit.copenhagen_joint_distribution(circuit.build_eraser(INT, WP))
    assert mixed == {(l, r): R(1, 4) for l in ("L1", "L2") for r in ("R3", "R4")}

    n = 100_000
    for (left, right), exact in (((INT, INT), both), ((INT, WP), mixed)):
        sample = circuit.sample_bohmian_runs(circuit.build_eraser(left, right), n, seed=7)
        counts = sample.outcome_counts()
        for key, p in exact.items():
            p = float(p)
            if p == 0.0:
                assert counts.get(key, 0) == 0
                continue
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(key, 0) / n - p) <= 3 * se, key
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _done(1, "eraser correlations analytic + monte carlo")


def test_criterion_02_local_causality_vs_no_signaling():
    t0 = time.perf_counter()
    joint = circuit.copenhagen_joint_distribution(circuit.build_eraser(INT, INT))
    lc = inference.local_causality_test(joint, "R1", "L1")
    assert lc.verdict == inference.VIOLATED
    assert lc.details["exact_statistic"] == R(1, 2)

    ns = inference.no_signaling_test(
        {
            (INT, INT): joint,
            (INT, WP): circuit.copenhagen_joint_distribution(
                circuit.build_eraser(INT, WP)),
        },
        side="left",
    )
    assert ns.verdict == inference.SATISFIED
    assert ns.details["exact_statistic"] == 0

    # branching instead of collapse, same conditional shift
    mwi = inference.mwi_joint_distribution(circuit.build_eraser(INT, INT))
    lc_mwi = inference.local_causality_test(mwi, "R1", "L1")
    assert lc_mwi.verdict == lc.verdict == inference.VIOLATED
    assert abs(lc_mwi.statistic - 0.5) < 1e-12
    assert time.perf_counter() - t0 < 5.0
    _done(2, "local causality violated, no-signaling satisfied")


def test_criterion_03_collapse_necessity():
    t0 = time.perf_counter()
    n = 10_000
    with_collapse = inference.repeatability_test(n, collapse=True, seed=7)
    without = inference.repeatability_test(n, collapse=False, seed=7)
    assert with_collapse.statistic == 0.0
    assert abs(without.statistic - 0.5) <= 3 * math.sqrt(0.25 / n)
    assert with_collapse.verdict == inference.SATISFIED
    assert without.verdict == inference.VIOLATED
    assert with_collapse.verdict != without.verdict
    assert time.perf_counter() - t0 < 5.0
    _done(3, "repeatability needs the projection postulate")


def test_criterion_04_branch_collapse_equivalence():
    rep = inference.branch_collapse_equivalence(
        n_pairs=50, max_dim=8, n_samples=100_000, seed=7)
    assert rep.details["pairs"] == 50
    assert max(rep.details["dimensions"]) <= 8
    assert rep.details["max_weight_deviation"] <= 1e-12
    # every frequency within three standard errors of the widest binomial
    assert rep.statistic <= 3.0 * math.sqrt(0.25 / rep.n)
    assert rep.verdict == inference.SATISFIED
    _done(4, "branch weights = Born, collapse frequencies within 3 sigma")


def test_criterion_05_measurement_independence_violation():
    t0 = time.perf_counter()
    groups = {
        (INT, INT): circuit.enumerate_transport(
            circuit.build_eraser(INT, INT, right_acts_first=True)),
        (INT, WP): circuit.enumerate_transport(
            circuit.build_eraser(INT, WP, right_acts_first=True)),
    }
    pre = inference.measurement_independence_test(groups, stage="pre_detection")
    assert pre.verdict == inference.VIOLATED
    assert pre.details["exact_statistic"] > 0

    initial = inference.measurement_independence_test(groups, stage="initial")
    assert initial.verdict == inference.SATISFIED
    assert initial.statistic == 0.0

    dep = inference.trajectory_setting_dependence(200, seed=7, stream_index=400,
                                                  right_acts_first=True)
    assert dep.statistic > 0.0
    assert len(dep.details["examples"]) >= 1
    for example in dep.details["examples"]:
        assert example["record_left_interference"] != example["record_left_whichpath"]
    assert time.perf_counter() - t0 < 5.0
    _done(5, "hidden records depend on the far setting; initial law does not")


def test_criterion_06_transport_equivariance_every_layer():
    for (left, right), rfirst in itertools.product(
        itertools.product((INT, WP), repeat=2), (False, True)
    ):
        enum = circuit.enumerate_transport(
            circuit.build_eraser(left, right, right_acts_first=rfirst))
        for (layer, got), (_, want) in zip(
            enum.layer_distributions, enum.reference_distributions
        ):
            for key in set(got) | set(want):
                diff = got.get(key, 0) - want.get(key, 0)
                assert diff == 0, (left, right, rfirst, layer, key)
    _done(6, "transport equals Born at every layer, all settings, both orders")


def test_criterion_07_free_packet_continuum():
    t0 = time.perf_counter()
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())
    n = 10_000
    pos = pilotwave.sample_equilibrium(psi, n, stream(11, 0))

    T = 2.0 * math.sqrt(3.0)  # sigma(T) = 2 sigma0 for sigma0 = m = 1
    steps = 2000
    run = pilotwave.integrate_trajectories(
        psi, params, pos, dt=T / steps, steps=steps, save_every=100)

    q0 = run.positions[0, :, 0]
    qT = run.positions[-1, :, 0]
    scale = 2.0  # sigma(T)/sigma0
    mask = np.abs(q0) >= 0.1  # relative error is well posed away from 0
    rel = np.abs(qT[mask] - scale * q0[mask]) / np.abs(scale * q0[mask])
    assert float(np.max(rel)) < 1e-3

    report = pilotwave.check_equivariance(run, threshold=0.02)
    assert report.statistic < 0.02
    assert report.verdict == "pass"
    assert pilotwave.check_noncrossing(run) == 0
    assert abs(run.wavefunctions[-1].norm() - 1.0) < 1e-8
    assert time.perf_counter() - t0 < 60.0
    _done(7, "free packet follows the spreading law; KS, crossings, norm ok")


def test_criterion_08_double_slit_noncrossing():
    t0 = time.perf_counter()
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 512))
    prof = pilotwave.TwoGaussianProfile(
        components=(
            pilotwave.GaussianProfile(center=(-3.0,), width=(0.7,), momentum=(0.0,)),
            pilotwave.GaussianProfile(center=(3.0,), width=(0.7,), momentum=(0.0,)),
        ),
        weights=(0.5, 0.5),
    )
    psi = pilotwave.init_wavefunction(grid, prof)
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())
    pos = pilotwave.sample_equilibrium(psi, 200, stream(7, 0))
    run = pilotwave.integrate_trajectories(
        psi, params, pos, dt=0.0008, steps=2500, save_every=50)
    assert pilotwave.check_noncrossing(run) == 0
    q0 = run.positions[0, :, 0]
    qT = run.positions[-1, :, 0]
    assert np.all(qT[q0 > 0.0] > 0.0)
    assert time.perf_counter() - t0 < 60.0
    _done(8, "double slit: zero swaps, upper-half starters stay upper half")


def test_criterion_09_chsh():
    t0 = time.perf_counter()
    for model in inference.local_deterministic_models():
        assert inference.local_model_chsh_max(model) <= 2.0 + 1e-12, model.name
    res = inference.chsh_optimize()
    assert abs(res.s_value - 2.0 * math.sqrt(2.0)) < 1e-9
    assert time.perf_counter() - t0 < 30.0
    _done(9, "local models at 2, entangled optimum at 2*sqrt(2)")


def test_criterion_10_purity_bookkeeping():
    space = hilbert.HilbertSpace(("1", "2"))
    joint = space.tensor(space)
    bell = hilbert.superposition(joint, {("1", "1"): 1.0, ("2", "2"): 1.0})
    rho = hilbert.DensityMatrix.from_state(bell)

    u = hilbert.UnitaryMap.from_hamiltonian(
        np.array([[0.3, 0.1 + 0.2j, 0, 0],
                  [0.1 - 0.2j, -0.5, 0.4, 0],
                  [0, 0.4, 0.2, 0.15j],
                  [0, 0, -0.15j, 0.7]]), time=1.3)
    assert abs(hilbert.purity(hilbert.evolve(rho, u)) - hilbert.purity(rho)) < 1e-12

    reduced = hilbert.partial_trace(rho, keep=(0,))
    assert abs(hilbert.purity(reduced) - 0.5) < 1e-12

    plus = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    one = hilbert.basis_state(space, "1")
    product = hilbert.StateVector(joint, np.kron(plus.amplitudes, one.amplitudes))
    before = hilbert.purity(hilbert.partial_trace(
        hilbert.DensityMatrix.from_state(product), keep=(0,)))
    entangled = hilbert.evolve(product, hilbert.cnot_unitary())
    after = hilbert.purity(hilbert.partial_trace(
        hilbert.DensityMatrix.from_state(entangled), keep=(0,)))
    assert before > 1.0 - 1e-12
    assert after < before - 1e-6
    _done(10, "global purity conserved, reduced purity drops under entangling")


def test_criterion_11_claims_suite_byte_determinism(tmp_path, capsys):
    outs = {}
    for name, workers in (("a", 1), ("b", 1), ("w4", 4)):
        out = tmp_path / name
        code = cli_main([
            "run", "claims_suite", "--out", str(out), "--seed", "7",
            "--workers", str(workers),
        ])
        assert code == 0
        outs[name] = out
    capsys.readouterr()

    for other in ("b", "w4"):
        for fname in ("claims_suite.json", "claims_summary.csv"):
            assert (outs["a"] / fname).read_bytes() == (outs[other] / fname).read_bytes(), (
                other, fname)
        ma = json.loads((outs["a"] / "manifest.json").read_text())
        mo = json.loads((outs[other] / "manifest.json").read_text())
        assert ma["files"] == mo["files"]

    payload = json.loads((outs["a"] / "claims_suite.json").read_text())
    assert payload["all_match"] is True
    _done(11, "claims suite byte-identical across reruns and worker counts")
