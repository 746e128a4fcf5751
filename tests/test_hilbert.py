"""State calculus tests.

Derived expectations are checked against a sympy projector-algebra oracle
built here from scratch: sympy matrices, explicit projectors, exact
rationals.  The oracle never calls into qfoundations.
"""

import math

import numpy as np
import pytest
import sympy as sp

from qfoundations import exact, hilbert
from qfoundations.streams import stream


# ---------------------------------------------------------------------------
# oracle: exact projector algebra on the two-path Bell state


def _oracle_eraser_left_branches():
    """Weights and branch vectors of the (|11> + |22>)/sqrt(2) state under
    the left-arm {|-><-|, |+><+|} observable, by direct projector algebra."""
    half = sp.Rational(1, 2)
    psi = sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2)
    minus = sp.Matrix([1, -1]) / sp.sqrt(2)
    plus = sp.Matrix([1, 1]) / sp.sqrt(2)
    eye = sp.eye(2)
    out = {}
    for name, vec in (("L1", minus), ("L2", plus)):
        proj = sp.Matrix(np.kron(np.array(vec * vec.T, dtype=object), np.array(eye, dtype=object)))
        projected = proj * psi
        weight = sp.simplify((projected.T * projected)[0])
        out[name] = (weight, sp.simplify(projected / sp.sqrt(weight)))
    assert sum(w for w, _ in out.values()) == 1
    assert out["L1"][0] == half and out["L2"][0] == half
    return out


_plus_minus_branches = _oracle_eraser_left_branches()


def _bell_state():
    space = hilbert.HilbertSpace(["1", "2"]).tensor(hilbert.HilbertSpace(["1", "2"]))
    return hilbert.superposition(space, {("1", "1"): 1.0, ("2", "2"): 1.0})


def _left_pm_observable():
    s = 1 / math.sqrt(2)
    minus = np.array([s, -s])
    plus = np.array([s, s])
    e = np.eye(2)
    return hilbert.Observable.from_eigenbasis(
        [
            ("L1", [np.kron(minus, e[0]), np.kron(minus, e[1])]),
            ("L2", [np.kron(plus, e[0]), np.kron(plus, e[1])]),
        ]
    )


# ---------------------------------------------------------------------------
# states and spaces


def test_basis_state_amplitudes():
    space = hilbert.HilbertSpace(["1", "2", "3"])
    psi = hilbert.basis_state(space, "2")
    assert psi.amplitude("2") == 1.0
    assert psi.amplitude("1") == 0.0


def test_superposition_normalizes():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 3.0, "2": 4.0})
    assert abs(psi.amplitude("1") - 0.6) < 1e-15
    assert abs(psi.amplitude("2") - 0.8) < 1e-15


def test_unnormalized_state_rejected():
    space = hilbert.HilbertSpace(["1", "2"])
    with pytest.raises(ValueError, match="not normalized"):
        hilbert.StateVector(space, [1.0, 1.0])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        hilbert.HilbertSpace(["1", "1"])


def test_amplitudes_read_only():
    psi = hilbert.basis_state(hilbert.HilbertSpace(["1", "2"]), "1")
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_tensor_labels_follow_kron_order():
    a = hilbert.HilbertSpace(["1", "2"])
    b = hilbert.HilbertSpace(["x", "y"])
    c = a.tensor(b)
    assert c.labels == (("1", "x"), ("1", "y"), ("2", "x"), ("2", "y"))
    psi = hilbert.tensor(hilbert.basis_state(a, "2"), hilbert.basis_state(b, "x"))
    assert psi.amplitude(("2", "x")) == 1.0


# ---------------------------------------------------------------------------
# observables


def test_observable_requires_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hilbert.Observable([[0.0, 1.0], [0.0, 0.0]])


def test_degenerate_eigenvalues_merge_into_one_outcome():
    m = np.diag([1.0, 1.0 + 1e-12, 5.0])
    obs = hilbert.Observable(m)
    assert len(obs.outcomes) == 2
    p = obs.projectors[0]
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_well_separated_eigenvalues_stay_distinct():
    obs = hilbert.Observable(np.diag([0.0, 1.0, 2.0]))
    assert len(obs.outcomes) == 3


def test_outcome_labels_align_with_ascending_eigenvalues():
    obs = hilbert.Observable(np.diag([2.0, 0.0]), outcome_labels=["low", "high"])
    # label order follows sorted eigenvalues, not matrix layout
    psi = hilbert.basis_state(hilbert.HilbertSpace(["a", "b"]), "b")
    assert hilbert.born_distribution(psi, obs) == {"low": 1.0, "high": 0.0}


def test_wrong_label_count_rejected():
    with pytest.raises(ValueError, match="outcome labels"):
        hilbert.Observable(np.diag([0.0, 1.0]), outcome_labels=["only"])


def test_path_observable_outcomes_are_basis_labels():
    space = hilbert.HilbertSpace(["1", "2"])
    obs = hilbert.path_observable(space)
    assert obs.outcomes == ("1", "2")


# ---------------------------------------------------------------------------
# Born rule and collapse


def test_born_distribution_plus_state():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    dist = hilbert.born_distribution(psi, hilbert.path_observable(space))
    assert abs(dist["1"] - 0.5) < 1e-12
    assert abs(dist["2"] - 0.5) < 1e-12


def test_born_sums_to_one_random_family():
    rng = stream(1, 0)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        raw = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = hilbert.StateVector(
            hilbert.HilbertSpace([str(i) for i in range(d)]), raw / np.linalg.norm(raw)
        )
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        obs = hilbert.Observable((h + h.conj().T) / 2)
        assert abs(sum(hilbert.born_distribution(psi, obs).values()) - 1.0) < 1e-12


def test_collapse_is_eigenspace_projection():
    # degenerate observable: collapse keeps the in-eigenspace superposition
    space = hilbert.HilbertSpace(["1", "2", "3"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 1.0, "3": 1.0})
    obs = hilbert.Observable(np.diag([0.0, 0.0, 1.0]), outcome_labels=["lo", "hi"])
    post = hilbert.collapse(psi, obs, "lo")
    s = 1 / math.sqrt(2)
    assert abs(post.amplitude("1") - s) < 1e-12
    assert abs(post.amplitude("2") - s) < 1e-12
    assert abs(post.amplitude("3")) < 1e-12


def test_collapse_impossible_outcome_raises():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.basis_state(space, "1")
    with pytest.raises(hilbert.ImpossibleOutcomeError):
        hilbert.collapse(psi, hilbert.path_observable(space), "2")


def test_repeated_collapse_is_idempotent():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    obs = hilbert.path_observable(space)
    once = hilbert.collapse(psi, obs, "1")
    twice = hilbert.collapse(once, obs, "1")
    assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-15)


def test_measure_matches_born_frequencies():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 2.0})
    obs = hilbert.path_observable(space)
    rng = stream(3, 0)
    n = 20000
    hits = sum(1 for _ in range(n) if hilbert.measure(psi, obs, rng)[0] == "2")
    p = 0.8
    assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_measure_post_state_is_eigenstate():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    outcome, post = hilbert.measure(psi, hilbert.path_observable(space), stream(4, 0))
    assert abs(abs(post.amplitude(outcome)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# unitaries


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="not unitary"):
        hilbert.UnitaryMap([[1.0, 0.0], [0.0, 2.0]])


def test_evolve_preserves_norm_random_family():
    rng = stream(5, 0)
    space = hilbert.HilbertSpace([str(i) for i in range(5)])
    for _ in range(10):
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = hilbert.StateVector(space, raw / np.linalg.norm(raw))
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u = hilbert.UnitaryMap.from_hamiltonian((h + h.conj().T) / 2, time=0.7)
        evolved = hilbert.evolve(psi, u)
        assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-12


def test_hamiltonian_evolution_composes():
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    u1 = hilbert.UnitaryMap.from_hamiltonian(h, 0.3)
    u2 = hilbert.UnitaryMap.from_hamiltonian(h, 0.5)
    u12 = hilbert.UnitaryMap.from_hamiltonian(h, 0.8)
    assert np.allclose(u1.matrix @ u2.matrix, u12.matrix, atol=1e-12)


def test_exact_state_evolves_exactly():
    space = hilbert.HilbertSpace(["1", "2"])
    amps = np.array([sp.Rational(3, 5), sp.Rational(4, 5)], dtype=object)
    psi = hilbert.StateVector(space, amps)
    assert psi.is_exact
    swap = hilbert.UnitaryMap(np.array([[0, 1], [1, 0]], dtype=object))
    out = hilbert.evolve(psi, swap)
    assert out.amplitudes[0] == sp.Rational(4, 5)
    assert out.amplitudes[1] == sp.Rational(3, 5)


# ---------------------------------------------------------------------------
# branching


def test_branch_weights_match_oracle_for_bell_state():
    bset = hilbert.branch(_bell_state(), _left_pm_observable())
    weights = bset.weights()
    for name in ("L1", "L2"):
        oracle_w = float(_plus_minus_branches[name][0])
        assert abs(weights[name] - oracle_w) < 1e-12


def test_branch_states_match_oracle_conditionals():
    # right-arm conditional is |-> under L1 and |+> under L2, up to phase
    bset = hilbert.branch(_bell_state(), _left_pm_observable())
    for b in bset:
        oracle_vec = np.array(
            [complex(x) for x in _plus_minus_branches[b.outcome][1]], dtype=complex
        )
        overlap = abs(np.vdot(oracle_vec, b.state.amplitudes))
        assert abs(overlap - 1.0) < 1e-12


def test_branch_eigenstate_single_branch():
    space = hilbert.HilbertSpace(["1", "2"])
    bset = hilbert.branch(hilbert.basis_state(space, "1"), hilbert.path_observable(space))
    assert len(bset) == 1
    assert abs(bset.weights()["1"] - 1.0) < 1e-15


def test_branch_plus_state_two_even_branches():
    space = hilbert.HilbertSpace(["1", "2"])
    psi = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    weights = hilbert.branch(psi, hilbert.path_observable(space)).weights()
    assert abs(weights["1"] - 0.5) < 1e-12
    assert abs(weights["2"] - 0.5) < 1e-12


def test_branch_states_orthogonal_under_projectors():
    obs = _left_pm_observable()
    bset = hilbert.branch(_bell_state(), obs)
    states = {b.outcome: b.state.amplitudes for b in bset}
    assert abs(np.vdot(states["L1"], states["L2"])) < 1e-12


def test_branch_joint_distribution_sequential_tree():
    space = hilbert.HilbertSpace(["1", "2"])
    r = exact.SQRT2 / 2
    psi = hilbert.StateVector(space.tensor(space), np.array([r, 0, 0, r], dtype=object))
    left = {"l1": np.diag([1, 1, 0, 0]), "l2": np.diag([0, 0, 1, 1])}
    right = {"r1": np.diag([1, 0, 1, 0]), "r2": np.diag([0, 1, 0, 1])}
    dist = hilbert.branch_joint_distribution(psi, [left, right])
    # the two zero-weight leaves are dropped, the others weigh exactly 1/2
    assert set(dist) == {("l1", "r1"), ("l2", "r2")}
    assert dist[("l1", "r1")] == dist[("l2", "r2")] == sp.Rational(1, 2)


# ---------------------------------------------------------------------------
# density matrices


def test_pure_density_purity_one():
    rho = hilbert.DensityMatrix.from_state(_bell_state())
    assert abs(hilbert.purity(rho) - 1.0) < 1e-12


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = hilbert.DensityMatrix.from_state(_bell_state())
    red = hilbert.partial_trace(rho, keep=[0])
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    assert hilbert.purity(red) < 1.0 - 1e-6
    assert abs(hilbert.purity(red) - 0.5) < 1e-12


def test_partial_trace_preserves_trace_and_keeps_order():
    a = hilbert.HilbertSpace(["1", "2"])
    b = hilbert.HilbertSpace(["x", "y", "z"])
    psi = hilbert.tensor(
        hilbert.superposition(a, {"1": 1.0, "2": 1.0}), hilbert.basis_state(b, "y")
    )
    rho = hilbert.DensityMatrix.from_state(psi)
    red_b = hilbert.partial_trace(rho, keep=[1])
    assert red_b.space.labels == ("x", "y", "z")
    assert abs(complex(np.trace(red_b.matrix)) - 1.0) < 1e-12
    assert abs(hilbert.purity(red_b) - 1.0) < 1e-12  # product state stays pure


def test_partial_trace_invalid_subset():
    rho = hilbert.DensityMatrix.from_state(_bell_state())
    with pytest.raises(ValueError):
        hilbert.partial_trace(rho, keep=[2])
    with pytest.raises(ValueError):
        hilbert.partial_trace(rho, keep=[])


def test_global_purity_invariant_under_unitaries():
    rng = stream(6, 0)
    rho = hilbert.DensityMatrix.from_state(_bell_state())
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = hilbert.UnitaryMap.from_hamiltonian((h + h.conj().T) / 2, time=1.3)
    assert abs(hilbert.purity(hilbert.evolve(rho, u)) - hilbert.purity(rho)) < 1e-12


def test_cnot_entangles_product_state():
    space = hilbert.HilbertSpace(["1", "2"])
    product = hilbert.tensor(
        hilbert.superposition(space, {"1": 1.0, "2": 1.0}), hilbert.basis_state(space, "1")
    )
    before = hilbert.purity(
        hilbert.partial_trace(hilbert.DensityMatrix.from_state(product), keep=[0])
    )
    after_state = hilbert.evolve(product, hilbert.cnot_unitary())
    after = hilbert.purity(
        hilbert.partial_trace(hilbert.DensityMatrix.from_state(after_state), keep=[0])
    )
    assert abs(before - 1.0) < 1e-12
    assert after < before - 1e-9
    assert abs(after - 0.5) < 1e-12


def test_density_validation_rejects_bad_trace():
    space = hilbert.HilbertSpace(["1", "2"])
    with pytest.raises(ValueError, match="trace"):
        hilbert.DensityMatrix(space, np.eye(2))
