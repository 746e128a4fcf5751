"""Verdict-layer tests.

The correlator law used by the CHSH pieces is re-derived here from raw
sympy matrices over symbolic angles, so the cos(2(a-b)) form the tests
lean on is proved inside the suite rather than assumed.  Negative controls
feed hand-built signaling/staged tables to each test and demand the
violation is actually flagged.
"""

import itertools
import json
import math
from collections import Counter
from types import SimpleNamespace

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import circuit, exact, hilbert, inference

INT = circuit.INTERFERENCE
WP = circuit.WHICHPATH
R = sp.Rational


def _exact_eraser(left=INT, right=INT, **kw):
    return circuit.copenhagen_joint_distribution(
        circuit.build_eraser(left, right, **kw)
    )


# ---------------------------------------------------------------------------
# report plumbing


def test_report_rejects_unknown_verdict_and_mode():
    with pytest.raises(ValueError, match="verdict"):
        inference.TestReport("t", 0.0, 0.0, "maybe", 0, inference.ANALYTIC)
    with pytest.raises(ValueError, match="mode"):
        inference.TestReport("t", 0.0, 0.0, inference.SATISFIED, 0, "exactish")


def test_report_serialization_handles_exact_details():
    rep = inference.TestReport(
        "t", 0.5, 0.0, inference.VIOLATED, 10, inference.MONTE_CARLO,
        details={
            "exact": exact.Cyclotomic.rational(Fraction(1, 2)),
            "root": 2 * exact.SQRT2,
            "nested": [np.float64(0.25), np.int64(3)],
        },
    )
    data = json.loads(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    assert data["details"]["exact"] == "1/2"
    assert data["details"]["root"] == "2*sqrt(2)"
    assert data["details"]["nested"] == [0.25, 3]
    assert data["verdict"] == "violated"


def _binomial_pmf(k, n, p):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


@settings(deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]))
def test_rate_interval_misses_its_rate_with_probability_at_most_alpha(n, p):
    intervals = [inference._rate_interval(k, n) for k in range(n + 1)]
    # the exact binomial probability of the counts whose interval leaves out p
    miss = sum(_binomial_pmf(k, n, p) for k, (lo, hi) in enumerate(intervals) if not lo <= p <= hi)
    assert miss <= inference.ALPHA
    assert intervals[0][0] == 0.0 and intervals[n][1] == 1.0


@settings(deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_difference_half_width_misses_with_probability_at_most_alpha(na, nb, pa, pb):
    half = inference._half_width((na, nb), 2)
    miss = sum(
        _binomial_pmf(ka, na, pa) * _binomial_pmf(kb, nb, pb)
        for ka in range(na + 1)
        for kb in range(nb + 1)
        if abs(ka / na - kb / nb - (pa - pb)) > half
    )
    assert miss <= inference.ALPHA


@pytest.mark.parametrize("sizes, events", [((1,), 2), ((100_000,), 250), ((3872, 3872), 2), ((10, 1000), 8)])
def test_half_width_puts_the_union_of_its_misses_at_alpha(sizes, events):
    # Hoeffding: each one-sided miss by t has probability at most
    # exp(-2 t**2 / sum(1 / n)), and the union of `events` of them is ALPHA
    t = inference._half_width(sizes, events)
    bound = events * math.exp(-2.0 * t**2 / sum(1.0 / n for n in sizes))
    assert bound == pytest.approx(inference.ALPHA, rel=1e-12)


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**4))
def test_half_width_shrinks_with_samples_and_grows_with_events(n, more, events):
    half = inference._half_width((n,), events)
    assert inference._half_width((n + more,), events) < half
    assert inference._half_width((n,), events + 1) > half
    # a second, independent sample only adds noise to the difference
    assert inference._half_width((n, more), events) > half


@pytest.mark.parametrize("n", [1, 2, 1937, 200_000])
def test_rate_interval_edges_are_exact(n):
    half = inference._half_width((n,), 2)
    assert inference._rate_interval(0, n) == (0.0, min(1.0, half))
    assert inference._rate_interval(n, n) == (max(0.0, 1.0 - half), 1.0)


def test_total_variation_exact_and_float():
    q = exact.Cyclotomic.rational
    a = {"x": q(Fraction(1, 2)), "y": q(Fraction(1, 2))}
    b = {"x": q(Fraction(1, 3)), "y": q(Fraction(2, 3))}
    assert inference.total_variation(a, b) == R(1, 6)
    assert inference.total_variation(a, a) == 0
    assert inference.total_variation({"x": 1.0}, {"y": 1.0}) == 1.0
    assert abs(inference.total_variation({"x": 0.5, "y": 0.5}, {"x": 0.25, "y": 0.75}) - 0.25) < 1e-15


def test_sample_outcome_pairs_deterministic_and_calibrated():
    joint = {("A", "C"): 0.7, ("B", "C"): 0.3}
    a = inference.sample_outcome_pairs(joint, 1000, seed=5, stream_index=1)
    b = inference.sample_outcome_pairs(joint, 1000, seed=5, stream_index=1)
    assert a == b
    c = inference.sample_outcome_pairs(joint, 1000, seed=5, stream_index=2)
    assert a != c
    big = inference.sample_outcome_pairs(joint, 40000, seed=5)
    frac = sum(1 for p in big if p[0] == "A") / 40000
    assert abs(frac - 0.7) < 3 * math.sqrt(0.21 / 40000)


# ---------------------------------------------------------------------------
# local causality


def test_local_causality_analytic_eraser_violated_half():
    rep = inference.local_causality_test(_exact_eraser(), "L1", "R1")
    assert rep.verdict == inference.VIOLATED
    assert rep.mode == inference.ANALYTIC
    assert rep.details["exact_statistic"] == R(1, 2)
    assert abs(rep.statistic - 0.5) < 1e-15
    assert rep.details["p_a_given_b"] == 1.0


def test_local_causality_product_table_satisfied():
    # independent outcomes: conditioning moves nothing
    quarter = exact.Cyclotomic.rational(Fraction(1, 4))
    joint = {(l, r): quarter for l, r in itertools.product(("L1", "L2"), ("R1", "R2"))}
    rep = inference.local_causality_test(joint, "L1", "R1")
    assert rep.verdict == inference.SATISFIED
    assert rep.statistic == 0.0
    assert rep.details["exact_statistic"] == 0


def test_analytic_tests_refuse_float_tables():
    floats = {k: float(v) for k, v in _exact_eraser().items()}
    with pytest.raises(TypeError, match="Cyclotomic"):
        inference.local_causality_test(floats, "L1", "R1")
    with pytest.raises(TypeError, match="Cyclotomic"):
        inference.no_signaling_test({"int": _exact_eraser(), "float": floats})


def test_local_causality_zero_probability_condition_rejected():
    with pytest.raises(ValueError, match="probability zero"):
        inference.local_causality_test(_exact_eraser(), "L1", "R3")


def test_local_causality_monte_carlo_ladder():
    joint = {k: float(v) for k, v in _exact_eraser().items() if v != 0}
    pairs = inference.sample_outcome_pairs(joint, 1000, seed=3)
    rep = inference.local_causality_test(Counter(pairs), "L1", "R1")
    assert rep.verdict == inference.VIOLATED
    assert rep.mode == inference.MONTE_CARLO
    assert rep.n == 1000
    assert rep.details["ci_low"] > 0.0

    # four runs cannot settle anything
    tiny = inference.local_causality_test(Counter(pairs[:4]), "L1", "R1")
    assert tiny.verdict == inference.INCONCLUSIVE

    # runs in which the conditioning event never occurred are no evidence
    none = inference.local_causality_test(Counter(pairs), "L1", "R3")
    assert none.verdict == inference.INCONCLUSIVE
    assert none.statistic == 0.0 and none.n == 1000 and none.details["n_b"] == 0


def test_mwi_joint_distribution_agrees_with_copenhagen():
    for left, right, right_first in itertools.product((INT, WP), (INT, WP), (False, True)):
        circ = circuit.build_eraser(left, right, right_acts_first=right_first)
        via_branches = inference.mwi_joint_distribution(circ)
        via_collapse = circuit.copenhagen_joint_distribution(circ)
        # zero-weight outcomes never branch; every other weight agrees exactly
        assert via_branches == {k: p for k, p in via_collapse.items() if p != 0}
        assert all(isinstance(p, exact.Cyclotomic) for p in via_branches.values())


# ---------------------------------------------------------------------------
# measurement independence


def test_mi_analytic_identical_settings_zero():
    a = circuit.enumerate_transport(circuit.build_eraser(INT, INT))
    b = circuit.enumerate_transport(circuit.build_eraser(INT, INT))
    rep = inference.measurement_independence_test({"s1": a, "s2": b})
    assert rep.verdict == inference.SATISFIED
    assert rep.statistic == 0.0


def test_mi_analytic_initial_stage_setting_free():
    groups = {
        (INT, INT): circuit.enumerate_transport(
            circuit.build_eraser(INT, INT, right_acts_first=True)),
        (INT, WP): circuit.enumerate_transport(
            circuit.build_eraser(INT, WP, right_acts_first=True)),
    }
    rep = inference.measurement_independence_test(groups, stage="initial")
    assert rep.verdict == inference.SATISFIED
    assert rep.statistic == 0.0


def test_mi_analytic_pre_detection_violated_with_diagnostics():
    groups = {
        (INT, INT): circuit.enumerate_transport(
            circuit.build_eraser(INT, INT, right_acts_first=True)),
        (INT, WP): circuit.enumerate_transport(
            circuit.build_eraser(INT, WP, right_acts_first=True)),
    }
    rep = inference.measurement_independence_test(groups)
    assert rep.verdict == inference.VIOLATED
    # full joint records live on disjoint supports (the right-arm record
    # shape differs), so the TV is exactly one
    assert rep.details["exact_statistic"] == 1
    # half the initial measure gets a different left record...
    assert rep.details["L_changed_measure_exact"] == R(1, 2)
    # ...while the left record *marginal* stays identical (no signaling at
    # the record level) and so does the initial configuration law
    assert rep.details["L_record_tv"] < 1e-12
    assert rep.details["initial_config_tv"] < 1e-12


def _record_counts(sample, arms=("L", "R")):
    """Runs per path record: initial labels plus every beam-splitter label
    on the requested arms."""
    rows = [sample.labels0[:, "LR".index(arm)] for arm in arms]
    rows += [labs for arm in arms for labs in sample.bs_labels[arm]]
    return Counter(zip(*(r.tolist() for r in rows)))


def test_mi_monte_carlo_left_record_marginal_invariant():
    n = 50_000
    hidden = None
    groups = {}
    for key, (left, right) in {"int": (INT, INT), "wp": (INT, WP)}.items():
        circ = circuit.build_eraser(left, right, right_acts_first=True)
        sample = circuit.sample_bohmian_runs(circ, n, seed=21, stream_index=0,
                                             hidden=hidden)
        hidden = (sample.labels0, sample.coords0)  # same initial ensemble
        groups[key] = _record_counts(sample, arms=("L",))
    rep = inference.measurement_independence_test(groups)
    assert rep.verdict == inference.SATISFIED
    assert rep.n == n

    # the full records still differ: support is disjoint across settings
    full = {
        key: _record_counts(circuit.sample_bohmian_runs(
            circuit.build_eraser(*lr, right_acts_first=True), 3000, seed=21,
            stream_index=0))
        for key, lr in {"int": (INT, INT), "wp": (INT, WP)}.items()
    }
    rep_full = inference.measurement_independence_test(full)
    assert rep_full.verdict == inference.VIOLATED
    assert rep_full.statistic > 0.9


def test_mi_refuses_mixed_analytic_and_monte_carlo_groups():
    groups = {
        "a": circuit.enumerate_transport(circuit.build_eraser(INT, INT)),
        "b": Counter([("r",)]),
    }
    with pytest.raises(TypeError, match="mixed"):
        inference.measurement_independence_test(groups)


def test_mi_requires_two_groups():
    with pytest.raises(ValueError, match="two settings"):
        inference.measurement_independence_test({"only": Counter([("r",)])})
    with pytest.raises(ValueError, match="no records"):
        inference.measurement_independence_test({"a": Counter([("r",)]), "b": Counter()})


# ---------------------------------------------------------------------------
# no-signaling


def test_no_signaling_analytic_eraser_satisfied():
    groups = {"int": _exact_eraser(INT, INT), "wp": _exact_eraser(INT, WP)}
    rep = inference.no_signaling_test(groups, side="left")
    assert rep.verdict == inference.SATISFIED
    assert rep.details["exact_statistic"] == 0
    assert rep.details["marginals"]["int"] == {"L1": 0.5, "L2": 0.5}


def test_no_signaling_hand_built_signaling_table_violated():
    groups = {
        "s1": {("L1", "R1"): exact.ONE},
        "s2": {("L2", "R1"): exact.ONE},
    }
    rep = inference.no_signaling_test(groups, side="left")
    assert rep.verdict == inference.VIOLATED
    assert rep.statistic == 1.0
    assert rep.details["exact_statistic"] == 1


def test_no_signaling_refuses_mixed_analytic_and_monte_carlo_groups():
    groups = {"a": _exact_eraser(), "b": Counter({("L1", "R1"): 3})}
    with pytest.raises(TypeError, match="mixed"):
        inference.no_signaling_test(groups)


def test_no_signaling_monte_carlo_ladder():
    joint = {k: float(v) for k, v in _exact_eraser().items() if v != 0}
    big = {
        "s1": inference.sample_outcome_pairs(joint, 50_000, seed=4, stream_index=0),
        "s2": inference.sample_outcome_pairs(joint, 50_000, seed=4, stream_index=1),
    }
    rep = inference.no_signaling_test({k: Counter(v) for k, v in big.items()}, side="left")
    assert rep.verdict == inference.SATISFIED
    assert rep.n == 50_000
    assert rep.details["widest_ci_edge"] < inference.EQUIVALENCE_MARGIN

    small = {k: Counter(v[:300]) for k, v in big.items()}
    rep_small = inference.no_signaling_test(small, side="left")
    assert rep_small.verdict == inference.INCONCLUSIVE


def test_no_signaling_monte_carlo_detects_shifted_marginal():
    fair = {("L1", "R1"): 0.5, ("L2", "R2"): 0.5}
    skew = {("L1", "R1"): 0.9, ("L2", "R2"): 0.1}
    groups = {
        "s1": Counter(inference.sample_outcome_pairs(fair, 2000, seed=6, stream_index=0)),
        "s2": Counter(inference.sample_outcome_pairs(skew, 2000, seed=6, stream_index=1)),
    }
    rep = inference.no_signaling_test(groups, side="left")
    assert rep.verdict == inference.VIOLATED


def test_no_signaling_accepts_run_records_and_right_side():
    # run records arrive as count tables; the right side reads pair[1]
    fair = {("L1", "R1"): 0.5, ("L2", "R2"): 0.5}
    only_r4 = {("L1", "R4"): 0.5, ("L2", "R4"): 0.5}
    counts = Counter(inference.sample_outcome_pairs(fair, 1000, seed=8))
    same = inference.no_signaling_test({"s1": counts, "s2": counts}, side="right")
    assert same.mode == inference.MONTE_CARLO
    assert same.statistic == 0.0
    moved = Counter(inference.sample_outcome_pairs(only_r4, 1000, seed=8, stream_index=1))
    assert inference.no_signaling_test({"s1": counts, "s2": moved}, side="left").statistic < 0.1
    right = inference.no_signaling_test({"s1": counts, "s2": moved}, side="right")
    assert right.verdict == inference.VIOLATED
    assert right.statistic == 1.0  # R4 never fires under s1, always under s2
    with pytest.raises(ValueError, match="two remote settings"):
        inference.no_signaling_test({"s1": counts})


# ---------------------------------------------------------------------------
# correlators and CHSH


def test_correlator_law_derived_symbolically():
    # raw sympy evolution under symbolic angles; signs +1 on the sum port,
    # -1 on the difference port
    tl, tr = sp.symbols("theta_l theta_r", real=True)

    def bs(th):
        return sp.Matrix([[sp.cos(th), sp.sin(th)], [sp.sin(th), -sp.cos(th)]])

    psi = sp.kronecker_product(bs(tl), bs(tr)) * (sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2))
    e = 0
    for l, r in itertools.product(range(2), range(2)):
        sign = (1 if l == 0 else -1) * (1 if r == 0 else -1)
        amp = psi[2 * l + r]
        e += sign * amp * sp.conjugate(amp)
    assert sp.simplify(e - sp.cos(2 * (tl - tr))) == 0


def test_correlator_values():
    assert abs(inference.correlator_table([0.3], [0.3])[0, 0] - 1.0) < 1e-12
    eighth, three_eighths = exact.pi_times(Fraction(1, 8)), exact.pi_times(Fraction(3, 8))
    assert inference.correlator(eighth, three_eighths) == 0
    got = inference.correlator_table([np.pi / 8], [0.0])[0, 0]
    assert abs(got - math.cos(np.pi / 4)) < 1e-12
    # the correlator is exact only; radians go to correlator_table
    with pytest.raises(TypeError, match="pi_times"):
        inference.correlator(0.3, 0.3)


def test_chsh_value_at_textbook_settings():
    settings = tuple(exact.pi_times(Fraction(k, 8)) for k in (2, 0, 1, 3))
    assert inference.chsh_value(settings) == 2 * exact.SQRT2
    e = inference.correlator_table([np.pi / 4, 0.0], [np.pi / 8, 3 * np.pi / 8])
    assert abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1] - 2 * math.sqrt(2)) < 1e-12


# chsh_optimize's default grid: multiples of pi/32 on [0, pi/2]
_CHSH_GRID = np.arange(0.0, np.pi / 2 + np.pi / 64, np.pi / 32)


def test_correlator_table_matches_circuit_born_table_bit_for_bit():
    # reference: a float Born table per pair, the source state evolved by
    # `hilbert` through one joint beam-splitter unitary per arm, left first
    grid = _CHSH_GRID
    table = inference.correlator_table(grid, grid)
    psi0 = hilbert.StateVector(circuit.joint_space(), circuit.FLOAT_SOURCE.ravel())
    eye = np.eye(2, dtype=np.complex128)
    for i, tl in enumerate(grid):
        for j, tr in enumerate(grid):
            psi = psi0
            for u in (np.kron(circuit.beam_splitter_matrix(tl), eye),
                      np.kron(eye, circuit.beam_splitter_matrix(tr))):
                psi = hilbert.evolve(psi, hilbert.UnitaryMap(u))
            amps = psi.amplitudes.reshape(2, 2)
            # summed in detector-name order: label index 1 is the 1-detector
            e = 0
            for l, r in itertools.product((1, 0), (1, 0)):
                z = amps[l, r]
                e += (1 if l == r else -1) * (z.real * z.real + z.imag * z.imag)
            assert table[i, j] == e, (i, j)


def test_chsh_optimize_reaches_tsirelson():
    res = inference.chsh_optimize()
    grid = _CHSH_GRID
    e = inference.correlator_table(grid, grid)
    assert res.settings == tuple(float(v) for v in grid[[6, 14, 10, 2]])
    assert res.angles == tuple(exact.pi_times(Fraction(k, 32)) for k in (6, 14, 10, 2))
    assert res.exact_value == inference.chsh_value(res.angles)
    assert res.s_value == e[6, 10] + e[6, 2] + e[14, 10] - e[14, 2]
    assert res.s_value == float(np.max(inference._chsh_table(e)))
    assert abs(res.s_value - 2 * math.sqrt(2)) < 1e-9
    assert res.exact_value == 2 * exact.SQRT2


def test_chsh_estimate_within_error_of_tsirelson():
    angles = inference.chsh_optimize().angles
    estimate, error = inference.chsh_estimate(angles, 4000, seed=5, stream_base=600)
    assert 0.0 < error < 0.05
    assert abs(estimate - 2 * math.sqrt(2)) < 5 * error
    with pytest.raises(ValueError, match="at least 2 trials"):
        inference.chsh_estimate(angles, 1, seed=5)


def test_local_models_capped_at_two():
    models = inference.local_deterministic_models()
    assert len(models) == 14
    maxima = [inference.local_model_chsh_max(m) for m in models]
    assert all(v <= 2.0 + 1e-12 for v in maxima)
    assert max(maxima) == 2.0


# ---------------------------------------------------------------------------
# repeatability


def test_repeatability_analytic():
    with_collapse = inference.repeatability_test(0, mode=inference.ANALYTIC)
    assert with_collapse.verdict == inference.SATISFIED
    assert with_collapse.statistic == 0.0

    without = inference.repeatability_test(0, collapse=False, mode=inference.ANALYTIC)
    assert without.verdict == inference.VIOLATED
    assert abs(without.statistic - 0.5) < 1e-15
    assert without.details["exact_statistic"] == R(1, 2)


def test_repeatability_analytic_refuses_float_state_and_any_observable():
    space = hilbert.HilbertSpace(("1", "2"))
    with pytest.raises(TypeError, match="exact state"):
        inference.repeatability_test(
            0, state=hilbert.basis_state(space, "1"), mode=inference.ANALYTIC)
    with pytest.raises(TypeError, match="no observable"):
        inference.repeatability_test(
            0, observable=hilbert.path_observable(space), mode=inference.ANALYTIC)


def test_repeatability_eigenstate_no_flips_either_way():
    space = hilbert.HilbertSpace(("1", "2"))
    exact_eigen = hilbert.StateVector(space, np.array([exact.ONE, exact.ZERO], dtype=object))
    analytic = inference.repeatability_test(
        0, state=exact_eigen, collapse=False, mode=inference.ANALYTIC)
    assert analytic.verdict == inference.SATISFIED
    assert analytic.details["exact_statistic"] == 0
    # the zero-weight outcome is still reported
    assert analytic.details["outcome_probabilities"] == {"1": 1.0, "2": 0.0}
    eigen = hilbert.basis_state(space, "1")
    sampled = inference.repeatability_test(2000, state=eigen, collapse=False, seed=2)
    assert sampled.verdict == inference.SATISFIED
    assert sampled.details["differing"] == 0


def test_repeatability_monte_carlo():
    rep = inference.repeatability_test(5000, seed=1)
    assert rep.verdict == inference.SATISFIED
    assert rep.statistic == 0.0

    no_collapse = inference.repeatability_test(5000, collapse=False, seed=1)
    assert no_collapse.verdict == inference.VIOLATED
    assert abs(no_collapse.statistic - 0.5) < 3 * math.sqrt(0.25 / 5000)

    # one trial with zero flips cannot certify anything
    single = inference.repeatability_test(1, seed=1)
    assert single.verdict == inference.INCONCLUSIVE
    with pytest.raises(ValueError):
        inference.repeatability_test(0)


# ---------------------------------------------------------------------------
# branch weights vs collapse frequencies


def test_branch_collapse_equivalence_default_seed():
    rep = inference.branch_collapse_equivalence(seed=0)
    assert rep.verdict == inference.SATISFIED
    assert rep.details["max_weight_deviation"] == 0.0
    assert rep.details["comparisons"] > 100
    # the family's half-width grows with the number of comparisons
    assert rep.details["half_width"] == inference._half_width((100_000,), 2 * rep.details["comparisons"])
    assert rep.statistic + rep.details["half_width"] < inference.EQUIVALENCE_MARGIN


def test_branch_collapse_equivalence_fixed_seed_within_three_sigma():
    rep = inference.branch_collapse_equivalence(seed=7)
    assert rep.verdict == inference.SATISFIED
    # every frequency within three standard errors of the widest binomial
    assert rep.statistic <= 3.0 * math.sqrt(0.25 / rep.n)
    assert min(rep.details["dimensions"]) >= 2
    assert max(rep.details["dimensions"]) <= 8


def test_branch_collapse_equivalence_decided_by_its_intervals(monkeypatch):
    # 2000 samples are too few to bless anything at this error rate
    rep = inference.branch_collapse_equivalence(n_pairs=5, n_samples=2000, seed=3)
    assert rep.details["half_width"] > inference.EQUIVALENCE_MARGIN
    assert rep.verdict == inference.INCONCLUSIVE
    # exact branch weights do not excuse frequencies outside their intervals
    monkeypatch.setattr(inference, "_half_width", lambda sizes, events: rep.statistic / 2)
    below = inference.branch_collapse_equivalence(n_pairs=5, n_samples=2000, seed=3)
    assert below.details["max_weight_deviation"] == 0.0
    assert below.verdict == inference.VIOLATED


def test_branch_collapse_equivalence_is_reproducible_by_seed():
    # each pair draws from its own substream, keyed by the seed and the
    # stream base, so a run repeats exactly and a new key draws anew
    run = dict(n_pairs=5, n_samples=2000)
    first = inference.branch_collapse_equivalence(seed=3, **run).to_dict()
    assert inference.branch_collapse_equivalence(seed=3, **run).to_dict() == first
    assert inference.branch_collapse_equivalence(seed=4, **run).statistic != first["statistic"]
    shifted = inference.branch_collapse_equivalence(seed=3, stream_base=5, **run)
    assert shifted.statistic != first["statistic"]


# ---------------------------------------------------------------------------
# the claims table


def test_claims_table_names_seventeen_unique_claims():
    names = [name for name, _, _ in inference.CLAIMS]
    assert len(names) == 17
    assert len(set(names)) == 17


def test_one_claim_runs_alone():
    evidence = inference.claim_evidence(seed=3, trials=2000)
    table = {name: (expected, test) for name, expected, test in inference.CLAIMS}
    for name, mode in (
        ("transport_equivariance", inference.ANALYTIC),
        ("repeatability_with_collapse", inference.MONTE_CARLO),
    ):
        expected, test = table[name]
        report = test(evidence)
        assert report.mode == mode
        assert report.verdict == expected


def test_alpha_splits_the_suite_budget_over_the_monte_carlo_claims():
    evidence = inference.claim_evidence(seed=3, trials=2000)
    monte_carlo = sum(test(evidence).mode == inference.MONTE_CARLO for _, _, test in inference.CLAIMS)
    assert monte_carlo == 8
    assert monte_carlo * inference.ALPHA <= 1e-3


def test_claim_evidence_refuses_zero_trials():
    with pytest.raises(ValueError, match=r"n must be at least 1, got n=0"):
        inference.claim_evidence(seed=3, trials=0)


# ---------------------------------------------------------------------------
# verdict rules at their boundaries, on constructed inputs: each rule is
# otherwise reached only at the points the pinned seeds happen to give


@pytest.mark.parametrize(
    "ci, verdict",
    [
        ((0.001, 0.2), inference.VIOLATED),
        ((-0.2, -0.001), inference.VIOLATED),
        ((-0.049, 0.049), inference.SATISFIED),
        ((0.0, 0.0), inference.SATISFIED),
        # straddling zero but reaching the margin on either side: too wide
        # to bless, however close to zero its other end lies
        ((-0.001, 0.2), inference.INCONCLUSIVE),
        ((-0.2, 0.001), inference.INCONCLUSIVE),
        ((-0.05, 0.0), inference.INCONCLUSIVE),
        ((0.0, 0.05), inference.INCONCLUSIVE),
    ],
)
def test_interval_verdict_at_the_margin(ci, verdict):
    assert inference.EQUIVALENCE_MARGIN == 0.05
    assert inference._interval_verdict([ci]) == verdict


@pytest.mark.parametrize(
    "intervals, verdict",
    [
        # one interval that excludes zero settles the family
        ([(-0.01, 0.01), (0.001, 0.02)], inference.VIOLATED),
        ([(-0.3, 0.3), (-0.02, -0.001)], inference.VIOLATED),
        # one interval too wide to bless keeps the family inconclusive
        ([(-0.01, 0.01), (-0.01, 0.2)], inference.INCONCLUSIVE),
        ([(-0.01, 0.01), (-0.02, 0.02)], inference.SATISFIED),
    ],
)
def test_interval_verdict_over_a_family(intervals, verdict):
    assert inference._interval_verdict(intervals) == verdict
    assert inference._interval_verdict(intervals[::-1]) == verdict


def test_local_causality_monte_carlo_difference_inside_its_interval_is_inconclusive():
    # P(R1) = 0.5 against P(R1 | L1) = 0.6 over ten runs: the difference lies
    # well inside its interval, so it neither violates nor blesses anything
    records = Counter({("L1", "R1"): 3, ("L1", "R2"): 2, ("L2", "R1"): 2, ("L2", "R2"): 3})
    report = inference.local_causality_test(records, "R1", "L1")
    assert report.statistic > 0.09
    assert report.details["ci_low"] < 0.0 < report.details["ci_high"]
    assert report.verdict == inference.INCONCLUSIVE


def test_local_causality_monte_carlo_interval_is_the_union_of_two_one_sample_bounds():
    # P(R1 | L1) is read from the L1 runs alone, which P(R1) shares: each
    # frequency gets its own two-sided bound, four one-sided misses in all
    records = Counter({("L1", "R1"): 2600, ("L1", "R2"): 2400, ("L2", "R1"): 2400, ("L2", "R2"): 2600})
    report = inference.local_causality_test(records, "R1", "L1")
    half = inference._half_width((10_000,), 4) + inference._half_width((5000,), 4)
    assert report.details["n_b"] == 5000
    assert report.details["ci_high"] - report.details["ci_low"] == pytest.approx(2 * half, rel=1e-12)
    assert report.statistic == pytest.approx(0.02, abs=1e-12)
    assert report.verdict == inference.INCONCLUSIVE


def test_no_signaling_monte_carlo_shift_inside_its_interval_is_satisfied():
    # marginals 0.5075 and 0.4925 over 10 000 runs each: the 0.015 shift lies
    # inside its interval, and every interval inside the margin
    a = Counter({("L1", "R1"): 5075, ("L2", "R1"): 4925})
    b = Counter({("L1", "R1"): 4925, ("L2", "R1"): 5075})
    report = inference.no_signaling_test({"a": a, "b": b})
    assert abs(report.statistic - 0.015) < 1e-12
    assert 0.015 < report.details["widest_ci_edge"] < inference.EQUIVALENCE_MARGIN
    assert report.verdict == inference.SATISFIED


# zero changes or flips bless the null only when the upper bound
# sqrt(log(2 / ALPHA) / (2 n)) is inside the margin, from n = 1937 on
@pytest.mark.parametrize("n, verdict", [(13, inference.INCONCLUSIVE), (126, inference.INCONCLUSIVE),
                                        (1936, inference.INCONCLUSIVE), (1937, inference.SATISFIED)])
def test_repeatability_with_collapse_blesses_zero_flips_only_with_power(n, verdict):
    report = inference.repeatability_test(n, collapse=True)
    assert report.details["differing"] == 0
    assert report.details["ci_low"] == 0.0
    assert report.verdict == verdict


@pytest.mark.parametrize("n, verdict", [(126, inference.INCONCLUSIVE), (1936, inference.INCONCLUSIVE),
                                        (1937, inference.SATISFIED)])
def test_setting_dependence_blesses_zero_changes_only_with_power(n, verdict):
    # with the left arm acting first, its record cannot depend on the right setting
    report = inference.trajectory_setting_dependence(n, seed=0, right_acts_first=False)
    assert report.statistic == 0.0
    assert report.verdict == verdict


@pytest.mark.parametrize(
    "bounds, verdict",
    [
        ((1e-9, 0.5), inference.VIOLATED),
        ((0.0, 0.5), inference.INCONCLUSIVE),
        ((-1e-9, 0.5), inference.INCONCLUSIVE),
    ],
)
def test_setting_dependence_is_violated_only_when_the_lower_bound_clears_zero(monkeypatch, bounds, verdict):
    monkeypatch.setattr(inference, "_rate_interval", lambda k, n: bounds)
    report = inference.trajectory_setting_dependence(50, seed=1)
    assert report.statistic > 0
    assert report.verdict == verdict


@pytest.mark.parametrize("seed, changed, verdict", [(0, 0, inference.INCONCLUSIVE), (1, 1, inference.INCONCLUSIVE)])
def test_setting_dependence_of_one_run(seed, changed, verdict):
    # one run, changed or not, is too little evidence for any verdict: its
    # interval is all of [0, 1]
    report = inference.trajectory_setting_dependence(1, seed=seed)
    assert report.statistic == changed
    assert report.verdict == verdict


@pytest.mark.parametrize("records, n, verdict", [(2, 3872, inference.INCONCLUSIVE), (2, 3874, inference.SATISFIED),
                                                 (8, 5808, inference.INCONCLUSIVE), (8, 5816, inference.SATISFIED)])
def test_measurement_independence_blesses_only_an_allowance_inside_the_margin(records, n, verdict):
    # identical record laws over K records: the allowance
    # sqrt(log((2**K - 2) / ALPHA) * (2 / n) / 2) crosses the 0.05 margin
    # between the two sizes of each K
    counts = Counter({(chr(ord("a") + i),): n // records for i in range(records)})
    report = inference.measurement_independence_test({"s1": counts, "s2": counts})
    assert report.statistic == 0.0
    assert (report.details["allowance"] < inference.EQUIVALENCE_MARGIN) == (verdict == inference.SATISFIED)
    assert report.verdict == verdict


def _agreement_evidence(k, n):
    """Stand-in evidence: two equally likely pairs, one seen k times in n."""
    pairs = [("L1", "R1"), ("L2", "R2")]
    return SimpleNamespace(
        counts={inference._II: Counter({pairs[0]: k, pairs[1]: n - k})},
        tables={inference._II: {pairs[0]: 0.5, pairs[1]: 0.5}},
    )


@pytest.mark.parametrize("k, verdict", [(5227, inference.SATISFIED), (5228, inference.VIOLATED),
                                        (4772, inference.VIOLATED), (5000, inference.SATISFIED)])
def test_correlation_agreement_at_its_half_width(k, verdict):
    # |k / n - 0.5| at n = 10 000 against the half-width of two intervals,
    # sqrt(log(4 / ALPHA) / (2 n)) = 0.02277
    report = inference._correlation_agreement(_agreement_evidence(k, 10000))
    assert 0.02277 < report.details["half_width"] < 0.02278
    assert report.verdict == verdict


def test_correlation_agreement_refuses_a_pair_the_born_table_forbids():
    # one run in 10 000 at a probability-zero pair is a violation, however
    # small its frequency
    ev = _agreement_evidence(4999, 9999)
    ev.counts[inference._II][("L1", "R2")] = 1
    ev.tables[inference._II][("L1", "R2")] = 0.0
    report = inference._correlation_agreement(ev)
    assert report.statistic < 1e-3
    assert report.verdict == inference.VIOLATED
