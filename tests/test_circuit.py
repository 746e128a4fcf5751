"""Eraser circuit tests.

Joint detector statistics are checked against an oracle that rebuilds the
state evolution from raw sympy matrices (kron products and column vectors,
no code under test); the analytic engine takes `exact.pi_times` angles and
the oracle the same pi-fractions as sympy angles.  Transport facts are frozen
from hand-worked cases: with both arms reading interference at theta = pi/4,
the left coordinate alone fixes the outcome pair when the left arm acts
first, and the *right* coordinate fixes the left record when the right arm
acts first.  The float sampler is checked run by run against the exact
enumeration's cells.
"""

import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from sympy_oracle import agrees, sympy_angle

from qfoundations import circuit, exact, inference

INT = circuit.INTERFERENCE
WP = circuit.WHICHPATH
R = sp.Rational


# ---------------------------------------------------------------------------
# oracle: raw sympy evolution of (|11> + |22>)/sqrt(2)


def _oracle_bs(theta):
    return sp.Matrix([[sp.cos(theta), sp.sin(theta)], [sp.sin(theta), -sp.cos(theta)]])


def _oracle_name(setting, arm, idx):
    # interference ports: index 0 -> sum detector {arm}2, index 1 -> {arm}1
    if setting == INT:
        return f"{arm}{2 - idx}"
    return f"{arm}{3 + idx}"


def _oracle_joint(left, right, theta_l, theta_r, right_acts_first=False):
    psi = sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2)  # index 2*l + r
    eye = sp.eye(2)
    order = ("R", "L") if right_acts_first else ("L", "R")
    for arm in order:
        setting = left if arm == "L" else right
        if setting != INT:
            continue
        th = theta_l if arm == "L" else theta_r
        b = _oracle_bs(th)
        op = sp.kronecker_product(b, eye) if arm == "L" else sp.kronecker_product(eye, b)
        psi = op * psi
    out = {}
    for l, r in itertools.product(range(2), range(2)):
        amp = psi[2 * l + r]
        key = (_oracle_name(left, "L", l), _oracle_name(right, "R", r))
        out[key] = sp.simplify(amp * sp.conjugate(amp))
    return out


# angles as multiples of pi
_ORACLE_CASES = [
    (INT, INT, Fraction(1, 4), Fraction(1, 4), False),
    (INT, INT, Fraction(1, 4), Fraction(1, 4), True),
    (INT, WP, Fraction(1, 4), None, False),
    (WP, INT, None, Fraction(1, 4), True),
    (WP, WP, None, None, False),
    (INT, INT, Fraction(1, 8), Fraction(3, 8), False),
    (INT, INT, Fraction(1, 8), Fraction(1, 3), True),
]


def _angles(tl, tr, make, default=None):
    return tuple(default if t is None else make(t) for t in (tl, tr))


@pytest.mark.parametrize("left,right,tl,tr,rfirst", _ORACLE_CASES)
def test_joint_distribution_matches_sympy_oracle(left, right, tl, tr, rfirst):
    exact_l, exact_r = _angles(tl, tr, exact.pi_times)
    circ = circuit.build_eraser(left, right, theta_left=exact_l, theta_right=exact_r,
                                right_acts_first=rfirst)
    got = circuit.copenhagen_joint_distribution(circ)
    sym_l, sym_r = _angles(tl, tr, sympy_angle, default=sp.pi / 4)
    want = _oracle_joint(left, right, sym_l, sym_r, right_acts_first=rfirst)
    assert set(got) == set(want)
    for key in want:
        assert agrees(got[key], want[key]), key


def test_joint_distribution_frozen_values():
    circ = circuit.build_eraser(INT, INT)
    assert circuit.copenhagen_joint_distribution(circ) == {
        ("L1", "R1"): R(1, 2),
        ("L1", "R2"): 0,
        ("L2", "R1"): 0,
        ("L2", "R2"): R(1, 2),
    }
    circ = circuit.build_eraser(INT, WP)
    dist = circuit.copenhagen_joint_distribution(circ)
    assert dist == {k: R(1, 4) for k in dist}
    circ = circuit.build_eraser(WP, WP)
    assert circuit.copenhagen_joint_distribution(circ) == {
        ("L3", "R3"): R(1, 2),
        ("L3", "R4"): 0,
        ("L4", "R3"): 0,
        ("L4", "R4"): R(1, 2),
    }


def test_joint_distribution_order_independent():
    for lr in [(INT, INT), (INT, WP), (WP, INT)]:
        a = circuit.copenhagen_joint_distribution(
            circuit.build_eraser(*lr, right_acts_first=False))
        b = circuit.copenhagen_joint_distribution(
            circuit.build_eraser(*lr, right_acts_first=True))
        assert a == b


def test_beam_splitter_convention_and_orthogonality():
    for multiple in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(5, 12), Fraction(1, 2)):
        b = circuit.beam_splitter_matrix(exact.pi_times(multiple))
        th = sympy_angle(multiple)
        assert agrees(b[0, 0], sp.cos(th)) and agrees(b[1, 0], sp.sin(th))
        assert agrees(b[0, 1], sp.sin(th)) and agrees(b[1, 1], -sp.cos(th))
        # real orthogonal, decided exactly in the field
        assert (b @ b.T == np.array([[1, 0], [0, 1]], dtype=object)).all()
    quarter = circuit.beam_splitter_matrix(exact.pi_times(Fraction(1, 4)))
    assert quarter[0, 0] == exact.SQRT2 / 2
    assert agrees(quarter[0, 0], 1 / sp.sqrt(2))


def test_detector_names_and_outcome_names():
    assert circuit.detector_names(INT, "L") == ("L1", "L2")
    assert circuit.detector_names(WP, "R") == ("R3", "R4")
    assert circuit.outcome_name(INT, "L", 0) == "L2"
    assert circuit.outcome_name(INT, "L", 1) == "L1"
    assert circuit.outcome_name(WP, "R", 0) == "R3"
    assert circuit.outcome_name(WP, "R", 1) == "R4"
    with pytest.raises(ValueError):
        circuit.detector_names("mixed", "L")


# ---------------------------------------------------------------------------
# structural validation


def test_rejects_nonincreasing_layers():
    els = (
        circuit.CircuitElement(2, "L", "beam_splitter", theta=np.pi / 4),
        circuit.CircuitElement(2, "L", "erasure_detector"),
        circuit.CircuitElement(3, "R", "whichpath_detector"),
    )
    with pytest.raises(ValueError, match="strictly increase"):
        circuit.OpticalCircuit((INT, WP), els, False)


def test_rejects_missing_terminal_detector():
    els = (
        circuit.CircuitElement(1, "L", "beam_splitter", theta=np.pi / 4),
        circuit.CircuitElement(2, "R", "whichpath_detector"),
    )
    with pytest.raises(ValueError, match="terminal detector"):
        circuit.OpticalCircuit((INT, WP), els, False)


def test_rejects_detector_before_last_element():
    els = (
        circuit.CircuitElement(1, "L", "erasure_detector"),
        circuit.CircuitElement(2, "L", "beam_splitter", theta=np.pi / 4),
        circuit.CircuitElement(3, "R", "whichpath_detector"),
    )
    with pytest.raises(ValueError, match="last element"):
        circuit.OpticalCircuit((INT, WP), els, False)


def test_rejects_beam_splitter_without_angle():
    els = (
        circuit.CircuitElement(1, "L", "beam_splitter"),
        circuit.CircuitElement(2, "L", "erasure_detector"),
        circuit.CircuitElement(3, "R", "whichpath_detector"),
    )
    with pytest.raises(ValueError, match=r"layer 1, arm L\) has no angle"):
        circuit.OpticalCircuit((INT, WP), els, False)


def test_rejects_angle_outside_range():
    with pytest.raises(ValueError, match="outside"):
        circuit.build_eraser(INT, INT, theta_left=2.0)


def test_rejects_unknown_setting():
    with pytest.raises(ValueError, match="unknown setting"):
        circuit.build_eraser("polarized", INT)


def test_rejects_coordinate_outside_unit_interval():
    circ = circuit.build_eraser(INT, INT)
    with pytest.raises(ValueError, match="outside"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 0]], [[0.5, 1.0]]))
    with pytest.raises(ValueError, match="outside"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 0]], [[-0.25, 0.5]]))
    with pytest.raises(ValueError, match="outside"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 0]], [[np.nan, 0.5]]))


def test_rejects_label_outside_pair():
    circ = circuit.build_eraser(INT, INT)
    with pytest.raises(ValueError, match="label"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 2]], [[0.5, 0.5]]))
    with pytest.raises(ValueError, match="shape"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([0, 0], [0.5, 0.5]))
    with pytest.raises(ValueError, match="shape"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 0]], [[0.5, 0.5], [0.1, 0.1]]))


def test_sampler_reads_exact_angles_as_radians_bit_for_bit():
    # the default pi_times(1/4) angles and radian pi/4 give the same runs
    for left, right, rfirst in [(INT, INT, False), (INT, WP, True), (WP, INT, False)]:
        default = circuit.build_eraser(left, right, right_acts_first=rfirst)
        radian = circuit.build_eraser(left, right, theta_left=np.pi / 4, theta_right=np.pi / 4,
                                      right_acts_first=rfirst)
        a = circuit.sample_bohmian_runs(default, 500, seed=5, stream_index=3)
        b = circuit.sample_bohmian_runs(radian, 500, seed=5, stream_index=3)
        assert np.array_equal(a.labels0, b.labels0) and np.array_equal(a.coords0, b.coords0)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert a.bs_layers == b.bs_layers
        for arm in "LR":
            assert all(np.array_equal(x, y) for x, y in zip(a.bs_labels[arm], b.bs_labels[arm]))


def test_transport_rejects_off_support_configuration():
    # (|11> + |22>)/sqrt(2) gives the label pair (1, 2) zero amplitude
    circ = circuit.build_eraser(INT, INT)
    with pytest.raises(RuntimeError, match="zero"):
        circuit.sample_bohmian_runs(circ, 0, 0, hidden=([[0, 1]], [[1 / 3, 1 / 3]]))


# ---------------------------------------------------------------------------
# monotone transport, single configurations


def _run(sample, i):
    """Run i of a sample: its outcome pair and its (left, right) path records."""
    outcome = (f"L{sample.outcomes[i, 0]}", f"R{sample.outcomes[i, 1]}")
    records = tuple(
        ((0, circuit.PATH_LABELS[sample.labels0[i, a]]),)
        + tuple((layer, circuit.PATH_LABELS[labs[i]])
                for layer, labs in zip(sample.bs_layers[arm], sample.bs_labels[arm]))
        for a, arm in enumerate("LR")
    )
    return outcome, records


def _run_one(circ, labels, coords):
    """Push one hidden configuration through the sampler."""
    return _run(circuit.sample_bohmian_runs(circ, 0, 0, hidden=([labels], [coords])), 0)


_ONE_ULP_BELOW_ONE = 0.9999999999999999


@pytest.mark.parametrize(
    "rfirst,theta,coords",
    [
        (False, Fraction(1, 4), [0.0, _ONE_ULP_BELOW_ONE]),
        (True, Fraction(1, 4), [_ONE_ULP_BELOW_ONE, 0.0]),
        (False, Fraction(1, 8), [0.1464466094067262, _ONE_ULP_BELOW_ONE]),
    ],
)
def test_transport_reads_a_coordinate_one_ulp_below_one_off_its_cell(rfirst, theta, coords):
    # the second-acting arm's coordinate sits one ulp below 1, inside the
    # enumeration cell [.., 1) whose history ends in (L2, R2); a sequential
    # float transport rounded it onto a zero-probability label and raised
    angle = exact.pi_times(theta)
    circ = circuit.build_eraser(INT, INT, theta_left=angle, theta_right=angle,
                                right_acts_first=rfirst)
    holding = [
        cell for cell in circuit.enumerate_transport(circ).cells
        if cell.labels0 == (1, 1)
        and all(float(lo) <= x < float(hi) for (lo, hi), x in zip(cell.init, coords))
    ]
    assert len(holding) == 1
    outcome, records = _run_one(circ, [1, 1], coords)
    assert outcome == ("L2", "R2") == (holding[0].outcome["L"], holding[0].outcome["R"])
    assert records == holding[0].recs


def test_transport_left_first_outcome_set_by_left_coordinate():
    circ = circuit.build_eraser(INT, INT)
    outcome, (rec_l, rec_r) = _run_one(circ, [0, 0], [0.3, 0.7])
    assert outcome == ("L2", "R2")
    assert rec_l == ((0, "1"), (1, "1"))
    assert rec_r == ((0, "1"), (3, "1"))

    outcome, (rec_l, rec_r) = _run_one(circ, [0, 0], [0.7, 0.7])
    assert outcome == ("L1", "R1")
    assert rec_l == ((0, "1"), (1, "2"))
    assert rec_r == ((0, "1"), (3, "2"))

    # the right coordinate is irrelevant here: same left coordinate, far
    # right coordinate moved
    outcome, _ = _run_one(circ, [0, 0], [0.3, 0.1])
    assert outcome == ("L2", "R2")


def test_transport_right_first_left_record_set_by_right_coordinate():
    circ = circuit.build_eraser(INT, INT, right_acts_first=True)
    out_a, (rec_a, _) = _run_one(circ, [0, 0], [0.3, 0.25])
    out_b, (rec_b, _) = _run_one(circ, [0, 0], [0.3, 0.75])
    # identical left hidden value, different left record
    assert rec_a == ((0, "1"), (3, "1"))
    assert rec_b == ((0, "1"), (3, "2"))
    assert out_a == ("L2", "R2")
    assert out_b == ("L1", "R1")


def test_transport_input_configuration_untouched():
    circ = circuit.build_eraser(INT, INT)
    labels0 = np.array([[0, 0], [1, 1]])
    coords0 = np.array([[0.3, 0.7], [0.6, 0.2]])
    sample = circuit.sample_bohmian_runs(circ, 0, 0, hidden=(labels0, coords0))
    assert np.array_equal(labels0, [[0, 0], [1, 1]])
    assert np.array_equal(coords0, [[0.3, 0.7], [0.6, 0.2]])
    assert sample.labels0 is not labels0 and sample.coords0 is not coords0


# ---------------------------------------------------------------------------
# exact enumeration


_ENUM_SETTINGS = [
    (INT, INT, False),
    (INT, INT, True),
    (INT, WP, False),
    (INT, WP, True),
    (WP, INT, False),
    (WP, WP, False),
]


@pytest.mark.parametrize("left,right,rfirst", _ENUM_SETTINGS)
def test_enumeration_matches_born_at_every_layer(left, right, rfirst):
    circ = circuit.build_eraser(left, right, right_acts_first=rfirst)
    enum = circuit.enumerate_transport(circ)
    assert len(enum.layer_distributions) == len(enum.reference_distributions)
    for (layer_a, got), (layer_b, want) in zip(
        enum.layer_distributions, enum.reference_distributions
    ):
        assert layer_a == layer_b
        for key in want:
            diff = got.get(key, 0) - want[key]
            assert diff == 0, (layer_a, key)


@pytest.mark.parametrize("left,right,rfirst", _ENUM_SETTINGS)
def test_enumeration_cells_partition_the_hidden_space(left, right, rfirst):
    circ = circuit.build_eraser(left, right, right_acts_first=rfirst)
    enum = circuit.enumerate_transport(circ)
    total = sum(
        Fraction(1, 2)
        * (c.init[0][1] - c.init[0][0])
        * (c.init[1][1] - c.init[1][0])
        for c in enum.cells
    )
    assert total == 1
    # initial rectangles with the same source labels never overlap
    by_labels = {}
    for c in enum.cells:
        by_labels.setdefault(c.labels0, []).append(c.init)
    for rects in by_labels.values():
        for ra, rb in itertools.combinations(rects, 2):
            overlap = all(
                min(ra[d][1], rb[d][1]) - max(ra[d][0], rb[d][0]) > 0
                for d in range(2)
            )
            assert not overlap, (ra, rb)


def test_enumeration_outcome_distribution_matches_copenhagen():
    for left, right, rfirst in _ENUM_SETTINGS:
        circ = circuit.build_eraser(left, right, right_acts_first=rfirst)
        enum = circuit.enumerate_transport(circ)
        born = circuit.copenhagen_joint_distribution(circ)
        for key in born:
            diff = enum.outcome_distribution.get(key, 0) - born[key]
            assert diff == 0, key


def test_enumeration_initial_label_distribution():
    enum = circuit.enumerate_transport(circuit.build_eraser(INT, INT))
    assert enum.initial_label_distribution() == {(0, 0): R(1, 2), (1, 1): R(1, 2)}


def test_enumeration_record_weights_sum_to_one():
    enum = circuit.enumerate_transport(circuit.build_eraser(INT, WP))
    assert sum(enum.record_distribution.values()) == 1


def test_left_marginal_unchanged_by_far_setting():
    # exact no-signaling at the level of enumeration weights
    base = circuit.enumerate_transport(
        circuit.build_eraser(INT, INT, right_acts_first=True))
    other = circuit.enumerate_transport(
        circuit.build_eraser(INT, WP, right_acts_first=True))
    ml, mo = base.left_marginal(), other.left_marginal()
    assert set(ml) == set(mo)
    for k in ml:
        assert ml[k] == mo[k]
        assert ml[k] == R(1, 2)


def test_record_overlap_distance_half_when_right_acts_first():
    enum_int = circuit.enumerate_transport(
        circuit.build_eraser(INT, INT, right_acts_first=True))
    enum_wp = circuit.enumerate_transport(
        circuit.build_eraser(INT, WP, right_acts_first=True))
    dist = circuit.record_overlap_distance(enum_int, enum_wp, arms=("L",))
    assert dist == R(1, 2)


def test_record_overlap_distance_zero_when_left_acts_first():
    enum_int = circuit.enumerate_transport(
        circuit.build_eraser(INT, INT, right_acts_first=False))
    enum_wp = circuit.enumerate_transport(
        circuit.build_eraser(INT, WP, right_acts_first=False))
    dist = circuit.record_overlap_distance(enum_int, enum_wp, arms=("L",))
    assert dist == 0


def test_analytics_refuse_radian_angles():
    radian = circuit.build_eraser(INT, INT, theta_right=np.pi / 4)
    for analytic in (circuit.evolved_state, circuit.copenhagen_joint_distribution,
                     circuit.enumerate_transport):
        with pytest.raises(TypeError, match="pi_times"):
            analytic(radian)
    # a which-path arm carries no beam splitter, so its angle is never read
    unread = circuit.build_eraser(WP, INT, theta_left=np.pi / 4)
    assert circuit.copenhagen_joint_distribution(unread) == circuit.copenhagen_joint_distribution(
        circuit.build_eraser(WP, INT))


# ---------------------------------------------------------------------------
# vectorized sampling


def test_sampler_deterministic_per_seed():
    circ = circuit.build_eraser(INT, INT)
    a = circuit.sample_bohmian_runs(circ, 500, seed=3, stream_index=9)
    b = circuit.sample_bohmian_runs(circ, 500, seed=3, stream_index=9)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.coords0, b.coords0)
    c = circuit.sample_bohmian_runs(circ, 500, seed=4, stream_index=9)
    assert not np.array_equal(a.coords0, c.coords0)


def test_sampler_agrees_with_exact_enumeration():
    # every sampled run must carry the outcome and records of the exact cell
    # whose initial rectangle holds its hidden value
    for left, right, rfirst in _ENUM_SETTINGS:
        cells = circuit.enumerate_transport(
            circuit.build_eraser(left, right, right_acts_first=rfirst)).cells
        circ = circuit.build_eraser(left, right, right_acts_first=rfirst)
        sample = circuit.sample_bohmian_runs(circ, 200, seed=3, stream_index=5)
        for i in range(sample.n):
            labels0 = tuple(int(v) for v in sample.labels0[i])
            coords0 = sample.coords0[i]
            holding = [
                c for c in cells
                if c.labels0 == labels0
                and all(float(lo) <= x < float(hi) for (lo, hi), x in zip(c.init, coords0))
            ]
            assert len(holding) == 1, (left, right, rfirst, labels0, coords0)
            cell = holding[0]
            assert _run(sample, i) == ((cell.outcome["L"], cell.outcome["R"]), cell.recs)


def test_sampler_frequencies_match_exact_weights():
    n = 100_000
    for left, right in [(INT, INT), (INT, WP)]:
        circ = circuit.build_eraser(left, right)
        weights = circuit.copenhagen_joint_distribution(circ)
        counts = circuit.sample_bohmian_runs(circ, n, seed=7, stream_index=0).outcome_counts()
        assert sum(counts.values()) == n
        for key, w in weights.items():
            p = float(w)
            se = max((p * (1 - p) / n) ** 0.5, 1e-9)
            assert abs(counts.get(key, 0) / n - p) < 3 * se + 1e-12, key


def test_outcome_counts_list_only_occurring_pairs():
    # (interference, interference) never fires L1 with R2 or L2 with R1
    sample = circuit.sample_bohmian_runs(circuit.build_eraser(INT, INT), 1000, seed=1)
    counts = sample.outcome_counts()
    assert set(counts) == {("L1", "R1"), ("L2", "R2")}
    assert counts == Counter(
        (f"L{a}", f"R{b}") for a, b in sample.outcomes.tolist())
    empty = circuit.sample_bohmian_runs(circuit.build_eraser(INT, WP), 0, seed=1)
    assert empty.outcome_counts() == Counter()


@pytest.mark.parametrize("n", [0, -3])
def test_chunked_sampler_refuses_fewer_than_one_run(n):
    with pytest.raises(ValueError, match=rf"n must be at least 1, got n={n}"):
        circuit.sample_eraser(circuit.build_eraser(INT, INT), n, 1, 1, 100)


def test_setting_dependence_right_first_half():
    report = inference.trajectory_setting_dependence(400, seed=11, stream_index=2,
                                                     right_acts_first=True)
    assert report.n == 400
    assert abs(report.statistic - 0.5) < 3 * (0.25 / 400) ** 0.5
    assert 0 < len(report.details["examples"]) <= 3
    for example in report.details["examples"]:
        assert example["record_left_interference"] != example["record_left_whichpath"]


def test_setting_dependence_vanishes_left_first():
    report = inference.trajectory_setting_dependence(200, seed=12, stream_index=2,
                                                     right_acts_first=False)
    assert report.statistic == 0.0
    assert report.details["examples"] == []


def test_equilibrium_configs_on_support_only():
    circ = circuit.build_eraser(INT, INT)
    sample = circuit.sample_bohmian_runs(circ, 2000, seed=13, stream_index=2)
    assert np.array_equal(sample.labels0[:, 0], sample.labels0[:, 1])
    frac = float(np.mean(sample.labels0[:, 0] == 0))
    assert abs(frac - 0.5) < 3 * (0.25 / 2000) ** 0.5
    assert np.all((sample.coords0 >= 0.0) & (sample.coords0 < 1.0))


# ---------------------------------------------------------------------------
# export


def test_export_path_records_roundtrip(tmp_path):
    circ = circuit.build_eraser(INT, INT)
    sample = circuit.sample_bohmian_runs(circ, 5, seed=2, stream_index=1)
    out = tmp_path / "records.json"
    out.write_text(json.dumps(sample.run_dicts(), indent=2, sort_keys=True))
    loaded = json.loads(out.read_text())
    assert len(loaded) == 5
    for run in loaded:
        assert set(run) == {"hidden", "settings", "record_L", "record_R", "outcome"}
        assert run["record_L"][0][0] == 0
        assert run["outcome"]["left"].startswith("L")
    assert loaded == sample.run_dicts()
    again = circuit.sample_bohmian_runs(circ, 5, seed=2, stream_index=1)
    assert json.dumps(again.run_dicts(), indent=2, sort_keys=True) == out.read_text()
