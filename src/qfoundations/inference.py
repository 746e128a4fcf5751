"""Statistical verdicts over simulated records.

Every test here reduces to comparing probability tables: local causality
(does conditioning on the far outcome move a near probability), measurement
independence (does the hidden-variable law depend on the settings),
no-signaling (do far settings move near marginals), repeatability (does an
immediate second measurement agree), branch/collapse agreement (do branch
weights match collapse frequencies), and the CHSH combination of
correlators.  A test runs in one of two modes: analytic, where the tables
are exact probabilities (`exact.Cyclotomic` scalars from the circuit's
analytic engine or exact branching), and monte-carlo, where they are
`collections.Counter` tables of run counts keyed like the analytic tables
(n is the sum of the counts).  Each mode has one verdict rule:

- analytic (`_exact_report`): "violated" exactly when the exact statistic is
  nonzero, else "satisfied";
- monte-carlo (`_interval_verdict`), over the test's family of intervals
  for quantities that are zero under the null: "violated" if any interval
  excludes zero, "satisfied" only if every interval lies inside
  +/-EQUIVALENCE_MARGIN, else "inconclusive".  Each interval is a
  closed-form bound that holds at every n (`_half_width`): the whole family
  misses its true values with probability at most ALPHA.

The KS test of `continuum_equivariance` and the CHSH bounds decide by
their own rules instead.  An analytic test refuses float probabilities,
and a test over several groups refuses a mix of analytic and monte-carlo
ones, with a TypeError.

The claims suite is `CLAIMS`, seventeen (name, expected verdict, test)
entries in output order; each test reads the one `ClaimEvidence` that
`claim_evidence` builds per run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import circuit, hilbert, pilotwave
from . import exact as ex
from .streams import (
    IDX_BRANCH,
    IDX_CONFIGS,
    IDX_ERASER_A,
    IDX_ERASER_B,
    IDX_REPEAT,
    IDX_SCENARIO,
    stream,
)

__all__ = [
    "VIOLATED",
    "SATISFIED",
    "INCONCLUSIVE",
    "ANALYTIC",
    "MONTE_CARLO",
    "ALPHA",
    "TestReport",
    "total_variation",
    "sample_outcome_pairs",
    "local_causality_test",
    "mwi_joint_distribution",
    "measurement_independence_test",
    "trajectory_setting_dependence",
    "no_signaling_test",
    "correlator",
    "correlator_table",
    "chsh_value",
    "chsh_optimize",
    "chsh_estimate",
    "CHSHResult",
    "LocalModel",
    "local_deterministic_models",
    "local_model_chsh_max",
    "repeatability_test",
    "branch_collapse_equivalence",
    "ClaimEvidence",
    "claim_evidence",
    "CLAIMS",
]

VIOLATED = "violated"
SATISFIED = "satisfied"
INCONCLUSIVE = "inconclusive"
ANALYTIC = "analytic"
MONTE_CARLO = "monte-carlo"

# the claims suite's Monte-Carlo error budget, 1e-3, split evenly over the
# eight Monte-Carlo claims in CLAIMS: all of one test's intervals hold with
# probability at least 1 - ALPHA.  Holm's step-down split would need
# p-values, and no default verdict needs its extra power.  The KS claim,
# continuum_equivariance, still decides by its own threshold
ALPHA = 1e-3 / 8
# largest q of a CHSH grid step k*pi/q that the exact recompute accepts; the
# float table has (q/2 + 1)**4 entries, so no usable grid comes near it
_MAX_STEP_DENOMINATOR = 1 << 12
# the effects these tests probe are 0.25-0.5 on the probability scale; a
# Monte-Carlo "satisfied" additionally requires the CI to rule out anything
# a tenth that size, else the verdict stays inconclusive
EQUIVALENCE_MARGIN = 0.05
# CHSH detector signs: the sum-port detector (2) reads +1, the difference
# port (1) reads -1
_SIGNS = {"1": -1, "2": 1}
_II = (circuit.INTERFERENCE, circuit.INTERFERENCE)
_IW = (circuit.INTERFERENCE, circuit.WHICHPATH)


@dataclass(frozen=True)
class TestReport:
    test: str
    statistic: float
    threshold: float
    verdict: str
    n: int
    mode: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (VIOLATED, SATISFIED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.mode not in (ANALYTIC, MONTE_CARLO):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "verdict": self.verdict,
            "n": int(self.n),
            "mode": self.mode,
            "details": _jsonable(self.details),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, ex.Cyclotomic):
        return str(value)
    return value


def _half_width(sizes: Sequence[int], events: int) -> float:
    """Half-width t of a Monte-Carlo interval, from Hoeffding (1963).

    `sizes` is (n,) for a frequency of n independent runs, or (n1, n2) for
    the difference of two frequencies from independent samples.  Either
    misses its mean by t or more in one given direction with probability at
    most exp(-2 t**2 / sum(1/n)), so t makes the union of `events` such
    one-sided misses at most ALPHA.  A family of m intervals has 2 m of
    them; a total-variation distance has one per set of records.
    """
    return math.sqrt(math.log(events / ALPHA) * sum(1.0 / n for n in sizes) / 2.0)


def _rate_interval(k: int, n: int) -> tuple[float, float]:
    """The interval, clipped to [0, 1], for the rate of an event seen in k
    of n runs."""
    half = _half_width((n,), 2)
    return max(0.0, k / n - half), min(1.0, k / n + half)


def _interval_verdict(intervals: Sequence[tuple[float, float]]) -> str:
    """The one Monte-Carlo verdict: a family of (low, high) intervals for
    quantities that the null hypothesis puts at zero.

    Any interval that excludes zero settles "violated"; "satisfied" needs
    every interval inside (-EQUIVALENCE_MARGIN, EQUIVALENCE_MARGIN), so an
    interval wide enough to hide a real effect is reported inconclusive,
    never blessed.
    """
    if any(lo > 0.0 or hi < 0.0 for lo, hi in intervals):
        return VIOLATED
    if all(max(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):
        return SATISFIED
    return INCONCLUSIVE


def _exact_report(test: str, statistic, details: dict) -> TestReport:
    """The one analytic verdict: "violated" exactly when the exact statistic,
    which the null hypothesis puts at zero, is nonzero."""
    return TestReport(
        test=test,
        statistic=abs(float(statistic)),
        threshold=0.0,
        verdict=VIOLATED if statistic != 0 else SATISFIED,
        n=0,
        mode=ANALYTIC,
        details=details,
    )


def _require_exact(tables) -> None:
    bad = [p for table in tables for p in table.values() if not isinstance(p, ex.Cyclotomic)]
    if bad:
        raise TypeError(f"analytic tables take exact.Cyclotomic probabilities, not {bad[0]!r}")


def _monte_carlo(groups: Mapping) -> bool:
    """Whether every group is a Counter of runs; False when none is."""
    counted = {isinstance(v, Counter) for v in groups.values()}
    if len(counted) > 1:
        kinds = sorted({type(v).__name__ for v in groups.values()})
        raise TypeError(f"analytic and Monte-Carlo groups were mixed: {kinds}")
    return counted.pop()


def total_variation(d1: Mapping, d2: Mapping):
    """TV distance between two discrete distributions over a shared key set;
    exact for exact tables."""
    return sum(abs(d1.get(k, 0) - d2.get(k, 0)) for k in set(d1) | set(d2)) / 2


def _draw_outcomes(joint: Mapping, n: int, seed: int, stream_index: int) -> tuple[list, np.ndarray]:
    """The table's keys in sorted order, and n draws as indices into them."""
    items = sorted(joint.items())
    keys = [k for k, _ in items]
    probs = np.array([float(p) for _, p in items])
    if not abs(probs.sum() - 1.0) < 1e-9:
        raise ValueError(f"joint probabilities sum to {probs.sum()!r}, not 1")
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = stream(seed, stream_index)
    return keys, np.searchsorted(cum, rng.random(n), side="right")


def sample_outcome_pairs(joint: Mapping, n: int, seed: int, stream_index: int = 0) -> list:
    """Draw n outcome pairs from a joint probability table, deterministically."""
    keys, draws = _draw_outcomes(joint, n, seed, stream_index)
    return [keys[i] for i in draws]


# ---------------------------------------------------------------------------
# local causality


def _event_prob(joint: Mapping, event: str):
    return sum(p for pair, p in joint.items() if event in pair)


def local_causality_test(records, a_event: str, b_event: str) -> TestReport:
    """|P(A | S, B) - P(A | S)| on records sharing one pre-measurement context.

    `records` is either an exact joint outcome-pair probability table
    (analytic mode) or a Counter of runs per outcome pair (monte-carlo
    mode), taken under one initial state and seed.  A and B are outcome
    names from opposite arms.  Conditioning on a zero-probability B is an
    error; records in which B never occurred are no evidence, so inconclusive.
    """
    if not isinstance(records, Counter):
        _require_exact([records])
        pa = _event_prob(records, a_event)
        pb = _event_prob(records, b_event)
        pab = sum(p for pair, p in records.items() if a_event in pair and b_event in pair)
        if pb == 0:
            raise ValueError(f"conditioning event {b_event!r} has probability zero")
        stat = abs(pab / pb - pa)
        details = {
            "a_event": a_event,
            "b_event": b_event,
            "p_a": float(pa),
            "p_a_given_b": float(pab / pb),
            "exact_statistic": stat,
        }
        return _exact_report("local_causality", stat, details)

    n = sum(records.values())
    na = sum(k for pair, k in records.items() if a_event in pair)
    nb = sum(k for pair, k in records.items() if b_event in pair)
    nab = sum(k for pair, k in records.items() if a_event in pair and b_event in pair)
    if nb == 0:
        details = {"a_event": a_event, "b_event": b_event, "n_b": 0, "margin": EQUIVALENCE_MARGIN}
        return TestReport("local_causality", 0.0, 0.0, INCONCLUSIVE, n, MONTE_CARLO, details)
    p_a = na / n
    p_ab = nab / nb
    diff = p_ab - p_a
    # the two frequencies share runs, so the difference's interval is the
    # union of each frequency's own: both hold with probability 1 - ALPHA
    half = _half_width((n,), 4) + _half_width((nb,), 4)
    ci = (diff - half, diff + half)
    return TestReport(
        test="local_causality",
        statistic=abs(diff),
        threshold=0.0,
        verdict=_interval_verdict([ci]),
        n=n,
        mode=MONTE_CARLO,
        details={
            "a_event": a_event,
            "b_event": b_event,
            "p_a": p_a,
            "p_a_given_b": p_ab,
            "n_b": nb,
            "ci_low": ci[0],
            "ci_high": ci[1],
            "margin": EQUIVALENCE_MARGIN,
        },
    )


def mwi_joint_distribution(circ: circuit.OpticalCircuit) -> dict:
    """Exact joint detector weights with branching in place of collapse.

    The exact evolved joint state is branched on the left arm's detector
    projectors and then, inside every branch, on the right arm's; nonzero
    leaf weights keyed by detector names.  No sampling and no collapse
    postulate are involved, so agreement with `copenhagen_joint_distribution`
    is a computed fact, not a restatement.
    """
    eye = np.eye(2, dtype=int)
    left, right = circ.settings
    observables = [
        {circuit.outcome_name(left, "L", k): np.kron(np.diag(eye[k]), eye) for k in (0, 1)},
        {circuit.outcome_name(right, "R", k): np.kron(eye, np.diag(eye[k])) for k in (0, 1)},
    ]
    dist = hilbert.branch_joint_distribution(circuit.evolved_state(circ), observables)
    return dict(sorted(dist.items()))


# ---------------------------------------------------------------------------
# measurement independence


def _mi_analytic(groups: Mapping, stage: str) -> TestReport:
    keys = list(groups)
    enums = [groups[k] for k in keys]
    if not all(isinstance(e, circuit.TransportEnumeration) for e in enums):
        raise TypeError("analytic groups must be circuit.TransportEnumeration records")

    if stage == "initial":
        dists = [e.initial_label_distribution() for e in enums]
        note = "coordinates share the uniform law on [0,1)^2 by construction"
    else:
        dists = [e.record_distribution for e in enums]
        note = "records compared before any terminal detection entry"

    stat = max(total_variation(a, b) for a, b in itertools.combinations(dists, 2))

    details: dict = {
        "settings": [str(k) for k in keys],
        "stage": stage,
        "note": note,
        "exact_statistic": stat,
    }
    if stage != "initial" and len(enums) == 2:
        # paired diagnostics: what fraction of initial configurations gets a
        # different record, overall and on the arm whose setting is shared
        details["changed_measure"] = float(circuit.record_overlap_distance(enums[0], enums[1]))
        if all(isinstance(k, tuple) and len(k) == 2 for k in keys):
            common_arms = [arm for arm, i in (("L", 0), ("R", 1)) if keys[0][i] == keys[1][i]]
        else:
            common_arms = []
        for arm in common_arms:
            paired = circuit.record_overlap_distance(enums[0], enums[1], arms=(arm,))
            armmarg = total_variation(
                _arm_record_marginal(enums[0], arm), _arm_record_marginal(enums[1], arm)
            )
            details[f"{arm}_changed_measure"] = float(paired)
            details[f"{arm}_record_tv"] = float(armmarg)
            details[f"{arm}_changed_measure_exact"] = paired
        init_tv = total_variation(
            enums[0].initial_label_distribution(), enums[1].initial_label_distribution()
        )
        details["initial_config_tv"] = float(init_tv)
        details["initial_config_tv_exact"] = init_tv

    return _exact_report("measurement_independence", stat, details)


def _arm_record_marginal(enum: circuit.TransportEnumeration, arm: str) -> dict:
    idx = "LR".index(arm)
    out: dict = {}
    for recs, w in enum.record_distribution.items():
        key = recs[idx]
        out[key] = out.get(key, 0) + w
    return out


def measurement_independence_test(groups: Mapping, stage: str = "pre_detection") -> TestReport:
    """TV distance between hidden-record laws across measurement settings.

    `groups` maps every setting key to a TransportEnumeration (analytic,
    exact) or every one to a Counter of runs per hashable hidden record
    (monte-carlo).  `stage` selects what is compared: "pre_detection" takes
    the per-run path records (initial labels plus every beam-splitter
    transit, detector readings excluded), "initial" only the t=0
    configuration law.
    """
    if len(groups) < 2:
        raise ValueError("need records under at least two settings")
    if not _monte_carlo(groups):
        return _mi_analytic(groups, stage)

    freqs = {}
    sizes = {}
    for key, counts in groups.items():
        n = sum(counts.values())
        if n == 0:
            raise ValueError(f"no records under setting {key!r}")
        freqs[key] = {k: v / n for k, v in counts.items()}
        sizes[key] = n

    pairs = list(itertools.combinations(freqs, 2))
    tvs, allowances = [], []
    for a, b in pairs:
        tvs.append(total_variation(freqs[a], freqs[b]))
        # Weissman et al. (2003): the TV distance is the largest difference
        # over the 2**K - 2 proper nonempty sets of the K records seen, so
        # the union over those sets' one-sided Hoeffding misses bounds it
        support = len(freqs[a].keys() | freqs[b].keys())
        allowances.append(_half_width((sizes[a], sizes[b]), len(pairs) * max(2, 2**support - 2)))
    return TestReport(
        test="measurement_independence",
        statistic=max(tvs),
        threshold=0.0,
        verdict=_interval_verdict([(tv - a, tv + a) for tv, a in zip(tvs, allowances)]),
        n=min(sizes.values()),
        mode=MONTE_CARLO,
        details={
            "settings": [str(k) for k in freqs],
            "stage": stage,
            "allowance": max(allowances),
            "margin": EQUIVALENCE_MARGIN,
        },
    )


def trajectory_setting_dependence(
    n: int,
    seed: int,
    stream_index: int = 0,
    right_acts_first: bool = True,
    max_examples: int = 3,
) -> TestReport:
    """Rerun fixed hidden values with the right arm toggled between settings.

    n equilibrium configurations are drawn from stream (seed, stream_index).
    The left arm stays an interference arm; for each hidden value the left
    label records under right = interference and right = whichpath are
    compared.  The statistic is the changed fraction: nonzero means the
    left-side hidden path depends on the far setting even though the
    left-side outcome statistics do not.  `details["examples"]` lists up to
    `max_examples` changed runs with both left records.
    """
    circ_int = circuit.build_eraser(*_II, right_acts_first=right_acts_first)
    circ_wp = circuit.build_eraser(*_IW, right_acts_first=right_acts_first)
    a = circuit.sample_bohmian_runs(circ_int, n, seed, stream_index)
    b = circuit.sample_bohmian_runs(circ_wp, n, seed, hidden=(a.labels0, a.coords0))
    # the left arm owns the same layer slots under both settings, so the two
    # left records differ exactly where some left beam-splitter label does
    changed = np.zeros(n, dtype=bool)
    for labs_a, labs_b in zip(a.bs_labels["L"], b.bs_labels["L"]):
        changed |= labs_a != labs_b
    rows = np.flatnonzero(changed)[:max_examples]
    examples = [
        {
            "hidden": run_a["hidden"],
            "record_left_interference": run_a["record_L"],
            "record_left_whichpath": run_b["record_L"],
        }
        for run_a, run_b in zip(a.run_dicts(rows), b.run_dicts(rows))
    ]
    k = int(changed.sum())
    lo, hi = _rate_interval(k, n)
    return TestReport(
        test="trajectory_setting_dependence",
        statistic=k / n,
        threshold=0.0,
        verdict=_interval_verdict([(lo, hi)]),
        n=n,
        mode=MONTE_CARLO,
        details={"examples": examples, "ci_low": lo, "ci_high": hi},
    )


# ---------------------------------------------------------------------------
# no-signaling


def _local_marginal(joint: Mapping, idx: int) -> dict:
    out: dict = {}
    for pair, p in joint.items():
        out[pair[idx]] = out.get(pair[idx], 0) + p
    return dict(sorted(out.items()))


def no_signaling_test(groups: Mapping, side: str = "left") -> TestReport:
    """Max shift of one side's outcome marginal across the far side's settings.

    `groups` maps every remote setting to an exact joint outcome table
    (analytic) or every one to a Counter of runs per outcome pair
    (monte-carlo).
    """
    if len(groups) < 2:
        raise ValueError("need at least two remote settings")
    idx = {"left": 0, "right": 1}[side]

    if not _monte_carlo(groups):
        _require_exact(groups.values())
        margs = {k: _local_marginal(v, idx) for k, v in groups.items()}
        stat = max(
            abs(mi.get(a, 0) - mj.get(a, 0))
            for mi, mj in itertools.combinations(margs.values(), 2)
            for a in mi.keys() | mj.keys()
        )
        details = {
            "marginals": {str(k): {a: float(p) for a, p in m.items()} for k, m in margs.items()},
            "exact_statistic": stat,
        }
        return _exact_report("no_signaling", stat, details)

    counts = {key: _local_marginal(table, idx) for key, table in groups.items()}
    sizes = {key: sum(table.values()) for key, table in groups.items()}

    shifts = [
        (counts[i].get(a, 0) / sizes[i] - counts[j].get(a, 0) / sizes[j], (sizes[i], sizes[j]))
        for i, j in itertools.combinations(counts, 2)
        for a in counts[i].keys() | counts[j].keys()
    ]
    intervals = []
    for d, ns in shifts:
        half = _half_width(ns, 2 * len(shifts))
        intervals.append((d - half, d + half))
    return TestReport(
        test="no_signaling",
        statistic=max(abs(d) for d, _ in shifts),
        threshold=0.0,
        verdict=_interval_verdict(intervals),
        n=min(sizes.values()),
        mode=MONTE_CARLO,
        details={
            "settings": [str(k) for k in counts],
            "widest_ci_edge": max(max(abs(lo), abs(hi)) for lo, hi in intervals),
            "margin": EQUIVALENCE_MARGIN,
        },
    )


# ---------------------------------------------------------------------------
# CHSH


def correlator_table(thetas_left, thetas_right) -> np.ndarray:
    """E for every (theta_L, theta_R) pair at once, shape (len(L), len(R)).

    Each entry is the Born table of the both-arms-interfering eraser, in
    float arithmetic: the source state `circuit.FLOAT_SOURCE` with one
    `circuit.beam_splitter_matrix` per arm, angles in radians.  This is the
    float correlator; `correlator` is the exact one.
    """
    psi0 = circuit.FLOAT_SOURCE
    b_left = np.array([circuit.beam_splitter_matrix(t) for t in thetas_left])
    b_right = np.array([circuit.beam_splitter_matrix(t) for t in thetas_right])
    amps = np.einsum("aij,jk,blk->abil", b_left, psi0, b_right)
    p = amps.real * amps.real + amps.imag * amps.imag
    # summed in the order of the (left, right) outcome names, for the same bits
    return ((p[..., 1, 1] - p[..., 1, 0]) - p[..., 0, 1]) + p[..., 0, 0]


def _interfering_table(theta_left, theta_right) -> dict:
    """Exact Born table of the both-arms-interfering eraser."""
    circ = circuit.build_eraser(*_II, theta_left=theta_left, theta_right=theta_right)
    return circuit.copenhagen_joint_distribution(circ)


def correlator(theta_left, theta_right):
    """Exact E(theta_L, theta_R) with +1 on the sum-port detector, -1 on the
    difference-port detector, both arms interfering.

    Takes `exact.pi_times` angles; `correlator_table` gives float values for
    radians.
    """
    dist = _interfering_table(theta_left, theta_right)
    return sum(_SIGNS[l[-1]] * _SIGNS[r[-1]] * p for (l, r), p in dist.items())


def chsh_value(settings: Sequence):
    """Exact S = E(t1,f1) + E(t1,f2) + E(t2,f1) - E(t2,f2) at `exact.pi_times`
    angles."""
    t1, t2, f1, f2 = settings
    return correlator(t1, f1) + correlator(t1, f2) + correlator(t2, f1) - correlator(t2, f2)


def _chsh_table(e: np.ndarray) -> np.ndarray:
    """S at every (t1, t2, f1, f2) index quadruple of a correlator table."""
    return (
        e[:, None, :, None]
        + e[:, None, None, :]
        + e[None, :, :, None]
        - e[None, :, None, :]
    )


@dataclass(frozen=True)
class CHSHResult:
    s_value: float
    settings: tuple[float, float, float, float]  # the grid angles, in radians
    exact_value: object
    angles: tuple  # the same settings as `exact.pi_times` angles


def _step_fraction(step: float):
    """A CHSH grid step k*pi/q as the fraction k/q, with k > 0 and q <=
    _MAX_STEP_DENOMINATOR, else a ValueError; a step within 1e-12 of zero
    reads as 0*pi, which spans no grid."""
    frac = ex.nearest_pi_fraction(step, max_denominator=_MAX_STEP_DENOMINATOR)
    if not frac:
        raise ValueError(f"grid step {step!r} is not k*pi/q for any q <= {_MAX_STEP_DENOMINATOR}")
    return frac


def chsh_optimize(step: float = np.pi / 32) -> CHSHResult:
    """Maximize S over the step-spaced angle grid on [0, pi/2], from one
    `correlator_table`, and recompute S at the winning settings in exact
    arithmetic.  `step` must be a rational multiple of pi.
    """
    frac = _step_fraction(step)
    grid = np.arange(0.0, np.pi / 2 + step / 2, step)
    s = _chsh_table(correlator_table(grid, grid))
    idx = np.unravel_index(int(np.argmax(s)), s.shape)
    angles = tuple(ex.pi_times(frac * int(k)) for k in idx)
    return CHSHResult(float(s[idx]), tuple(float(grid[k]) for k in idx), chsh_value(angles), angles)


def chsh_estimate(angles: Sequence, n: int, seed: int, stream_base: int = 0) -> tuple[float, float]:
    """Monte-Carlo S and its standard error at `exact.pi_times` settings
    (t1, t2, f1, f2): n outcome pairs per correlator, the k-th term of S
    drawn from its exact Born table on stream (seed, stream_base + k)."""
    if n < 2:
        raise ValueError("the standard error needs at least 2 trials per setting")
    t1, t2, f1, f2 = angles
    estimate = 0.0
    variance = 0.0
    for k, (tl, tr, sign) in enumerate(((t1, f1, 1), (t1, f2, 1), (t2, f1, 1), (t2, f2, -1))):
        keys, draws = _draw_outcomes(_interfering_table(tl, tr), n, seed, stream_base + k)
        signs = np.array([_SIGNS[l[-1]] * _SIGNS[r[-1]] for l, r in keys], dtype=float)
        values = signs[draws]
        estimate += sign * float(values.mean())
        variance += float(values.var(ddof=1)) / n
    return estimate, math.sqrt(variance)


@dataclass(frozen=True)
class LocalModel:
    """Deterministic local strategy: each side maps its own angle to +/-1."""

    name: str
    left: Callable[[float], int]
    right: Callable[[float], int]


def local_deterministic_models() -> tuple[LocalModel, ...]:
    models = []
    for sa in (1, -1):
        for sb in (1, -1):
            models.append(
                LocalModel(f"const({sa:+d},{sb:+d})", lambda t, s=sa: s, lambda t, s=sb: s)
            )

    def step_at(cut):
        return lambda t, c=cut: 1 if t < c else -1

    cuts = (np.pi / 8, np.pi / 4, 3 * np.pi / 8)
    for ca in cuts:
        for cb in cuts:
            models.append(
                LocalModel(f"step({ca:.3f},{cb:.3f})", step_at(ca), step_at(cb))
            )

    def cos_sign(t):
        return 1 if math.cos(2 * t) >= 0 else -1

    models.append(LocalModel("sign-cos", cos_sign, cos_sign))
    return tuple(models)


def local_model_chsh_max(model: LocalModel, step: float = np.pi / 32) -> float:
    """Largest |S| the strategy reaches anywhere on the setting grid."""
    grid = np.arange(0.0, np.pi / 2 + step / 2, step)
    a = np.array([model.left(t) for t in grid], dtype=float)
    b = np.array([model.right(t) for t in grid], dtype=float)
    return float(np.max(np.abs(_chsh_table(np.outer(a, b)))))


# ---------------------------------------------------------------------------
# repeatability


def _plus_state(exact: bool) -> hilbert.StateVector:
    """(|1> + |2>)/sqrt(2), with exact or float amplitudes."""
    space = hilbert.HilbertSpace(circuit.PATH_LABELS)
    if exact:
        return hilbert.StateVector(space, np.array([ex.SQRT2 / 2] * 2, dtype=object))
    return hilbert.superposition(space, {"1": 1.0, "2": 1.0})


def repeatability_test(
    n: int,
    state: hilbert.StateVector | None = None,
    observable: hilbert.Observable | None = None,
    collapse: bool = True,
    mode: str = MONTE_CARLO,
    seed: int = 0,
    stream_index: int = 0,
) -> TestReport:
    """Measure twice in immediate succession; statistic = fraction differing.

    With `collapse` the second measurement acts on the post-measurement
    state; without it the second outcome is drawn from the original state
    again, which is what dropping the projection postulate would predict.
    The analytic mode measures the path basis of an exact state, whose Born
    table comes from exact branching; it takes no `observable`.
    """
    if mode == MONTE_CARLO and n < 1:
        raise ValueError("need at least one trial")
    if state is None:
        state = _plus_state(exact=mode == ANALYTIC)

    if mode == ANALYTIC:
        if not state.is_exact or observable is not None:
            raise TypeError("the analytic mode takes an exact state and no observable")
        labels, eye = state.space.labels, np.eye(state.space.dim, dtype=int)
        born = hilbert.branch_joint_distribution(state, [dict(zip(labels, map(np.diag, eye)))])
        probs = {label: born.get((label,), ex.ZERO) for label in labels}
        stat = ex.ZERO if collapse else sum(p * (1 - p) for p in probs.values())
        details = {
            "collapse": collapse,
            "outcome_probabilities": {label: float(p) for label, p in probs.items()},
            "exact_statistic": stat,
        }
        return _exact_report("repeatability", stat, details)

    if observable is None:
        observable = hilbert.path_observable(state.space)

    picks = hilbert.measure_many(state, observable, stream(seed, stream_index), n, collapse=collapse)
    outcomes = observable.outcomes
    same = np.array([[a == b for b in outcomes] for a in outcomes], dtype=bool)
    differ = int(np.count_nonzero(~same[picks[:, 0], picks[:, 1]]))
    stat = differ / n
    lo, hi = _rate_interval(differ, n)
    return TestReport(
        test="repeatability",
        statistic=stat,
        threshold=0.0,
        verdict=_interval_verdict([(lo, hi)]),
        n=n,
        mode=MONTE_CARLO,
        details={
            "collapse": collapse,
            "ci_low": lo,
            "ci_high": hi,
            "differing": differ,
            "margin": EQUIVALENCE_MARGIN,
        },
    )


# ---------------------------------------------------------------------------
# branch weights vs collapse frequencies

def branch_collapse_equivalence(
    n_pairs: int = 50,
    max_dim: int = 8,
    n_samples: int = 100_000,
    seed: int = 0,
    stream_base: int = 0,
) -> TestReport:
    """Branch weights against Born values and against sampled collapse
    frequencies, over a randomized family of (state, observable) pairs.

    Each pair gets its own substream keyed (seed, stream_base + pair index).
    Observables draw eigenvalues from a small integer set so merged
    (degenerate) eigenspaces occur routinely.
    """
    max_weight_dev = 0.0
    shifts = []  # every outcome's collapse frequency minus its branch weight
    dims = []
    for i in range(n_pairs):
        rng = stream(seed, stream_base + i)
        d = 2 + int(rng.integers(0, max_dim - 1))
        dims.append(d)
        space = hilbert.HilbertSpace(tuple(str(k) for k in range(d)))
        raw = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = hilbert.StateVector(space, raw / np.linalg.norm(raw))

        basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        vals = np.sort(rng.integers(0, 4, size=d)).astype(float)
        h = (basis * vals) @ basis.conj().T
        obs = hilbert.Observable((h + h.conj().T) / 2)

        born = hilbert.born_distribution(psi, obs)
        weights = hilbert.branch(psi, obs).weights()
        for outcome, p in born.items():
            w = weights.get(outcome, 0.0)
            if w == 0.0 and p <= hilbert.PROBABILITY_FLOOR:
                continue
            max_weight_dev = max(max_weight_dev, abs(w - p))

        pvec = np.array([weights[o] for o in sorted(weights)])
        # rounding can put the weights' sum, or a lone weight, just above 1
        pvec /= pvec.sum()
        shifts.extend((rng.multinomial(n_samples, pvec) / n_samples - pvec).tolist())

    half = _half_width((n_samples,), 2 * len(shifts))
    intervals = [(d - half, d + half) for d in shifts]
    # the weights and Born values are both computed, not sampled: they may
    # differ by rounding alone
    intervals.append((max_weight_dev - 1e-12, max_weight_dev + 1e-12))
    return TestReport(
        test="branch_collapse_equivalence",
        statistic=max(map(abs, shifts)),
        threshold=0.0,
        verdict=_interval_verdict(intervals),
        n=n_samples,
        mode=MONTE_CARLO,
        details={
            "pairs": n_pairs,
            "comparisons": len(shifts),
            "half_width": half,
            "max_weight_deviation": max_weight_dev,
            "weight_tolerance": 1e-12,
            "dimensions": sorted(set(dims)),
            "margin": EQUIVALENCE_MARGIN,
        },
    )


# ---------------------------------------------------------------------------
# the claims suite


@dataclass(frozen=True)
class ClaimEvidence:
    """What the claims read, computed once per suite run."""

    seed: int
    trials: int
    tables: dict  # (left, right) setting -> exact Born table of the eraser
    counts: dict  # the same settings -> Monte-Carlo outcome counts
    transports: dict  # (left, right, right_acts_first) -> TransportEnumeration
    chsh: CHSHResult
    local_max: float  # largest |S| of any local deterministic model
    local_models: int


def claim_evidence(seed: int, trials: int, workers: int = 1) -> ClaimEvidence:
    """Exact and sampled eraser tables at both far settings, the transport
    enumeration of every setting pair and time order, and the CHSH optimum
    against the local models."""
    circuits = {pair: circuit.build_eraser(*pair) for pair in (_II, _IW)}
    counts: dict = {}
    for pair, base in ((_II, IDX_ERASER_A), (_IW, IDX_ERASER_B)):
        counts[pair] = Counter()
        for part in circuit.sample_eraser(circuits[pair], trials, seed, workers, base):
            counts[pair].update(part.outcome_counts())
    transports = {
        (left, right, first): circuit.enumerate_transport(
            circuit.build_eraser(left, right, right_acts_first=first)
        )
        for left in (circuit.INTERFERENCE, circuit.WHICHPATH)
        for right in (circuit.INTERFERENCE, circuit.WHICHPATH)
        for first in (False, True)
    }
    models = local_deterministic_models()
    return ClaimEvidence(
        seed=seed,
        trials=trials,
        tables={pair: circuit.copenhagen_joint_distribution(c) for pair, c in circuits.items()},
        counts=counts,
        transports=transports,
        chsh=chsh_optimize(),
        local_max=max(local_model_chsh_max(m) for m in models),
        local_models=len(models),
    )


def _correlation_agreement(ev: ClaimEvidence) -> TestReport:
    """Each sampled outcome frequency against its Born value."""
    counts = ev.counts[_II]
    n = sum(counts.values())
    probs = {pair: float(p) for pair, p in ev.tables[_II].items()}
    shifts = [counts.get(pair, 0) / n - p for pair, p in probs.items()]
    half = _half_width((n,), 2 * max(1, sum(0.0 < p < 1.0 for p in probs.values())))
    # a pair the Born table makes certain or impossible has no sampling
    # noise: one run that departs from it is a violation
    intervals = [
        (d - half, d + half) if 0.0 < p < 1.0 else (d, d) for d, p in zip(shifts, probs.values())
    ]
    return TestReport(
        test="eraser_correlation_agreement",
        statistic=max(map(abs, shifts)),
        threshold=0.0,
        verdict=_interval_verdict(intervals),
        n=n,
        mode=MONTE_CARLO,
        details={
            "frequencies": {f"{l},{r}": c / n for (l, r), c in sorted(counts.items())},
            "half_width": half,
            "margin": EQUIVALENCE_MARGIN,
        },
    )


def _right_first_transports(ev: ClaimEvidence) -> dict:
    return {pair: ev.transports[pair + (True,)] for pair in (_II, _IW)}


def _transport_equivariance(ev: ClaimEvidence) -> TestReport:
    """Exact layer-by-layer agreement between transport and Born weights,
    across all setting pairs and both time orderings."""
    worst = ex.ZERO
    checked = 0
    for enum in ev.transports.values():
        for (layer_a, dist), (layer_b, ref) in zip(
            enum.layer_distributions, enum.reference_distributions
        ):
            if layer_a != layer_b:
                raise RuntimeError(f"transport layer {layer_a} paired with Born layer {layer_b}")
            dev = total_variation(dist, ref)
            checked += 1
            if dev > worst:
                worst = dev
    return _exact_report(
        "transport_equivariance", worst, {"layer_tables_checked": checked, "settings": 4, "orderings": 2}
    )


def _repeatability(ev: ClaimEvidence, collapse: bool) -> TestReport:
    return repeatability_test(
        min(ev.trials, 10000),
        collapse=collapse,
        seed=ev.seed,
        stream_index=IDX_REPEAT + (0 if collapse else 1),
    )


def _chsh_local_bound(ev: ClaimEvidence) -> TestReport:
    return TestReport(
        test="chsh_local_bound",
        statistic=ev.local_max,
        threshold=2.0,
        verdict=SATISFIED if ev.local_max <= 2 else VIOLATED,
        n=0,
        mode=ANALYTIC,
        details={"models": ev.local_models},
    )


def _chsh_quantum_optimum(ev: ClaimEvidence) -> TestReport:
    s = ev.chsh.s_value
    tsirelson = 2.0 * math.sqrt(2.0)
    return TestReport(
        test="chsh_quantum_optimum",
        statistic=s,
        threshold=2.0,
        verdict=VIOLATED if ev.chsh.exact_value == 2 * ex.SQRT2 else INCONCLUSIVE,
        n=0,
        mode=ANALYTIC,
        details={
            "exact_value": str(ev.chsh.exact_value),
            "deviation_from_tsirelson": abs(s - tsirelson),
            "settings": list(ev.chsh.settings),
        },
    )


def _purity_bookkeeping(ev: ClaimEvidence) -> TestReport:
    """Unitaries keep global purity; entangling lowers a reduced state's."""
    # float arithmetic: the purity deviations reported are rounding-level
    psi = hilbert.StateVector(circuit.joint_space(), circuit.FLOAT_SOURCE.ravel())
    rho = hilbert.DensityMatrix.from_state(psi)
    global_before = hilbert.purity(rho)
    # the both-arms-interfering eraser's beam splitters, left arm first
    b = circuit.beam_splitter_matrix(np.pi / 4)
    evolved = rho
    for arm in "LR":
        evolved = hilbert.evolve(evolved, circuit._joint_unitary(b, arm))
    global_after = hilbert.purity(evolved)
    global_dev = abs(global_after - global_before)

    reduced = hilbert.purity(hilbert.partial_trace(rho, keep=[0]))
    reduced_dev = abs(reduced - 0.5)

    space = circuit.path_space()
    product = hilbert.tensor(
        hilbert.superposition(space, {"1": 1.0, "2": 1.0}), hilbert.basis_state(space, "1")
    )
    before = hilbert.purity(hilbert.partial_trace(hilbert.DensityMatrix.from_state(product), [0]))
    entangled = hilbert.evolve(product, hilbert.cnot_unitary())
    after = hilbert.purity(hilbert.partial_trace(hilbert.DensityMatrix.from_state(entangled), [0]))

    ok = global_dev <= 1e-12 and reduced_dev <= 1e-12 and after < before - 1e-9
    return TestReport(
        test="purity_bookkeeping",
        statistic=reduced_dev,
        threshold=1e-12,
        verdict=SATISFIED if ok else VIOLATED,
        n=0,
        mode=ANALYTIC,
        details={
            "global_purity_change": global_dev,
            "reduced_purity": reduced,
            "product_purity_before_entangler": before,
            "product_purity_after_entangler": after,
        },
    )


def _continuum_equivariance(ev: ClaimEvidence) -> TestReport:
    """KS test of a free Gaussian packet's trajectories against |psi|^2."""
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 256))
    profile = pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    psi0 = pilotwave.init_wavefunction(grid, profile)
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())
    positions = pilotwave.sample_equilibrium(psi0, 2000, stream(ev.seed, IDX_SCENARIO + 1))
    run = pilotwave.integrate_trajectories(psi0, params, positions, dt=0.002, steps=500, save_every=500)
    report = pilotwave.check_equivariance(run)
    verdict = {"pass": SATISFIED, "fail": VIOLATED, "invalid": INCONCLUSIVE}[report.verdict]
    return TestReport(
        test="continuum_equivariance",
        statistic=float(report.statistic),
        threshold=float(report.threshold),
        verdict=verdict,
        n=report.n,
        mode=MONTE_CARLO,
        details={"n_absorbed": report.n_absorbed, "final_time": float(run.times[-1])},
    )


# (claim name, expected verdict, test of a ClaimEvidence), in output order
CLAIMS: tuple[tuple[str, str, Callable[[ClaimEvidence], TestReport]], ...] = (
    ("local_causality_eraser_analytic", VIOLATED,
     lambda ev: local_causality_test(ev.tables[_II], "R1", "L1")),
    ("local_causality_eraser_monte_carlo", VIOLATED,
     lambda ev: local_causality_test(ev.counts[_II], "R1", "L1")),
    ("local_causality_mwi_records", VIOLATED,
     lambda ev: local_causality_test(mwi_joint_distribution(circuit.build_eraser(*_II)),
                                     "R1", "L1")),
    ("no_signaling_eraser_analytic", SATISFIED, lambda ev: no_signaling_test(ev.tables)),
    ("no_signaling_eraser_monte_carlo", SATISFIED, lambda ev: no_signaling_test(ev.counts)),
    ("eraser_correlation_agreement", SATISFIED, _correlation_agreement),
    ("measurement_independence_pre_detection", VIOLATED,
     lambda ev: measurement_independence_test(_right_first_transports(ev))),
    ("measurement_independence_initial", SATISFIED,
     lambda ev: measurement_independence_test(_right_first_transports(ev), stage="initial")),
    ("trajectory_setting_dependence", VIOLATED,
     lambda ev: trajectory_setting_dependence(200, ev.seed, IDX_CONFIGS, right_acts_first=True)),
    ("transport_equivariance", SATISFIED, _transport_equivariance),
    ("repeatability_with_collapse", SATISFIED, lambda ev: _repeatability(ev, collapse=True)),
    ("repeatability_without_collapse", VIOLATED, lambda ev: _repeatability(ev, collapse=False)),
    ("branch_collapse_equivalence", SATISFIED,
     lambda ev: branch_collapse_equivalence(seed=ev.seed, stream_base=IDX_BRANCH)),
    ("chsh_local_bound", SATISFIED, _chsh_local_bound),
    ("chsh_quantum_optimum", VIOLATED, _chsh_quantum_optimum),
    ("purity_bookkeeping", SATISFIED, _purity_bookkeeping),
    ("continuum_equivariance", SATISFIED, _continuum_equivariance),
)
