"""Batched Born draws against the scalar reference.

`hilbert.measure` stays the reference: `measure_many` must give the same
outcome indices as calling it run after run on the same stream, and
`repeatability_test` the same differing count as the loop it replaced.
States are random, sometimes with zero amplitudes; observables draw
eigenvalues from a small integer set, so degenerate outcomes are common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import hilbert, inference
from qfoundations.streams import stream


@st.composite
def state_and_observable(draw):
    d = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    # zero amplitudes make some outcomes impossible on basis observables
    raw[: draw(st.integers(0, d - 1))] = 0.0
    space = hilbert.HilbertSpace(tuple(str(k) for k in range(d)))
    psi = hilbert.StateVector(space, raw / np.linalg.norm(raw))
    if draw(st.booleans()):
        basis = np.eye(d)
    else:
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    vals = np.sort(rng.integers(0, 3, size=d)).astype(float)
    h = (basis * vals) @ basis.conj().T
    return psi, hilbert.Observable((h + h.conj().T) / 2)


def _scalar_runs(state, obs, seed, n, collapse):
    """Reference: two successive `measure` calls per run."""
    rng = stream(seed, 3)
    rows = []
    for _ in range(n):
        first, post = hilbert.measure(state, obs, rng)
        second, _ = hilbert.measure(post if collapse else state, obs, rng)
        rows.append([obs.outcome_index(first), obs.outcome_index(second)])
    return rows


def _outcome(fn):
    try:
        return fn()
    except hilbert.ImpossibleOutcomeError:
        return "impossible"


@settings(max_examples=80, deadline=None)
@given(
    state_and_observable(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 40),
    st.booleans(),
)
def test_measure_many_equals_successive_measure_calls(pair, seed, n, collapse):
    state, obs = pair
    want = _outcome(lambda: _scalar_runs(state, obs, seed, n, collapse))
    got = _outcome(
        lambda: hilbert.measure_many(state, obs, stream(seed, 3), n, collapse).tolist()
    )
    assert got == want


@settings(max_examples=40, deadline=None)
@given(state_and_observable(), st.integers(0, 2**32 - 1), st.integers(1, 60), st.booleans())
def test_repeatability_counts_the_same_differing_runs(pair, seed, n, collapse):
    state, obs = pair
    want = _outcome(lambda: _scalar_runs(state, obs, seed, n, collapse))
    got = _outcome(
        lambda: inference.repeatability_test(
            n, state=state, observable=obs, collapse=collapse, seed=seed, stream_index=3
        ).details["differing"]
    )
    if want == "impossible":
        assert got == "impossible"
    else:
        assert got == sum(first != second for first, second in want)


def test_measure_many_returns_an_empty_table_for_no_runs():
    state = hilbert.superposition(hilbert.HilbertSpace(("1", "2")), {"1": 1.0, "2": 1.0})
    obs = hilbert.path_observable(state.space)
    assert hilbert.measure_many(state, obs, stream(0, 0), 0).shape == (0, 2)
