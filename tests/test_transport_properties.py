"""Property tests: the sampler's cell lookup against the float kernel it
replaced (`kernel_oracle.kernel_runs`), for every setting/order pair, at
exact angles and in radians.

Away from the float cell bounds the two must agree run by run.  Within an
ulp or so of a bound they may differ, since neither rounds its bounds
correctly; there the lookup must still never raise for a configuration of
positive probability, and must land in one of the cells next to the bound.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from kernel_oracle import ANGLES, PAIRS, kernel_runs

from qfoundations import circuit

_CASES = [(pair, theta) for pair in PAIRS for theta in ANGLES]
_FAR = 1e-12
_LIVE_PAIRS = st.sampled_from([(0, 0), (1, 1)])
_COORDS = st.floats(0.0, 1.0, exclude_max=True)


def _circuit(case):
    (left, right, rfirst), theta = case
    return circuit.build_eraser(left, right, theta_left=theta, theta_right=theta,
                                right_acts_first=rfirst)


def _step(x, ulps):
    """x moved by `ulps` representable doubles, up for ulps > 0."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


def _box(edges, x):
    return int(np.searchsorted(edges, x, side="right")) - 1


def _history(outcomes, bs_labels, i):
    """Run or cell i: its outcome pair and each arm's beam-splitter labels."""
    return (
        tuple(int(o) for o in outcomes[i]),
        tuple(tuple(int(labs[i]) for labs in bs_labels[arm]) for arm in "LR"),
    )


@settings(deadline=None)
@given(
    st.sampled_from(_CASES),
    st.lists(st.tuples(_LIVE_PAIRS, _COORDS, _COORDS), min_size=1, max_size=32),
)
def test_lookup_matches_kernel_away_from_cell_bounds(case, configs):
    circ = _circuit(case)
    edges = circuit._cell_table(circ).edges
    far = [
        (lab, (x, y)) for lab, x, y in configs
        if all(np.min(np.abs(e - v)) > _FAR for e, v in zip(edges, (x, y)))
    ]
    assume(far)
    labels0 = np.array([lab for lab, _ in far])
    coords0 = np.array([xy for _, xy in far])
    sample = circuit.sample_bohmian_runs(circ, 0, 0, hidden=(labels0, coords0))
    bs_labels, outcomes = kernel_runs(circ, labels0, coords0)
    assert np.array_equal(sample.outcomes, outcomes)
    for arm in "LR":
        assert len(sample.bs_labels[arm]) == len(bs_labels[arm])
        for ours, theirs in zip(sample.bs_labels[arm], bs_labels[arm]):
            assert np.array_equal(ours, theirs)


@settings(deadline=None)
@given(
    st.sampled_from(_CASES), _LIVE_PAIRS, st.sampled_from([0, 1]), st.integers(0, 10**6),
    st.integers(-4, 4), _COORDS,
)
def test_configuration_near_a_cell_bound_lands_next_to_it(case, lab, axis, which, ulps, other):
    circ = _circuit(case)
    table = circuit._cell_table(circ)
    edges = table.edges[axis]
    bound = edges[which % edges.size]
    x = _step(bound, ulps)
    assume(0.0 <= x < 1.0)
    coords = [x, other] if axis == 0 else [other, x]
    sample = circuit.sample_bohmian_runs(circ, 0, 0, hidden=([lab], [coords]))

    # the cells of the grid boxes that the window of 4 ulps either side of
    # the bound touches, on the other coordinate's row: normally the two
    # cells that share the bound
    lo = _box(edges, max(_step(bound, -4), 0.0))
    hi = _box(edges, min(_step(bound, 4), np.nextafter(1.0, 0.0)))
    row = _box(table.edges[1 - axis], other)
    boxes = table.grid[lab][lo:hi + 1, row] if axis == 0 else table.grid[lab][row, lo:hi + 1]
    assert np.all(boxes >= 0)
    neighbours = {_history(table.outcomes, table.bs_labels, c) for c in boxes.tolist()}
    assert _history(sample.outcomes, sample.bs_labels, 0) in neighbours


@given(st.sampled_from(_CASES), st.sampled_from([(0, 1), (1, 0)]), _COORDS, _COORDS)
def test_zero_probability_label_pair_raises(case, lab, x, y):
    with pytest.raises(RuntimeError, match="zero"):
        circuit.sample_bohmian_runs(_circuit(case), 0, 0, hidden=([lab], [[x, y]]))
