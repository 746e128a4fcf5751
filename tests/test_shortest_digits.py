"""The outcomes.csv coordinates: `cli._shortest_digits` against `float.__repr__`,
and `cli._outcome_rows` against rows written with `repr` alone, including
the values the kernel leaves to `repr` and at the writer's chunk edges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import circuit, cli

_LOW_BITS, _HIGH_BITS = (int(b) for b in np.array([1e-4, 1.0]).view(np.int64))
_IN_RANGE = st.floats(1e-4, 1.0, exclude_max=True)
_BIT_PATTERNS = st.integers(_LOW_BITS, _HIGH_BITS - 1).map(
    lambda bits: float(np.int64(bits).view(np.float64))
)
# values the kernel leaves to repr: below 1e-4, powers of two, ties between
# two 16- or two 17-digit decimals that both read back (repr takes the even
# one); and its edges: 1e-4 itself, the doubles just below 1e-3, 0.01, 0.1
# and 1, short and exact decimals
_TIE = 65537 / 2**17  # 0.50000762939453125 exactly
_TIE_17 = 26215 / 2**18  # 0.100002288818359375 exactly
_BELOW_DECADES = [float(np.nextafter(b, 0.0)) for b in (1e-3, 1e-2, 1e-1, 1.0)]
_SPECIAL = [0.0, 5e-05, 1e-4, 0.5, 2**-7, _TIE, _TIE_17, *_BELOW_DECADES, 0.123, 0.1, 0.001, 13109 / 2**17]
_CHUNK = cli._CSV_CHUNK_ROWS


def _repr_mismatches(values):
    x = np.asarray(values, dtype=np.float64)
    digits, zeros, ok = cli._shortest_digits(x)
    return [
        (v, d, z)
        for v, d, z, good in zip(x.tolist(), digits.tolist(), zeros.tolist(), ok.tolist())
        if good and "0." + "0" * z + str(d) != float.__repr__(v)
    ]


@settings(max_examples=300)
@given(st.lists(_IN_RANGE, min_size=1, max_size=64))
def test_shortest_digits_equal_repr_on_floats_in_range(values):
    assert _repr_mismatches(values) == []


@settings(max_examples=300)
@given(st.lists(_BIT_PATTERNS, min_size=1, max_size=64))
def test_shortest_digits_equal_repr_on_bit_patterns_in_range(values):
    assert _repr_mismatches(values) == []


@given(st.floats(1e-4, 1.0, exclude_max=True), st.integers(1, 15))
def test_shortest_digits_equal_repr_on_short_decimals(value, places):
    short = float(f"{value:.{places}g}")
    if 1e-4 <= short < 1.0:
        assert _repr_mismatches([short]) == []


def test_shortest_digits_leave_only_the_named_cases_to_repr():
    x = np.random.default_rng(24).random(100_000)
    _, zeros, ok = cli._shortest_digits(x)
    assert np.array_equal(~ok, x < 1e-4)
    assert np.array_equal(zeros[ok], 4 - np.searchsorted([1e-4, 1e-3, 1e-2, 1e-1], x[ok], side="right"))
    named = [0.0, 5e-05, 0.5, 2**-7, _TIE, _TIE_17, 0.1, 1e-4, *_BELOW_DECADES]
    _, _, ok = cli._shortest_digits(np.array(named))
    assert ok.tolist() == [False] * 6 + [True] * 6
    assert repr(_TIE) == "0.5000076293945312" and repr(_TIE_17) == "0.10000228881835938"
    assert _repr_mismatches(_SPECIAL) == []


def _repr_rows(sample):
    return "".join(
        f"{i},{la + 1},{lb + 1},{a!r},{b!r},L{oa},R{ob}\n"
        for i, ((la, lb), (a, b), (oa, ob)) in enumerate(
            zip(sample.labels0.tolist(), sample.coords0.tolist(), sample.outcomes.tolist())
        )
    )


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_outcome_rows_equal_repr_rows_with_fallback_values_at_chunk_edges(n):
    rng = np.random.default_rng(n)
    coords = rng.random((n, 2))
    # the special values on both arms, in rows at the start, the end and
    # around each chunk edge
    at = [0, 1, n - 2, n - 1] + [r for r in (_CHUNK - 1, _CHUNK, 2 * _CHUNK) if r < n]
    for k, row in enumerate(at):
        coords[row] = _SPECIAL[k % len(_SPECIAL)], _SPECIAL[-1 - k % len(_SPECIAL)]
    # a run of every special value in the middle rows, left and right
    mid = n // 2
    coords[mid : mid + len(_SPECIAL), 0] = _SPECIAL
    coords[mid : mid + len(_SPECIAL), 1] = _SPECIAL[::-1]
    labels = np.repeat(rng.integers(0, 2, n)[:, None], 2, axis=1)  # (1, 1) or (2, 2)
    circ = circuit.build_eraser(circuit.INTERFERENCE, circuit.WHICHPATH)
    sample = circuit.sample_bohmian_runs(circ, n, 0, hidden=(labels, coords))
    assert "".join(cli._outcome_rows(sample, 0)) == _repr_rows(sample)
