"""The outcomes.csv and trajectories.csv coordinates: `cli._shortest_digits`
and `cli._fixed_parts` against `float.__repr__`, and `cli._outcome_rows` and
`cli._trajectory_rows` against rows written with `repr` alone, including
the values the kernel leaves to `repr` and at the writers' chunk edges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import circuit, cli, pilotwave
from repr_oracle import spelled

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


# ---------------------------------------------------------------------------
# signed values over every accepted decade, and trajectories.csv


_SIGNED_LOW, _SIGNED_HIGH = (int(b) for b in np.array([1e-4, 1e15]).view(np.int64))
_SIGNS = st.sampled_from([1.0, -1.0])
# one accepted decade [10^j, 10^(j+1)) at a time, so each is drawn as often
_DECADE_VALUES = st.builds(
    lambda j, m, s: s * min(m * float(f"1e{j}"), float(np.nextafter(float(f"1e{j + 1}"), 0.0))),
    st.integers(-4, 14), st.floats(1.0, 10.0, exclude_max=True), _SIGNS,
)
_SIGNED_BIT_PATTERNS = st.builds(
    lambda bits, s: s * float(np.int64(bits).view(np.float64)),
    st.integers(_SIGNED_LOW, _SIGNED_HIGH - 1), _SIGNS,
)
_ANY_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
# the doubles just below each power of ten from 1e-4 to 1e16, both signs
_BELOW_POWERS = [s * float(np.nextafter(float(f"1e{j}"), 0.0)) for j in range(-4, 17) for s in (1, -1)]
_POSITIONS = [0.0, -0.0, 5e-05, -5e-05, 1e-4, -1e-4, 1.0, 10.0, -23.999999999999996, _TIE, -_TIE]


def _fixed_mismatches(values):
    """Values where the kernel's digits break its contract, or where the
    pieces of `_fixed_parts` do not join to `repr`."""
    x = np.asarray(values, dtype=np.float64)
    digits, zeros, ok = cli._shortest_digits(x)
    wrong = [
        (v, "digits", d, z)
        for v, d, z, good in zip(x.tolist(), digits.tolist(), zeros.tolist(), ok.tolist())
        if good and spelled(v, d, z) != repr(v)
    ]
    for v, *pieces in zip(x.tolist(), *cli._fixed_parts(x)):
        if "".join(map(str, pieces)) != repr(v):
            wrong.append((v, "pieces", pieces))
    return wrong


@settings(max_examples=300)
@given(st.lists(_DECADE_VALUES, min_size=1, max_size=64))
def test_fixed_parts_equal_repr_on_signed_values_in_every_decade(values):
    assert _fixed_mismatches(values) == []


@settings(max_examples=300)
@given(st.lists(_SIGNED_BIT_PATTERNS, min_size=1, max_size=64))
def test_fixed_parts_equal_repr_on_signed_bit_patterns(values):
    assert _fixed_mismatches(values) == []


@settings(max_examples=200)
@given(st.lists(_ANY_BIT_PATTERNS, min_size=1, max_size=64))
def test_fixed_parts_equal_repr_on_any_bit_pattern(values):
    # NaN, infinities, subnormals and huge values all fall back to repr
    with np.errstate(all="raise"):
        assert _fixed_mismatches(values) == []


@given(_DECADE_VALUES, st.integers(1, 15))
def test_fixed_parts_equal_repr_on_signed_short_decimals(value, places):
    assert _fixed_mismatches([float(f"{value:.{places}g}")]) == []


def test_fixed_parts_below_powers_of_ten_and_at_hand_set_positions():
    assert _fixed_mismatches(_BELOW_POWERS + _POSITIONS + _SPECIAL) == []
    _, _, ok = cli._shortest_digits(np.array(_POSITIONS))
    # zeros, values below 1e-4, the power of two 1.0 and the tie go to repr
    assert ok.tolist() == [False] * 4 + [True] * 2 + [False, True, True, False, False]
    # below 1e15: ties at 17 and at 16 digits, then an exact 16-digit value
    top = [1e15, -1e15, 999999999999999.875, 999999999999999.75, 999999999999999.5, -999999999999999.5, 2.0**52]
    _, _, ok = cli._shortest_digits(np.array(top))
    assert ok.tolist() == [False, False, False, False, True, True, False]
    assert _fixed_mismatches(top) == []


def _repr_trajectory_rows(run):
    ndim = run.grid.ndim
    rows = ["trajectory_id,time," + ",".join(f"q{d + 1}" for d in range(ndim)) + "\n"]
    for i in range(run.n_trajectories):
        for t, q in zip(run.times.tolist(), run.positions[:, i].tolist()):
            rows.append(f"{i},{t!r}," + ",".join(map(repr, q)) + "\n")
    return "".join(rows)


@pytest.mark.parametrize("ndim", [1, 2])
def test_trajectory_rows_equal_repr_rows_on_a_run_with_absorbed_trajectories(ndim):
    axes = [(-4.0, 4.0, 64), (-5.0, 5.0, 64)][:ndim]
    grid = pilotwave.GridSpec.make(*axes)
    profile = pilotwave.GaussianProfile(center=(0.3,) * ndim, width=(0.5,) * ndim, momentum=(2.0,) * ndim)
    psi = pilotwave.init_wavefunction(grid, profile)
    params = pilotwave.PhysicsParams(masses=(1.0, 2.0)[:ndim], potential=pilotwave.free())
    # the last rows start beyond the absorbing margin, on both sides
    positions = np.random.default_rng(ndim).uniform(-4.0, 4.0, (300, ndim))
    positions[-2:] = [[-3.9] * ndim, [3.95] * ndim]
    run = pilotwave.integrate_trajectories(psi, params, positions, 0.002, 30, save_every=3)
    assert run.n_absorbed >= 2
    assert "".join(cli._trajectory_rows(run)) == _repr_trajectory_rows(run)


@pytest.mark.parametrize("ndim", [1, 2])
def test_trajectory_rows_equal_repr_rows_with_fallback_values_at_chunk_edges(ndim):
    steps = 7
    per_chunk = _CHUNK // steps
    n = 2 * per_chunk + 1
    values = np.array(_BELOW_POWERS + _POSITIONS + _SPECIAL + [-s for s in _SPECIAL])
    rng = np.random.default_rng(ndim)
    positions = rng.uniform(-30.0, 30.0, (steps, n, ndim))
    # every special value, in trajectories at and around each chunk edge
    for i, tid in enumerate([0, per_chunk - 1, per_chunk, per_chunk + 1, n - 1]):
        flat = positions[:, tid].reshape(-1)
        flat[:] = np.roll(values, 3 * i)[: flat.size]
    grid = pilotwave.GridSpec.make(*[(-32.0, 32.0, 64)] * ndim)
    run = pilotwave.TrajectoryRun(
        grid=grid, dt=0.1, saved_steps=np.arange(steps), times=0.1 * np.arange(steps),
        positions=positions, absorbed_at=np.full(n, -1), wavefunctions=(),
    )
    assert "".join(cli._trajectory_rows(run)) == _repr_trajectory_rows(run)
