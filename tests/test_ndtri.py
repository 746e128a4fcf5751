"""The in-house standard-normal quantile against scipy, bit for bit.

`inference._ndtri` is a port of the Cephes routine that
`scipy.special.ndtri` ships; scipy is a test-only oracle here, as sympy is
for `exact`.  The checks compare IEEE bit patterns and call numpy.testing
and pytest.raises rather than bare asserts, so they still run under
`python -O`.
"""

import math

import numpy as np
import pytest

from qfoundations.inference import _EXPM2, _ndtri

special = pytest.importorskip("scipy.special")


def _assert_bitwise(ps):
    ps = np.asarray(ps, dtype=np.float64)
    ours = np.array([_ndtri(p) for p in ps.tolist()])
    np.testing.assert_array_equal(ours.view(np.int64), special.ndtri(ps).view(np.int64))


def test_bonferroni_quantiles_match_scipy():
    # branch_collapse_equivalence asks for 1 - 0.01/(2c) over c comparisons
    _assert_bitwise([1.0 - 0.01 / (2.0 * c) for c in range(1, 10_001)])


def test_random_quantiles_match_scipy_on_every_branch():
    rng = np.random.default_rng(19)
    n = 25_000
    # y = min(p, 1 - p) picks the branch: central above exp(-2), then the
    # two tail fits split at exp(-32)
    central = rng.uniform(_EXPM2, 1.0 - _EXPM2, n)
    near = np.exp(-rng.uniform(2.0, 32.0, n))
    far = np.exp(-rng.uniform(32.0, 700.0, n))
    # the upper tail only reaches y near 2**-53 before 1 - y rounds to 1
    far_upper = 1.0 - np.exp(-rng.uniform(32.0, 36.0, n))
    ps = np.concatenate([central, near, 1.0 - near, far, far_upper[far_upper < 1.0]])
    y = np.minimum(ps, 1.0 - ps)
    np.testing.assert_array_less(100_000 - 1, len(ps))
    for lo, hi in ((_EXPM2, 0.5), (math.exp(-32.0), _EXPM2), (0.0, math.exp(-32.0))):
        inside = (y > lo) & (y <= hi)
        np.testing.assert_array_less(0, [np.count_nonzero(inside & (ps < 0.5)),
                                          np.count_nonzero(inside & (ps > 0.5))])
    _assert_bitwise(ps)


def test_endpoints_are_infinite():
    np.testing.assert_equal([_ndtri(0.0), _ndtri(1.0)], [-math.inf, math.inf])


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5, -math.inf, math.inf, -1e-300])
def test_outside_unit_interval_raises(p):
    with pytest.raises(ValueError, match="ndtri needs 0 <= p <= 1"):
        _ndtri(p)
