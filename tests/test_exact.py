"""Exact scalar tests: the cyclotomic field type against the sympy oracle.

Every exact correlator on the 17 x 17 pi/32 CHSH grid is compared with
sympy's cos(2(theta_L - theta_R)), the law test_inference derives from raw
sympy matrices, and so are cases with a pi/3 arm, which need a field other
than Q(zeta_64).  The field laws run as hypothesis properties over random
elements of several cyclotomic fields.  The sign test must refuse rather
than guess, and printing must match sympy's strings for rationals and
rational multiples of sqrt(2).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy_oracle import agrees, sympy_angle

from qfoundations import circuit, exact, inference

C = exact.Cyclotomic

# ---------------------------------------------------------------------------
# correlators against the oracle


def _oracle_correlator(tl: Fraction, tr: Fraction):
    return sp.cos(2 * (sympy_angle(tl) - sympy_angle(tr)))


def test_every_pi_over_32_grid_correlator_matches_sympy_oracle():
    grid = [Fraction(k, 32) for k in range(17)]
    table = inference.correlator_table([float(exact.pi_times(t)) for t in grid],
                                       [float(exact.pi_times(t)) for t in grid])
    for i, tl in enumerate(grid):
        for j, tr in enumerate(grid):
            e = inference.correlator(exact.pi_times(tl), exact.pi_times(tr))
            assert agrees(e, _oracle_correlator(tl, tr)), (tl, tr)
            # the exact law inside the field, and the float table beside it
            assert e == exact.pi_times(2 * (tl - tr)).cos()
            assert abs(float(e) - table[i, j]) < 1e-15


@pytest.mark.parametrize("tr", [Fraction(0), Fraction(1, 8), Fraction(1, 32), Fraction(1, 3)])
def test_pi_over_3_correlators_match_sympy_oracle(tr):
    tl = Fraction(1, 3)
    e = inference.correlator(exact.pi_times(tl), exact.pi_times(tr))
    assert agrees(e, _oracle_correlator(tl, tr))
    assert e == exact.pi_times(2 * (tl - tr)).cos()


def test_chsh_at_the_grid_optimum_is_two_sqrt_two():
    settings_ = [exact.pi_times(Fraction(k, 32)) for k in (6, 14, 10, 2)]
    s = inference.chsh_value(settings_)
    assert s == 2 * exact.SQRT2
    assert str(s) == "2*sqrt(2)"
    assert agrees(s, 2 * sp.sqrt(2))


# ---------------------------------------------------------------------------
# field laws

_ORDERS = (1, 3, 4, 5, 7, 8, 12, 16, 24, 64)
_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def elements(draw):
    m = draw(st.sampled_from(_ORDERS))
    terms = draw(st.lists(st.tuples(_fractions, st.integers(0, m - 1)), max_size=4))
    return sum((c * C.root_of_unity(m, e) for c, e in terms), exact.ZERO)


@settings(deadline=None)
@given(elements())
def test_inverse_is_two_sided(x):
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x * x.inverse() == 1
    assert x.inverse() * x == 1
    assert x / x == 1
    assert (x * x).inverse() == x.inverse() * x.inverse()


@given(elements(), elements())
def test_conjugation_is_an_involutive_field_automorphism(x, y):
    assert x.conjugate().conjugate() == x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert complex(x.conjugate()) == pytest.approx(complex(x).conjugate(), abs=1e-12)


@given(elements())
def test_norm_form_is_real_and_positive(x):
    n = x * x.conjugate()
    assert n.is_real()
    assert n.sign() == (1 if x != 0 else 0)
    assert float(n) == pytest.approx(abs(complex(x)) ** 2, abs=1e-9)


@settings(deadline=None)
@given(elements(), elements(), elements())
def test_ring_laws_across_fields(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == 0
    assert complex(x * y) == pytest.approx(complex(x) * complex(y), abs=1e-9)


def test_equality_does_not_depend_on_the_field():
    # cos(pi/4) from Q(zeta_8) and 2 cos^2(pi/8) - 1 from Q(zeta_16)
    eighth = exact.pi_times(Fraction(1, 8)).cos()
    assert 2 * eighth * eighth - 1 == exact.pi_times(Fraction(1, 4)).cos()
    assert exact.pi_times(Fraction(1, 3)).cos() == Fraction(1, 2)
    assert exact.pi_times(Fraction(1, 2)).sin() == 1
    assert exact.pi_times(Fraction(1, 6)).sin() == exact.pi_times(Fraction(1, 3)).cos()


# ---------------------------------------------------------------------------
# sign decisions


def test_undecidable_sign_raises_a_typed_error():
    # sqrt(2) minus the double nearest to it: nonzero, but below the bound
    tiny = exact.SQRT2 - Fraction(math.sqrt(2))
    assert tiny != 0
    with pytest.raises(exact.UndecidableSignError):
        tiny.sign()
    with pytest.raises(exact.UndecidableSignError):
        _ = exact.SQRT2 < Fraction(math.sqrt(2))
    # one part in 1e8 is far above the bound
    assert (exact.SQRT2 - Fraction(141421356, 10**8)).sign() == 1
    assert exact.SQRT2 > Fraction(7, 5) and -exact.SQRT2 < -1
    assert abs(-exact.SQRT2) == exact.SQRT2


def test_non_strict_comparisons_agree_with_lt_and_eq():
    c = exact.pi_times(Fraction(1, 8)).cos()
    rationals = [exact.ZERO + q for q in (Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(9, 10))]
    for x in [*rationals, c, -c, c * c]:
        for y in [0, 1, Fraction(1, 2), Fraction(9, 10), *rationals, c]:
            assert (x <= y) == (x < y or x == y)
            assert (x >= y) == (not x < y)
            # the reflected forms: y <= x calls x.__ge__ for a Fraction or int y
            assert (y <= x) == (x >= y)
            assert (y >= x) == (x <= y)
    assert c <= c and c >= c and c >= 0 and not c <= Fraction(1, 2)
    i = exact.pi_times(Fraction(1, 2)).exp_i()
    for compare in (i.__le__, i.__ge__):
        with pytest.raises(TypeError):
            compare(0)
    with pytest.raises(TypeError):
        _ = 0 <= i


def test_non_real_elements_have_no_sign_or_float():
    i = exact.pi_times(Fraction(1, 2)).exp_i()
    with pytest.raises(TypeError):
        i.sign()
    with pytest.raises(TypeError):
        float(i)
    assert complex(i) == pytest.approx(1j, abs=1e-15)


# ---------------------------------------------------------------------------
# printing and conversion


def test_str_matches_sympy_for_rationals_and_sqrt2_multiples():
    values = sorted({Fraction(p, q) for q in (1, 2, 3, 4, 8) for p in range(-9, 10)})
    for a in values:
        for b in values:
            x = a + b * exact.SQRT2
            want = sp.Rational(a.numerator, a.denominator) + sp.Rational(
                b.numerator, b.denominator
            ) * sp.sqrt(2)
            assert str(x) == str(want), (a, b)
    # the same number built in Q(zeta_64) prints the same
    assert str(exact.pi_times(Fraction(8, 32)).sin() * 4) == "2*sqrt(2)"
    for s in ("0", "1", "1/2", "1/4"):
        assert str(C.rational(Fraction(s))) == s


def test_other_elements_print_as_exact_sympy_expressions():
    for x in (
        exact.pi_times(Fraction(1, 8)).cos(),
        exact.pi_times(Fraction(1, 3)).sin() + Fraction(1, 3),
        exact.pi_times(Fraction(2, 7)).exp_i(),
    ):
        assert agrees(x, sp.sympify(str(x)))


def test_float_is_correctly_rounded_on_rationals_and_close_elsewhere():
    assert float(C.rational(Fraction(1, 3))) == 1 / 3
    for k in range(-40, 41):
        angle = exact.pi_times(Fraction(k, 24))
        assert float(angle.cos()) == pytest.approx(math.cos(k * math.pi / 24), abs=1e-15)
        assert float(angle.sin()) == pytest.approx(math.sin(k * math.pi / 24), abs=1e-15)


# ---------------------------------------------------------------------------
# angles


def test_angles_are_pi_fractions_never_radians():
    assert float(exact.pi_times(Fraction(1, 4))) == np.pi / 4
    with pytest.raises(TypeError):
        exact.pi_times(0.25)
    # a circuit may hold radians for the sampler, but the analytics refuse them
    radian = circuit.build_eraser(circuit.INTERFERENCE, circuit.INTERFERENCE, theta_left=0.5)
    with pytest.raises(TypeError, match="pi_times"):
        circuit.copenhagen_joint_distribution(radian)


def test_nearest_pi_fraction():
    assert exact.nearest_pi_fraction(math.pi / 8, 64) == Fraction(1, 8)
    assert exact.nearest_pi_fraction(3 * math.pi / 8 + 5e-13, 64) == Fraction(3, 8)
    assert exact.nearest_pi_fraction(math.pi / 8 + 1e-9, 64) is None
    assert exact.nearest_pi_fraction(0.3, 64) is None
    assert exact.nearest_pi_fraction(0.0, 64) == 0
    assert exact.nearest_pi_fraction(math.pi / 65, 64) is None
    assert exact.nearest_pi_fraction(math.pi / 65, 65) == Fraction(1, 65)
