"""The sympy side of the exact-arithmetic oracle tests.

The package computes exactly in cyclotomic fields without sympy; the tests
rebuild the same numbers with sympy and compare.  `to_sympy` writes an
`exact.Cyclotomic` as the sympy sum of c_k * exp(2 pi i k / M), and
`agrees` compares it with a sympy expression to 80 significant digits.
Sympy never sees a `Cyclotomic` directly: it would take it in through
`float()` and compare a rounded value.
"""

from fractions import Fraction

import sympy as sp

from qfoundations import exact

DIGITS = 80


def to_sympy(x):
    """The sympy number equal to an exact scalar or an exact rational."""
    if not isinstance(x, exact.Cyclotomic):
        x = exact.Cyclotomic.rational(x)
    return sp.Add(
        *(
            sp.Rational(c.numerator, c.denominator) * sp.exp(2 * sp.pi * sp.I * k / x.order)
            for k, c in x.coeffs.items()
        )
    )


def agrees(x, expr) -> bool:
    """x and the sympy expression, each evaluated to DIGITS digits, differ by
    less than 1e-70."""
    diff = sp.N(to_sympy(x), DIGITS) - sp.N(sp.sympify(expr), DIGITS)
    return bool(abs(diff) < sp.Float(10, DIGITS) ** -70)


def sympy_angle(multiple: Fraction):
    """The sympy angle multiple * pi."""
    return sp.pi * sp.Rational(multiple.numerator, multiple.denominator)
