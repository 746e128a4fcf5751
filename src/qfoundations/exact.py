"""Exact scalars: elements of the cyclotomic fields Q(zeta_M).

Every exact number in this package is built from cos and sin of rational
multiples of pi and from 1/sqrt(2), so each one lies in a cyclotomic field
Q(zeta_M), zeta_M = exp(2 pi i / M).  A `Cyclotomic` stores rational
coefficients on the power basis 1, zeta, ..., zeta^(phi(M) - 1), that is,
reduced modulo the cyclotomic polynomial Phi_M; elements of two fields meet
in Q(zeta_lcm).  The representation is unique, so equality and zero tests
compare coefficients and are decisions, not heuristics.  The sign of a real
element comes from a float evaluation with an error bound proportional to
sum |c_k| * eps; when the bound cannot settle it, `UndecidableSignError` is
raised rather than a guess.

Angles enter only through `pi_times`, which makes an exact rational multiple
of pi, so radians and pi-multiples never mix.

Reference: L. C. Washington, Introduction to Cyclotomic Fields (1997).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "UndecidableSignError",
    "Cyclotomic",
    "Angle",
    "pi_times",
    "nearest_pi_fraction",
    "ZERO",
    "ONE",
    "SQRT2",
]

# error of a float evaluation per unit of sum |c_k|, in units of eps: each
# coefficient, each cos/sin and each cos/sin argument rounds well inside it
_EVAL_ULPS = 16
# how far a float angle may lie from the pi-fraction it stands for
_PI_FRACTION_TOL = 1e-12


class UndecidableSignError(ArithmeticError):
    """A real element is too close to zero for its float bound to give a sign."""


# ---------------------------------------------------------------------------
# the fields: Phi_m, powers of zeta_m on the power basis, traces


@lru_cache(maxsize=None)
def _cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first."""
    # x^m - 1 is the product of Phi_d over the divisors d of m
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _cyclotomic_poly(d)
            deg = len(den) - 1
            quot = [0] * (len(num) - deg)
            for i in range(len(num) - 1, deg - 1, -1):
                c = num[i]
                if c:
                    quot[i - deg] = c
                    for j, b in enumerate(den):
                        num[i - deg + j] -= c * b
            num = quot
    return tuple(num)


def _degree(m: int) -> int:
    return len(_cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _powers(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_m^e on the power basis for e = 0 .. m-1, each as (index, int) pairs."""
    phi = _cyclotomic_poly(m)
    vec = [1] + [0] * (_degree(m) - 1)
    out = []
    for _ in range(m):
        out.append(tuple((k, c) for k, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            vec = [v - top * p for v, p in zip(vec, phi)]
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_points(m: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of 2 pi k / m for the basis indices k."""
    return tuple(
        (math.cos(2.0 * math.pi * k / m), math.sin(2.0 * math.pi * k / m)) for k in range(_degree(m))
    )


def _mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _mean_trace_of_power(m: int, k: int) -> Fraction:
    """Trace of zeta_m^k down to Q over the field degree: the Ramanujan sum
    c_m(k) = mu(r) phi(m) / phi(r), r = m / gcd(k, m), divided by phi(m)."""
    r = m // math.gcd(k, m)
    return Fraction(_mobius(r), _degree(r))


# ---------------------------------------------------------------------------
# printing, in sympy's forms for rationals and rational multiples of sqrt(2)


def _scaled(coef: Fraction, atom: str) -> str:
    sign = "-" if coef < 0 else ""
    coef = abs(coef)
    num = atom if coef.numerator == 1 else f"{coef.numerator}*{atom}"
    return sign + (num if coef.denominator == 1 else f"{num}/{coef.denominator}")


def _joined(terms: list[str]) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _below_sqrt2_multiple(a: Fraction, b: Fraction) -> bool:
    """a < b*sqrt(2), decided exactly."""
    if b >= 0:
        return a < 0 or a * a < 2 * b * b
    return a < 0 and a * a > 2 * b * b


def _sqrt2_form(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a)
    root = _scaled(b, "sqrt(2)")
    if a == 0:
        return root
    # sympy lists the smaller term first, except that a positive rational
    # always leads a negative multiple of sqrt(2)
    if (a > 0 and b < 0) or _below_sqrt2_multiple(a, b):
        return _joined([str(a), root])
    return _joined([root, str(a)])


def _pi_fraction_str(frac: Fraction) -> str:
    num = "pi" if frac.numerator == 1 else f"{frac.numerator}*pi"
    return num if frac.denominator == 1 else f"{num}/{frac.denominator}"


# ---------------------------------------------------------------------------
# the scalar


def _as_fraction(value) -> Fraction:
    return Fraction(value.numerator, value.denominator)


class Cyclotomic:
    """An element of Q(zeta_order) as {basis index: nonzero Fraction}.

    Build elements with `rational`, `root_of_unity`, the module constants or
    `Angle.cos`/`Angle.sin`; they mix with ints and other exact rationals
    (any `numbers.Rational`).  Rationals live in Q(zeta_1) whatever field
    produced them.
    """

    __slots__ = ("order", "coeffs")
    __hash__ = None

    def __init__(self, order: int, coeffs: dict):
        self.order = order if any(coeffs.keys() - {0}) else 1
        self.coeffs = coeffs

    @classmethod
    def rational(cls, value) -> "Cyclotomic":
        value = _as_fraction(value)
        return cls(1, {0: value} if value else {})

    @classmethod
    def root_of_unity(cls, m: int, e: int = 1) -> "Cyclotomic":
        """zeta_m ** e."""
        return cls(m, {k: Fraction(c) for k, c in _powers(m)[e % m]})

    # -- structure -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def _lifted(self, m: int) -> dict:
        """Coefficients in Q(zeta_m), for a multiple m of self.order."""
        if self.order == m or self.is_rational:
            return self.coeffs
        step = m // self.order
        table = _powers(m)
        out: dict = {}
        for k, c in self.coeffs.items():
            for j, v in table[k * step]:
                out[j] = out.get(j, 0) + c * v
        return {j: c for j, c in out.items() if c}

    def _common(self, other: "Cyclotomic") -> tuple[int, dict, dict]:
        if self.order == other.order or other.is_rational:
            return self.order, self.coeffs, other.coeffs
        if self.is_rational:
            return other.order, self.coeffs, other.coeffs
        m = math.lcm(self.order, other.order)
        return m, self._lifted(m), other._lifted(m)

    def conjugate(self) -> "Cyclotomic":
        if self.is_rational:
            return self
        m = self.order
        table = _powers(m)
        out: dict = {}
        for k, c in self.coeffs.items():
            for j, v in table[-k % m]:
                out[j] = out.get(j, 0) + c * v
        return Cyclotomic(m, {j: c for j, c in out.items() if c})

    def is_real(self) -> bool:
        return self.is_rational or self == self.conjugate()

    def _mean_trace(self) -> Fraction:
        """Mean of the Galois conjugates, the same in every field holding self."""
        m = self.order
        return sum((c * _mean_trace_of_power(m, k) for k, c in self.coeffs.items()), Fraction(0))

    def _sqrt2_parts(self) -> tuple[Fraction, Fraction] | None:
        """Rationals (a, b) with self == a + b*sqrt(2), or None if there are none."""
        if self.is_rational:
            return self.coeffs.get(0, Fraction(0)), Fraction(0)
        if self.order % 8:
            return None  # sqrt(2) lies in Q(zeta_m) only when 8 divides m
        # the trace kills sqrt(2), so it reads a off self and b off self*sqrt(2)
        a = self._mean_trace()
        b = (self * SQRT2)._mean_trace() / 2
        return (a, b) if self == a + b * SQRT2 else None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        m, a, b = self._common(other)
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Cyclotomic(m, out)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scale(self, r: Fraction) -> "Cyclotomic":
        if not r:
            return ZERO
        return Cyclotomic(self.order, {k: c * r for k, c in self.coeffs.items()})

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational:
            return self._scale(other.coeffs.get(0, 0))
        if self.is_rational:
            return other._scale(self.coeffs.get(0, 0))
        m, a, b = self._common(other)
        table = _powers(m)
        acc: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                xy = x * y
                for k, v in table[(i + j) % m]:
                    acc[k] = acc.get(k, 0) + (xy if v == 1 else xy * v)
        return Cyclotomic(m, {k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/self, by the extended Euclidean algorithm against Phi_order."""
        if not self.coeffs:
            raise ZeroDivisionError("division by an exact zero")
        if self.is_rational:
            return Cyclotomic.rational(1 / self.coeffs[0])
        m = self.order
        r0 = [Fraction(c) for c in _cyclotomic_poly(m)]
        r1 = [self.coeffs.get(k, Fraction(0)) for k in range(max(self.coeffs) + 1)]
        s0, s1 = [], [Fraction(1)]
        # invariant: s_i * self == r_i (mod Phi_m); Phi_m is irreducible, so
        # the remainders end in a nonzero constant
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[0]
        return Cyclotomic(m, {k: v / c for k, v in enumerate(s1) if v})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        return not (self - other).coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _estimate(self) -> tuple[float, float, float]:
        """(real part, imaginary part, error bound) in float arithmetic."""
        points = _unit_points(self.order)
        cs = [(float(c), points[k]) for k, c in self.coeffs.items()]
        re = math.fsum(c * p[0] for c, p in cs)
        im = math.fsum(c * p[1] for c, p in cs)
        bound = _EVAL_ULPS * sys.float_info.epsilon * math.fsum(abs(c) for c, _ in cs)
        return re, im, bound

    def sign(self) -> int:
        """-1, 0 or 1 for a real element.

        Raises TypeError for a non-real element and UndecidableSignError when
        the float evaluation cannot separate a nonzero element from zero.
        """
        if not self.coeffs:
            return 0
        if self.is_rational:
            return 1 if self.coeffs[0] > 0 else -1
        if not self.is_real():
            raise TypeError(f"{self} is not real, so it has no sign")
        value, _, bound = self._estimate()
        if abs(value) <= bound:
            raise UndecidableSignError(f"|{value!r}| is within the float error bound {bound!r}")
        return 1 if value > 0 else -1

    def _compare(self, other):
        other = _coerce(other)
        return None if other is None else (self - other).sign()

    def __lt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s < 0

    def __gt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s > 0

    def __le__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s <= 0

    def __ge__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversion ----------------------------------------------------------

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.coeffs.get(0, 0))
        if not self.is_real():
            raise TypeError(f"cannot convert the non-real {self} to float")
        return self._estimate()[0]

    def __complex__(self) -> complex:
        if self.is_rational:
            return complex(float(self))
        re, im, _ = self._estimate()
        return complex(re, im)

    def __str__(self) -> str:
        parts = self._sqrt2_parts()
        if parts is not None:
            return _sqrt2_form(*parts)
        m = self.order
        terms = [str(self.coeffs[0])] if 0 in self.coeffs else []
        if self.is_real():
            # a real element equals the real part of its expansion, to which
            # zeta^(m/4) = i adds nothing
            for k in sorted(self.coeffs.keys() - {0, m / 4}):
                angle = _pi_fraction_str(Fraction(2 * k, m))
                terms.append(_scaled(self.coeffs[k], f"cos({angle})"))
        else:
            for k in sorted(self.coeffs.keys() - {0}):
                angle = _pi_fraction_str(Fraction(2 * k, m)).replace("pi", "I*pi", 1)
                terms.append(_scaled(self.coeffs[k], f"exp({angle})"))
        return _joined(terms)

    def __repr__(self) -> str:
        return f"Cyclotomic({str(self)!r})"


def _coerce(value) -> Cyclotomic | None:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, numbers.Rational):
        return Cyclotomic.rational(value)
    return None


# dense polynomials over Q, constant term first, no trailing zeros


def _trimmed(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trimmed([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trimmed(out)


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    rem = list(a)
    deg = len(b) - 1
    quot = [Fraction(0)] * max(len(a) - deg, 1)
    lead = b[-1]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            c = c / lead
            quot[i - deg] = c
            for j, y in enumerate(b):
                rem[i - deg + j] -= c * y
    return _trimmed(quot), _trimmed(rem[:deg])


ZERO = Cyclotomic(1, {})
ONE = Cyclotomic.rational(1)
SQRT2 = Cyclotomic.root_of_unity(8, 1) + Cyclotomic.root_of_unity(8, 7)
_I = Cyclotomic.root_of_unity(4, 1)


# ---------------------------------------------------------------------------
# angles


@dataclass(frozen=True)
class Angle:
    """The exact angle `multiple` * pi; make one with `pi_times`."""

    multiple: Fraction

    def __float__(self) -> float:
        return math.pi * self.multiple.numerator / self.multiple.denominator

    def exp_i(self) -> Cyclotomic:
        """exp(i * angle) = zeta_(2q) ** p for the angle p*pi/q."""
        return Cyclotomic.root_of_unity(2 * self.multiple.denominator, self.multiple.numerator)

    def cos(self) -> Cyclotomic:
        z = self.exp_i()
        return (z + z.conjugate()) * Fraction(1, 2)

    def sin(self) -> Cyclotomic:
        z = self.exp_i()
        return (z - z.conjugate()) * _I * Fraction(-1, 2)


def pi_times(multiple) -> Angle:
    """The exact angle multiple * pi, for an int or Fraction `multiple`."""
    if not isinstance(multiple, numbers.Rational):
        raise TypeError(
            f"an exact angle is a rational multiple of pi, got {type(multiple).__name__}"
        )
    return Angle(_as_fraction(multiple))


def nearest_pi_fraction(radians: float, max_denominator: int) -> Fraction | None:
    """The p/q with q <= max_denominator and |p*pi/q - radians| <= 1e-12, or None.

    Two such fractions lie at least pi/max_denominator**2 apart, more than
    2e-12 while max_denominator <= 2**20, so then at most one qualifies and
    it is the closest one.
    """
    frac = Fraction(radians / math.pi).limit_denominator(max_denominator)
    return frac if abs(float(pi_times(frac)) - radians) <= _PI_FRACTION_TOL else None
