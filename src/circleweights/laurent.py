"""Exact Laurent polynomial arithmetic in one variable t.

Coefficients are integers, and a ``Fraction`` appears only after a division
by a polynomial whose leading coefficient is not +-1 (or when a caller puts
one in); integral ``Fraction`` inputs are stored as ``int``.  Exponents are
arbitrary (possibly negative) integers.  Every factor the index battery
builds is 1 - t^w or a product of such, with leading coefficient +-1, so its
divisions stay in Z[t, 1/t].  Division is exact: dividing by a polynomial
that does not divide the numerator in Q[t, 1/t] raises :class:`NotLaurent`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

Coeff = Union[int, Fraction]


class NotLaurent(ArithmeticError):
    """An expression expected to be a Laurent polynomial is not one."""


def _coeff(c) -> Coeff:
    """c as an int when it is integral, otherwise as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _make(coeffs: Dict[int, Coeff]) -> "LaurentPolynomial":
    """A polynomial from a dict of int exponents and int/Fraction values,
    dropping zeros and storing integral Fractions as ints."""
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.coeffs = {e: c if type(c) is int else _coeff(c) for e, c in coeffs.items() if c}
    return p


def _wrap(coeffs: Dict[int, Coeff]) -> "LaurentPolynomial":
    """A polynomial taking ``coeffs`` as it is: nonzero and normalized."""
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.coeffs = coeffs
    return p


class LaurentPolynomial:
    """Sparse Laurent polynomial sum c_e t^e with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Coeff] = None):
        self.coeffs: Dict[int, Coeff] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coeff(c)
                if c != 0:
                    self.coeffs[int(e)] = c

    @classmethod
    def term(cls, coeff, exp: int = 0) -> "LaurentPolynomial":
        return cls({int(exp): coeff})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return _wrap({0: 1})

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return _wrap({})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.term(other, 0)
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other, 0)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return _make(out)

    def __neg__(self) -> "LaurentPolynomial":
        return _wrap({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other, 0)
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other, 0)
        out: Dict[int, Coeff] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _make(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPolynomial":
        """Multiply by t^e."""
        return _wrap({k + e: c for k, c in self.coeffs.items()})

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def eval_one(self) -> Fraction:
        """Value at t = 1 (sum of coefficients)."""
        return Fraction(sum(self.coeffs.values()))

    def divexact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / other in Q[t, 1/t]; raises NotLaurent if the
        division leaves a remainder.  Integer arithmetic throughout when the
        leading coefficient of ``other`` is +-1."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero()
        # both as ordinary polynomials with nonzero constant term; long
        # division by descending degree on a dense remainder
        nmin, dmin = self.min_exp(), other.min_exp()
        top = self.max_exp() - nmin
        rem = [0] * (top + 1)
        for e, c in self.coeffs.items():
            rem[e - nmin] = c
        dmax = other.max_exp() - dmin
        dlead = other.coeffs[dmax + dmin]
        tail = [(e - dmin, c) for e, c in other.coeffs.items() if e - dmin != dmax]
        unit = dlead == 1 or dlead == -1
        quot: Dict[int, Coeff] = {}
        shift_back = nmin - dmin
        for k in range(top, dmax - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c * dlead if unit else _coeff(Fraction(c) / dlead)
            e = k - dmax
            quot[e + shift_back] = q
            for de, dc in tail:
                rem[de + e] -= q * dc
        if any(rem[:dmax]):
            raise NotLaurent("nonzero remainder in exact division")
        return _make(quot)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("%s*t" % c)
            else:
                parts.append("%s*t^%d" % (c, e))
        return " + ".join(parts)


def one_minus_t(exp: int) -> LaurentPolynomial:
    """The factor 1 - t^exp (exp must be nonzero)."""
    if exp == 0:
        raise ValueError("1 - t^0 is identically zero")
    return _wrap({0: 1, int(exp): -1})
