"""Exact Laurent polynomial arithmetic in one variable t over the integers.

Coefficients are ints and exponents are arbitrary (possibly negative)
integers.  Every divisor the index battery builds is a product of
cyclotomic polynomials Phi_d, each monic, so its
leading coefficient is +-1 and division stays in Z[t, 1/t]: dividing by a
polynomial whose leading coefficient is not +-1 raises ValueError, and
dividing by one that does not divide the numerator raises
:class:`NotLaurent`.
"""

from __future__ import annotations

from operator import index
from typing import Dict


class NotLaurent(ArithmeticError):
    """An expression expected to be a Laurent polynomial is not one."""


def _make(coeffs: Dict[int, int]) -> "LaurentPolynomial":
    """A polynomial from a dict of int exponents and int values, dropping
    zeros; the one internal constructor."""
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.coeffs = {e: c for e, c in coeffs.items() if c}
    return p


class LaurentPolynomial:
    """Sparse Laurent polynomial sum c_e t^e with int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, int] = None):
        """Exponents and coefficients must be ints (``operator.index``): a
        Fraction or a float raises TypeError."""
        self.coeffs: Dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = index(c)
                if c:
                    self.coeffs[index(e)] = c

    @classmethod
    def term(cls, coeff, exp: int = 0) -> "LaurentPolynomial":
        return cls({exp: coeff})

    @classmethod
    def from_dense(cls, low: int, coeffs) -> "LaurentPolynomial":
        """sum_k coeffs[k] t^(low + k), from a sequence of ints."""
        return _make({low + k: c for k, c in enumerate(coeffs)})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return _make({0: 1})

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return _make({})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return _make(out)

    def __neg__(self) -> "LaurentPolynomial":
        return _make({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out: Dict[int, int] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _make(out)

    def shift(self, e: int) -> "LaurentPolynomial":
        """Multiply by t^e."""
        return _make({k + e: c for k, c in self.coeffs.items()})

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def eval_one(self) -> int:
        """Value at t = 1 (sum of coefficients)."""
        return sum(self.coeffs.values())

    def divexact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / other in Z[t, 1/t].  The leading coefficient
        of ``other`` must be +-1 (ValueError otherwise); raises NotLaurent if
        the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dmin = other.min_exp()
        dmax = other.max_exp() - dmin
        dlead = other.coeffs[dmax + dmin]
        if dlead != 1 and dlead != -1:
            raise ValueError("divisor %s has leading coefficient %d, not +-1" % (other, dlead))
        if self.is_zero():
            return LaurentPolynomial.zero()
        # both as ordinary polynomials with nonzero constant term; long
        # division by descending degree on a dense remainder
        nmin = self.min_exp()
        top = self.max_exp() - nmin
        rem = [0] * (top + 1)
        for e, c in self.coeffs.items():
            rem[e - nmin] = c
        tail = [(e - dmin, c) for e, c in other.coeffs.items() if e - dmin != dmax]
        quot: Dict[int, int] = {}
        shift_back = nmin - dmin
        for k in range(top, dmax - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c * dlead
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
    """The factor 1 - t^exp (exp must be a nonzero int)."""
    exp = index(exp)
    if exp == 0:
        raise ValueError("1 - t^0 is identically zero")
    return _make({0: 1, exp: -1})

