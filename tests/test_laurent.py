from fractions import Fraction as F
from functools import cache
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from circleweights.laurent import LaurentPolynomial, NotLaurent, one_minus_t


@cache
def cyclotomic(d: int) -> LaurentPolynomial:
    """The cyclotomic polynomial Phi_d (d >= 1), from t^d - 1 = prod_{e | d}
    Phi_e; the oracle for the lcm that the index battery builds from
    binomials.  Memoized on d: callers must not mutate the result."""
    if d < 1:
        raise ValueError("Phi_d needs d >= 1, got %d" % d)
    smaller = prod((cyclotomic(e) for e in range(1, d) if d % e == 0),
                   start=LaurentPolynomial.one())
    return LaurentPolynomial({0: -1, d: 1}).divexact(smaller)


def test_basic_arithmetic():
    p = LaurentPolynomial({0: 1, 1: 2})  # 1 + 2t
    q = LaurentPolynomial({-1: 1})       # t^-1
    assert (p * q).coeffs == {-1: 1, 0: 2}
    assert (p + p).coeffs == {0: 2, 1: 4}
    assert (p - p).coeffs == {}
    assert (p * p).coeffs == {0: 1, 1: 4, 2: 4}


def test_eval_one():
    p = LaurentPolynomial({-2: 3, 0: -1, 5: 7})
    assert p.eval_one() == 9 and type(p.eval_one()) is int


def test_divexact():
    # (1 - t^2) / (1 - t) = 1 + t
    num = one_minus_t(2)
    den = one_minus_t(1)
    assert num.divexact(den).coeffs == {0: 1, 1: 1}


def test_divexact_negative_exponents():
    # (1 - t^-2) / (1 - t^-1) = 1 + t^-1
    num = one_minus_t(-2)
    den = one_minus_t(-1)
    assert num.divexact(den).coeffs == {0: 1, -1: 1}


def test_divexact_remainder_raises():
    with pytest.raises(NotLaurent):
        LaurentPolynomial({0: 1, 2: 1}).divexact(one_minus_t(1))


def test_one_minus_t_zero_exponent_rejected():
    with pytest.raises(ValueError):
        one_minus_t(0)


def unit_led(coeffs, lead, top):
    """The polynomial ``coeffs`` below t^5, plus lead * t^(5 + top): a
    divisor with leading coefficient ``lead``."""
    return LaurentPolynomial({**{e: c for e, c in coeffs.items() if e < 5}, 5 + top: lead})


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.sampled_from([1, -1]), st.integers(0, 6),
)
def test_divexact_inverts_multiplication(acoeffs, bcoeffs, lead, top):
    a = LaurentPolynomial(acoeffs)
    b = unit_led(bcoeffs, lead, top)
    prod = a * b
    assert prod.divexact(b).coeffs == a.coeffs


def test_shift():
    p = LaurentPolynomial({0: 1, 2: 1})
    assert p.shift(-3).coeffs == {-3: 1, -1: 1}


# ---------------------------------------------------------------------------
# Differential oracle: a dense, Fraction-only reference implementation
# ---------------------------------------------------------------------------

def dense(coeffs):
    """(lowest exponent, Fraction coefficients upward); (0, []) for zero."""
    items = {e: F(c) for e, c in coeffs.items() if c}
    if not items:
        return (0, [])
    lo, hi = min(items), max(items)
    return (lo, [items.get(e, F(0)) for e in range(lo, hi + 1)])


def sparse(poly):
    lo, cs = poly
    return {lo + i: c for i, c in enumerate(cs) if c}


def ref_add(a, b):
    if not a[1]:
        return b
    if not b[1]:
        return a
    lo = min(a[0], b[0])
    cs = [F(0)] * (max(a[0] + len(a[1]), b[0] + len(b[1])) - lo)
    for start, xs in (a, b):
        for i, c in enumerate(xs):
            cs[start - lo + i] += c
    return (lo, cs)


def ref_mul(a, b):
    if not a[1] or not b[1]:
        return (0, [])
    cs = [F(0)] * (len(a[1]) + len(b[1]) - 1)
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            cs[i + j] += x * y
    return (a[0] + b[0], cs)


def ref_div(a, b):
    """Quotient a / b, or None when the long division leaves a remainder."""
    if not a[1]:
        return (0, [])
    rem, n = list(a[1]), len(b[1]) - 1
    if len(rem) <= n:
        return None
    quot = [F(0)] * (len(rem) - n)
    for k in range(len(rem) - 1, n - 1, -1):
        q = quot[k - n] = rem[k] / b[1][-1]
        for j, y in enumerate(b[1]):
            rem[k - n + j] -= q * y
    return None if any(rem) else (a[0] - b[0], quot)


int_coeffs = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5)


@given(int_coeffs, int_coeffs)
def test_add_mul_match_reference(acoeffs, bcoeffs):
    a, b = LaurentPolynomial(acoeffs), LaurentPolynomial(bcoeffs)
    assert (a + b).coeffs == sparse(ref_add(dense(acoeffs), dense(bcoeffs)))
    assert (a * b).coeffs == sparse(ref_mul(dense(acoeffs), dense(bcoeffs)))
    assert (a - b).coeffs == sparse(ref_add(dense(acoeffs), dense({e: -c for e, c in bcoeffs.items()})))


@given(int_coeffs, int_coeffs, st.sampled_from([1, -1]), st.integers(0, 6), st.booleans())
def test_divexact_matches_reference(acoeffs, bcoeffs, lead, top, exact):
    """Random quotients (mostly with a remainder) and products divided back,
    by divisors with leading coefficient +-1."""
    b = unit_led(bcoeffs, lead, top)
    num = LaurentPolynomial(acoeffs) * b if exact else LaurentPolynomial(acoeffs)
    expect = ref_div(dense(num.coeffs), dense(b.coeffs))
    if exact:
        assert expect is not None
    if expect is None:
        with pytest.raises(NotLaurent):
            num.divexact(b)
    else:
        assert num.divexact(b).coeffs == sparse(expect)


@given(int_coeffs, int_coeffs, st.sampled_from([1, -1]), st.integers(0, 6))
def test_integer_inputs_give_int_coefficients(acoeffs, bcoeffs, lead, top):
    """Integer data and a divisor with leading coefficient +-1 never leave Z."""
    b = unit_led(bcoeffs, lead, top)
    a = LaurentPolynomial(acoeffs)
    for p in (a + b, a - b, a * b, (a * b).divexact(b), -a, a.shift(3)):
        assert all(type(c) is int for c in p.coeffs.values())
    assert (a * b).divexact(b) == a


def test_non_integer_coefficients_and_divisors_are_refused():
    for c in (F(1, 2), F(2), 0.5):
        with pytest.raises(TypeError):
            LaurentPolynomial({0: c})
        with pytest.raises(TypeError):
            LaurentPolynomial.term(c, 3)
    # 2t - 1 and 3t^-1 have leading coefficients 2 and 3
    for divisor in (LaurentPolynomial({0: -1, 1: 2}), LaurentPolynomial({-1: 3})):
        with pytest.raises(ValueError, match="leading coefficient"):
            LaurentPolynomial({0: 2, 1: 3, 2: 1}).divexact(divisor)
    # 2 - t leads with -1: (2 - t)(1 + t) / (2 - t) = 1 + t
    two_minus_t = LaurentPolynomial({0: 2, 1: -1})
    assert (two_minus_t * LaurentPolynomial({0: 1, 1: 1})).divexact(two_minus_t) == \
        LaurentPolynomial({0: 1, 1: 1})


@pytest.mark.parametrize("m", range(1, 61))
def test_cyclotomic_factors_t_to_the_m_minus_one(m):
    # prod_{d | m} Phi_d = t^m - 1; deg Phi_m = phi(m); Phi_m is monic in Z[t]
    phi_m = cyclotomic(m)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    assert prod((cyclotomic(d) for d in divisors), start=LaurentPolynomial.one()) \
        == LaurentPolynomial({m: 1, 0: -1})
    assert phi_m.max_exp() == sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
    assert phi_m.min_exp() == 0 and phi_m.coeffs[phi_m.max_exp()] == 1
    assert all(type(c) is int for c in phi_m.coeffs.values())


def test_cyclotomic_refuses_d_below_one():
    with pytest.raises(ValueError):
        cyclotomic(0)
