from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from circleweights.laurent import LaurentPolynomial, NotLaurent, one_minus_t


def test_basic_arithmetic():
    p = LaurentPolynomial({0: F(1), 1: F(2)})  # 1 + 2t
    q = LaurentPolynomial({-1: F(1)})          # t^-1
    assert (p * q).coeffs == {-1: F(1), 0: F(2)}
    assert (p + p).coeffs == {0: F(2), 1: F(4)}
    assert (p - p).coeffs == {}
    assert (p * p).coeffs == {0: F(1), 1: F(4), 2: F(4)}


def test_eval_one():
    p = LaurentPolynomial({-2: F(3), 0: F(-1), 5: F(1, 2)})
    assert p.eval_one() == F(3) - 1 + F(1, 2)


def test_divexact():
    # (1 - t^2) / (1 - t) = 1 + t
    num = one_minus_t(2)
    den = one_minus_t(1)
    assert num.divexact(den).coeffs == {0: F(1), 1: F(1)}


def test_divexact_negative_exponents():
    # (1 - t^-2) / (1 - t^-1) = 1 + t^-1
    num = one_minus_t(-2)
    den = one_minus_t(-1)
    assert num.divexact(den).coeffs == {0: F(1), -1: F(1)}


def test_divexact_remainder_raises():
    with pytest.raises(NotLaurent):
        LaurentPolynomial({0: F(1), 2: F(1)}).divexact(one_minus_t(1))


def test_one_minus_t_zero_exponent_rejected():
    with pytest.raises(ValueError):
        one_minus_t(0)


@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), min_size=1, max_size=4),
)
def test_divexact_inverts_multiplication(acoeffs, bcoeffs):
    a = LaurentPolynomial({k: F(v) for k, v in acoeffs.items() if v})
    b = LaurentPolynomial({k: F(v) for k, v in bcoeffs.items() if v})
    if not b.coeffs:
        return
    prod = a * b
    assert prod.divexact(b).coeffs == a.coeffs


def test_shift():
    p = LaurentPolynomial({0: F(1), 2: F(1)})
    assert p.shift(-3).coeffs == {-3: F(1), -1: F(1)}


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
rat_coeffs = st.dictionaries(
    st.integers(-4, 4),
    st.one_of(st.integers(-5, 5), st.builds(F, st.integers(-5, 5), st.integers(1, 3))),
    max_size=5)
any_coeffs = st.one_of(int_coeffs, rat_coeffs)


@given(any_coeffs, any_coeffs)
def test_add_mul_match_reference(acoeffs, bcoeffs):
    a, b = LaurentPolynomial(acoeffs), LaurentPolynomial(bcoeffs)
    assert (a + b).coeffs == sparse(ref_add(dense(acoeffs), dense(bcoeffs)))
    assert (a * b).coeffs == sparse(ref_mul(dense(acoeffs), dense(bcoeffs)))
    assert (a - b).coeffs == sparse(ref_add(dense(acoeffs), dense({e: -c for e, c in bcoeffs.items()})))


@given(any_coeffs, any_coeffs, st.booleans())
def test_divexact_matches_reference(acoeffs, bcoeffs, exact):
    """Random quotients (mostly with a remainder) and products divided back;
    divisors with any leading coefficient, so the Fraction path runs too."""
    b = LaurentPolynomial(bcoeffs)
    if b.is_zero():
        return
    num = LaurentPolynomial(acoeffs) * b if exact else LaurentPolynomial(acoeffs)
    expect = ref_div(dense(num.coeffs), dense(bcoeffs))
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
    b = LaurentPolynomial({**{e: c for e, c in bcoeffs.items() if e < 5}, 5 + top: lead})
    a = LaurentPolynomial(acoeffs)
    for p in (a + b, a - b, a * b, (a * b).divexact(b), -a, a.shift(3)):
        assert all(type(c) is int for c in p.coeffs.values())
    assert (a * b).divexact(b) == a


def test_integral_fractions_are_stored_as_int():
    p = LaurentPolynomial({0: F(4, 2), 3: F(1, 2)})
    assert type(p.coeffs[0]) is int and p.coeffs[3] == F(1, 2)
    assert type(p.eval_one()) is F and p.eval_one() == F(5, 2)
    # a non-monic division leaves Fractions, an integral quotient is int again
    half = LaurentPolynomial({0: 1}).divexact(LaurentPolynomial({0: 2}))
    assert half.coeffs == {0: F(1, 2)}
    assert all(type(c) is int for c in (half * 4).coeffs.values())
