import random
from fractions import Fraction as F
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from circleweights import hattori, search
from circleweights.core import WeightSystem
from circleweights.fixtures import IneffectiveParameters, cp, grassmannian, v5, v22
from circleweights.hattori import (
    _lcm,
    as_index,
    available_levels,
    cp_check,
    derive_levels,
    dim8_solver,
    exp_r_values,
    r_sequence,
    r_values_at_one,
    todd_quartic,
)
from circleweights.laurent import LaurentPolynomial, NotLaurent, one_minus_t
from test_laurent import cyclotomic


def reference_as_index(terms):
    """as_index before the shared fixed-point sum: sum_i value_i over
    prod_k (1 - t^(-w_ik)), each value times every other point's
    denominator, over the product of all of them."""
    denoms = []
    for _, weights in terms:
        d = LaurentPolynomial.one()
        for w in weights:
            d = d * one_minus_t(-int(w))
        denoms.append(d)
    total_den = LaurentPolynomial.one()
    for d in denoms:
        total_den = total_den * d
    num = LaurentPolynomial.zero()
    for i, (value, _) in enumerate(terms):
        part = value
        for j, d in enumerate(denoms):
            if j != i:
                part = part * d
        num = num + part
    return num.divexact(total_den)


def reference_r_sequence(ws, levels):
    """r_sequence before the shared fixed-point sum:
    r_s = (-1)^s sum_i e_s(t^(-a_j), j != i) / prod_k (1 - t^(w_ik))."""
    npts, a = ws.num_points, levels.a
    denoms = []
    for p in ws.points:
        d = LaurentPolynomial.one()
        for w in p:
            d = d * one_minus_t(int(w))
        denoms.append(d)
    total_den = LaurentPolynomial.one()
    for d in denoms:
        total_den = total_den * d
    rs = []
    for s in range(npts):
        num = LaurentPolynomial.zero()
        for i in range(npts):
            inner = LaurentPolynomial.zero()
            for subset in combinations([j for j in range(npts) if j != i], s):
                inner = inner + LaurentPolynomial.term(1, -sum(a[j] for j in subset))
            part = inner
            for j in range(npts):
                if j != i:
                    part = part * denoms[j]
            num = num + part
        if s % 2:
            num = -num
        rs.append(num.divexact(total_den))
    return rs


def _lp(exp):
    return LaurentPolynomial({exp: 1})


def _eval(poly, t0):
    return sum(c * t0 ** e for e, c in poly.coeffs.items())


def test_sphere_index_trivial_bundle():
    # rotation of the 2-sphere: weights {1} at the minimum, {-1} at the maximum
    terms = [(_lp(0), (1,)), (_lp(0), (-1,))]
    assert as_index(terms).coeffs == {0: 1}
    assert as_index(terms) == reference_as_index(terms)


def test_sphere_index_degree_one():
    terms = [(_lp(1), (1,)), (_lp(0), (-1,))]
    result = as_index(terms)
    assert result.coeffs == {0: 1, 1: 1}  # 1 + t
    assert result == reference_as_index(terms)


def test_projective_space_indices_match_oracle():
    # index of the k-th power bundle over the standard projective fixtures:
    # values t^(k*xi_i) against weights {xi_i - xi_j}; the result must agree
    # with direct rational evaluation at random points and count sections
    rng = random.Random(3)
    trials = 0
    while trials < 100:
        n = rng.choice([1, 2, 3])
        xi = sorted(rng.sample(range(-8, 9), n + 1), reverse=True)
        k = rng.randint(0, 4)
        weights = [tuple(xi[i] - xi[j] for j in range(n + 1) if j != i) for i in range(n + 1)]
        terms = [(_lp(k * xi[i]), weights[i]) for i in range(n + 1)]
        result = as_index(terms)
        assert result == reference_as_index(terms)
        assert result.eval_one() == comb(n + k, n)
        for t0 in (F(2), F(1, 3), F(-3, 2)):
            direct = sum(
                _eval(v, t0) / prod_one_minus(t0, w) for v, w in terms
            )
            assert _eval(result, t0) == direct
        trials += 1


def prod_one_minus(t0, weights):
    out = F(1)
    for w in weights:
        out *= 1 - t0 ** (-w)
    return out


def test_cp4_levels():
    ws = cp((4, 3, 2, 1, 0))
    lv = derive_levels(ws, 5)
    assert lv is not None
    assert lv.k0 == 5 and lv.d == 0
    assert lv.a == (2, 1, 0, -1, -2)
    assert cp_check(ws, lv)


def test_cp_check_rejects_altered_weights():
    from circleweights.core import WeightSystem

    ws = cp((4, 3, 2, 1, 0))
    pts = [list(p) for p in ws.points]
    pts[2][0] += 5
    pts[2][-1] -= 5  # keep the weight sum, break the multiset
    altered = WeightSystem(4, tuple(tuple(p) for p in pts))
    lv = derive_levels(altered, 5)
    assert lv is None or not cp_check(altered, lv)


def test_v5_levels():
    ws = v5()
    lv = derive_levels(ws, 2)
    assert lv.k0 == 2 and lv.d == 0 and lv.a == (3, 2, -2, -3)
    assert derive_levels(ws, 4) is None  # sums 6,4,-4,-6 not congruent mod 4
    assert all(l.k0 != 4 for l in available_levels(ws))


def test_r0_is_one_on_minimal_fixtures():
    cases = [
        (cp((2, 1, 0)), 3),
        (cp((3, 2, 1, 0)), 4),
        (cp((4, 3, 2, 1, 0)), 5),
        (grassmannian((2, 1)), 3),
        (v5(), 2),
        (v22(), 1),
    ]
    for ws, k0 in cases:
        lv = derive_levels(ws, k0)
        assert lv is not None, ws.points
        rvals = r_values_at_one(ws, lv)
        assert rvals[0] == 1, (ws.points, k0)


def test_cp4_r_sequence_trivial():
    ws = cp((4, 3, 2, 1, 0))
    lv = derive_levels(ws, 5)
    rs = r_sequence(ws, lv)
    assert rs[0].coeffs == {0: 1}
    assert all(r.coeffs == {} for r in rs[1:])
    assert sum(r.eval_one() for r in rs) == 1


def test_gr_volume_two():
    ws = grassmannian((2, 1))
    lv = derive_levels(ws, 3)
    rvals = r_values_at_one(ws, lv)
    assert sum(rvals) == 2


def test_v5_symmetry_and_vanishing():
    # k0 = 2, so the top occupied level is l0 = n + 1 - k0 = 2
    ws = v5()
    lv = derive_levels(ws, 2)
    rs = r_sequence(ws, lv)
    l0 = ws.n + 1 - lv.k0
    for s in range(l0 + 1, len(rs)):
        assert rs[s].coeffs == {}
    for s in range(l0 + 1):
        assert rs[s].eval_one() == rs[l0 - s].eval_one()


def test_r_sequence_reconstructs_phi():
    # the defining identity phi_i(t) = sum_s r_s(t) t^(s a_i), on every fixture
    from circleweights.hattori import phi

    for ws, k0 in [(v5(), 2), (v22(), 1), (grassmannian((2, 1)), 3), (cp((3, 2, 1, 0)), 4)]:
        lv = derive_levels(ws, k0)
        rs = r_sequence(ws, lv)
        for i in range(ws.num_points):
            recon = LaurentPolynomial({})
            for s, r in enumerate(rs):
                recon = recon + r.shift(s * lv.a[i])
            assert recon.coeffs == phi(ws, lv, i).coeffs


def _effective(fixture, xi):
    try:
        return fixture(xi)
    except IneffectiveParameters:
        return None


# cp with n <= 4 and grassmannian with k <= 3, or None when ineffective
SYSTEMS = st.one_of(
    st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True).map(
        lambda xs: _effective(cp, sorted(xs, reverse=True))),
    st.lists(st.integers(1, 6), min_size=2, max_size=3, unique=True).map(
        lambda xs: _effective(grassmannian, sorted(xs, reverse=True))),
)


@settings(max_examples=60, deadline=None)
@given(SYSTEMS)
def test_r_sequence_decomposes_phi(ws):
    # phi_i = sum_s r_s t^(s a_i) holds by construction whenever r_sequence
    # returns; checked without a division: the sum times prod_k (1 - t^(w_ik))
    # is prod_{j != i} (1 - t^(a_i - a_j))
    assume(ws is not None)
    for lv in available_levels(ws):
        try:
            rs = r_sequence(ws, lv)
        except NotLaurent:
            continue
        for i, weights in enumerate(ws.points):
            total = sum((r.shift(s * lv.a[i]) for s, r in enumerate(rs)), LaurentPolynomial.zero())
            denominator = prod((one_minus_t(w) for w in weights), start=LaurentPolynomial.one())
            numerator = prod((one_minus_t(lv.a[i] - a) for j, a in enumerate(lv.a) if j != i),
                             start=LaurentPolynomial.one())
            assert total * denominator == numerator, (ws.points, lv, i)


def _moved(ws, point, slot, delta):
    """A copy of ``ws`` with one weight moved by ``delta``."""
    pts = [list(p) for p in ws.points]
    pts[point % len(pts)][slot % ws.n] += delta
    return WeightSystem(ws.n, tuple(tuple(p) for p in pts))


def _outcome(fn, *args):
    """fn(*args), or the class of the NotLaurent or ValueError it raises."""
    try:
        return fn(*args)
    except (NotLaurent, ValueError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(SYSTEMS, st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7),
                                      st.sampled_from([-2, -1, 1, 2])))
def test_fixed_point_sums_match_the_full_product(ws, move):
    # the sums over the cyclotomic lcm against the oracles that divide by the
    # product of all the point denominators: equal lists, or NotLaurent on
    # both sides, for every level of the system and of a copy with one weight
    # moved; a weight moved to 0 raises ValueError on both sides
    assume(ws is not None)
    if move is not None:
        ws = _moved(ws, *move)
    for k0 in range(1, ws.num_points + 1):
        lv = derive_levels(ws, k0)
        if lv is None:
            continue
        got = _outcome(r_sequence, ws, lv)
        assert got == _outcome(reference_r_sequence, ws, lv), (ws.points, lv)
        assert got is not ValueError or any(0 in p for p in ws.points)
        terms = [(_lp(k0 * a), p) for a, p in zip(lv.a, ws.points)]
        assert _outcome(as_index, terms) == _outcome(reference_as_index, terms), (ws.points, lv)


@settings(max_examples=80, deadline=None)
@given(SYSTEMS, st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7),
                                      st.sampled_from([-2, -1, 1, 2])))
def test_the_lcm_is_the_cyclotomic_product(ws, move):
    # the lcm built from binomials is prod_d Phi_d^(m_d), m_d the largest
    # number of weights at one point that d divides
    assume(ws is not None)
    if move is not None:
        ws = _moved(ws, *move)
    if any(0 in p for p in ws.points):
        with pytest.raises(ValueError):
            _lcm(ws.points)
        return
    mults = {}
    for p in ws.points:
        for d in range(1, max(map(abs, p)) + 1):
            mults[d] = max(mults.get(d, 0), sum(w % d == 0 for w in p))
    want = prod((cyclotomic(d) for d, m in mults.items() for _ in range(m)),
                start=LaurentPolynomial.one())
    assert LaurentPolynomial.from_dense(0, _lcm(ws.points)) == want, ws.points


# weights of the sizes vet_stream draws: CP^4 with its top weight in 16..30,
# and the dimension-10 Grassmannian (three generators, top weight 6)
STREAM_SIZED = {
    "cp16": cp((16, 11, 6, 3, 0)),
    "cp23": cp((23, 17, 8, 5, 0)),
    "cp30": cp((30, 29, 14, 1, 0)),
    "gr651": grassmannian((6, 5, 1)),
    "gr641": grassmannian((6, 4, 1)),
}
# copies with the largest weight at point 1 moved up by one
STREAM_SIZED.update({name + "-moved": _moved(STREAM_SIZED[name], 1, -1, 1)
                     for name in ("cp16", "gr651")})


@pytest.mark.parametrize("ws", STREAM_SIZED.values(), ids=STREAM_SIZED.keys())
def test_fixed_point_sums_match_the_full_product_at_stream_sizes(ws):
    # as test_fixed_point_sums_match_the_full_product, on fixed systems with
    # the larger weights of the benchmark stream, at every level they have
    levels = [derive_levels(ws, k0) for k0 in range(1, ws.num_points + 1)]
    levels = [lv for lv in levels if lv is not None]
    assert levels
    for lv in levels:
        got = _outcome(r_sequence, ws, lv)
        assert got == _outcome(reference_r_sequence, ws, lv), (ws.points, lv)
        terms = [(_lp(lv.k0 * a), p) for a, p in zip(lv.a, ws.points)]
        assert _outcome(as_index, terms) == _outcome(reference_as_index, terms), (ws.points, lv)


def test_a_zero_weight_raises_value_error():
    ws = WeightSystem(2, ((0, 1), (-1, 1), (-1, -1)))
    lv = derive_levels(ws, 1)
    assert lv is not None
    with pytest.raises(ValueError):
        r_sequence(ws, lv)
    with pytest.raises(ValueError):
        as_index([(_lp(0), (1, 0)), (_lp(0), (-1, -1))])


def test_dim8_constants_have_one_home():
    assert hattori.DIM8_CONSTANTS == (1, 5)
    assert search.DIM8_CONSTANTS is hattori.DIM8_CONSTANTS


def test_r_sequence_stays_in_integers():
    # every factor of the index battery has leading coefficient +-1, so the
    # r_s and their values at 1 are ints.  The values at 1 are those of the
    # rational code this replaced.
    cases = [
        (cp((2, 1, 0)), 3, [1, 0, 0]),
        (cp((2, 1, 0)), 1, [1, 7, 1]),
        (cp((3, 2, 1, 0)), 4, [1, 0, 0, 0]),
        (cp((3, 2, 1, 0)), 2, [1, 6, 1, 0]),
        (cp((3, 2, 1, 0)), 1, [1, 31, 31, 1]),
        (cp((4, 3, 2, 1, 0)), 5, [1, 0, 0, 0, 0]),
        (cp((4, 3, 2, 1, 0)), 1, [1, 121, 381, 121, 1]),
        (grassmannian((2, 1)), 3, [1, 1, 0, 0]),
        (grassmannian((2, 1)), 1, [1, 26, 26, 1]),
        (v5(), 2, [1, 3, 1, 0]),
        (v5(), 1, [1, 19, 19, 1]),
        (v22(), 1, [1, 10, 10, 1]),
    ]
    for ws, k0, values in cases:
        lv = derive_levels(ws, k0)
        rs = r_sequence(ws, lv)
        assert rs == reference_r_sequence(ws, lv), (ws.points, k0)
        assert all(type(c) is int for r in rs for c in r.coeffs.values()), (ws.points, k0)
        got = r_values_at_one(ws, lv)
        assert got == values and all(type(x) is int for x in got), (ws.points, k0)


def test_dim8_solver():
    assert dim8_solver(5) == [(1, F(10))]
    assert dim8_solver(2) == []
    assert dim8_solver(3) == []
    assert dim8_solver(4) == []
    sols = dim8_solver(1, lmax=60)
    assert sorted(l for l, _ in sols) == [15, 25, 40, 60]
    bym = dict(sols)
    assert bym[15] == F(2, 3)
    assert bym[25] == F(2, 5)


def test_exp_r_closed_forms_vanish_at_solution():
    assert exp_r_values(5, 1, F(10)) == [0, 0, 0, 0]
    assert todd_quartic(5, 1, F(10)) == 0
    assert todd_quartic(5, 1, F(9)) != 0


def test_exp_r_nonzero_off_solution():
    assert any(v != 0 for v in exp_r_values(5, 1, F(9)))
    assert any(v != 0 for v in exp_r_values(1, 1, F(1)))
