from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from circleweights.core import WeightSystem
from circleweights.fixtures import FIXTURES, cp, grassmannian, s2xs2, v5, v22
from circleweights.localization import (
    DegenerateWeights,
    abbv_sum,
    chern_battery,
    chi_y_coefficients,
    expected_c1cn1,
    in_index_order,
    minimal_chern_constants,
    point_products,
    zero_multidegrees,
)
from test_hattori import SYSTEMS, _moved

ALL_FIXTURES = [
    cp((2, 1, 0)),
    cp((3, 2, 1, 0)),
    cp((4, 3, 2, 1, 0)),
    grassmannian((2, 1)),
    v5(),
    v22(),
    s2xs2(2, 3),
    s2xs2(3, 4),
    s2xs2(4, 5),
    s2xs2(2, 5),
    s2xs2(3, 5),
]


def test_degree_zero_vanishes():
    for ws in ALL_FIXTURES:
        assert abbv_sum(ws, ()) == 0


def test_all_low_multidegrees_vanish():
    for ws in ALL_FIXTURES:
        for md in zero_multidegrees(ws.n):
            assert abbv_sum(ws, md) == 0, (ws.points, md)


def test_c1cn1_values():
    assert abbv_sum(s2xs2(2, 3), (1, 1)) == 8
    assert abbv_sum(v5(), (1, 2)) == 24
    assert abbv_sum(cp((4, 3, 2, 1, 0)), (1, 3)) == 50
    for ws in ALL_FIXTURES:
        assert abbv_sum(ws, (1, ws.n - 1)) == expected_c1cn1(ws)


def test_cn_counts_fixed_points():
    for ws in ALL_FIXTURES:
        md = (ws.n,)
        assert abbv_sum(ws, md) == ws.num_points


def test_chi_y_palindromic():
    for ws in ALL_FIXTURES:
        coeffs = chi_y_coefficients(ws)
        assert coeffs == tuple(reversed(coeffs))
        assert sum(coeffs) == ws.num_points


def test_chern_battery_fixtures_pass():
    for ws in ALL_FIXTURES:
        report = chern_battery(ws)
        assert report.ok, (ws.points, report)


def test_chern_constants_v5_v22_cp4():
    c = minimal_chern_constants(v5())
    assert c[1] == 2 and c[2] == 20
    assert c[2] / c[1] ** 2 == 5
    c = minimal_chern_constants(v22())
    assert c[1] == 1 and c[2] == 22
    c = minimal_chern_constants(cp((4, 3, 2, 1, 0)))
    assert c[1] == 5


def test_chern_constants_refuse_a_system_out_of_index_order():
    # the denominators are read as the first i weights at point i, which
    # are its negative ones only in index order
    ws = cp((3, 2, 1, 0))
    swapped = WeightSystem(ws.n, (ws.points[1], ws.points[0]) + ws.points[2:])
    with pytest.raises(ValueError, match="index order"):
        minimal_chern_constants(swapped)


def reference_point_products(ws):
    """point_products of a system in index order, by slicing: point i
    carries exactly i negative weights, which its sorted tuple lists
    first."""
    negatives, positives = [], []
    for i, p in enumerate(ws.points):
        negatives.append(prod(p[:i]))
        positives.append(-prod(p[i:]) if (len(p) - i) % 2 else prod(p[i:]))
    return negatives, positives


@settings(max_examples=150, deadline=None)
@given(SYSTEMS, st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7),
                                      st.sampled_from([-2, -1, 1, 2])), st.randoms())
def test_point_products_match_the_index_order_slices(ws, move, rnd):
    # on cp and grassmannian systems in index order and copies with one
    # weight moved that stay so, in the sorted order of the weights at each
    # point and in a shuffled one
    assume(ws is not None)
    if move is not None:
        ws = _moved(ws, *move)
    assume(in_index_order(ws) and not any(0 in p for p in ws.points))
    want = reference_point_products(ws)
    assert point_products(ws.points) == want, ws.points
    shuffled = [rnd.sample(p, len(p)) for p in ws.points]
    assert point_products(shuffled) == want, shuffled


def test_reversed_constants_match():
    for ws in [v5(), v22(), grassmannian((2, 1)), cp((3, 2, 1, 0))]:
        assert minimal_chern_constants(ws) == minimal_chern_constants(ws.reversed())


def test_perturbed_v5_breaks_identities():
    # flip the sign of the single positive weight 1 at the index-2 point:
    # {-4,-1,1} becomes {-4,-1,-1,...}; realized as the documented {-1,1,3}
    # perturbation at the index-1 point instead
    ws = WeightSystem(3, ((1, 2, 3), (-1, 1, 3), (-4, -1, 1), (-3, -2, -1)))
    val = abbv_sum(ws, ())
    assert val == F(-1, 12)


def test_single_weight_perturbations_of_v5_all_fail():
    base = [list(p) for p in v5().points]
    for i in range(len(base)):
        for k in range(3):
            for delta in (-1, 1):
                pts = [list(p) for p in base]
                pts[i][k] += delta
                if pts[i][k] == 0:
                    continue
                ws = WeightSystem(3, tuple(tuple(p) for p in pts))
                broken = any(abbv_sum(ws, md) != 0 for md in zero_multidegrees(3))
                broken = broken or abbv_sum(ws, (1, 2)) != 24
                broken = broken or abbv_sum(ws, (3,)) != 4
                assert broken, (i, k, delta)


def test_degenerate_weights_guard():
    ws = WeightSystem.__new__(WeightSystem)
    object.__setattr__(ws, "n", 2)
    object.__setattr__(ws, "points", ((0, 1), (-1, 1), (0, -1)))
    with pytest.raises(DegenerateWeights):
        abbv_sum(ws, (1, 1))


def test_fixture_registry():
    assert set(FIXTURES) == {"cp", "grassmannian", "v5", "v22", "s2xs2"}
    assert FIXTURES["v5"]().points == ((1, 2, 3), (-1, 1, 4), (-4, -1, 1), (-3, -2, -1))
    assert FIXTURES["v22"]().points == ((1, 2, 3), (-1, 1, 5), (-5, -1, 1), (-3, -2, -1))
    assert FIXTURES["grassmannian"]((2, 1)).points == (
        (1, 2, 3),
        (-1, 1, 3),
        (-3, -1, 1),
        (-3, -2, -1),
    )
    assert FIXTURES["s2xs2"](2, 3).points == ((2, 3), (-3, 2), (-2, 3), (-3, -2))


def test_ineffective_fixture_parameters_rejected():
    from circleweights.fixtures import IneffectiveParameters

    with pytest.raises(IneffectiveParameters):
        s2xs2(2, 4)


def reference_elementary_symmetric(values, k):
    """sigma_k of a sequence of integers."""
    coeffs = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[k]


def reference_abbv_sum(ws, multidegree):
    """abbv_sum as a Fraction sum, one point at a time."""
    total = F(0)
    for p in ws.points:
        if any(w == 0 for w in p):
            raise DegenerateWeights("zero weight at a fixed point")
        num = prod(reference_elementary_symmetric(p, j) for j in multidegree)
        total += F(num, prod(p))
    return total


def reference_chern_battery(ws):
    """chern_battery before it summed in integers: one Fraction sum per
    multidegree; returns (zero failures, c_n, c1_cn1)."""
    n = ws.n
    failures = []
    for md in zero_multidegrees(n):
        val = reference_abbv_sum(ws, md)
        if val != 0:
            failures.append((md, val))
    c_n = reference_abbv_sum(ws, (n,))
    c1_cn1 = reference_abbv_sum(ws, (1, n - 1)) if n >= 2 else c_n
    return failures, c_n, c1_cn1


@settings(max_examples=150, deadline=None)
@given(SYSTEMS, st.none() | st.tuples(st.integers(0, 7), st.integers(0, 7),
                                      st.sampled_from([-2, -1, 1, 2])))
def test_chern_battery_matches_the_fraction_sums(ws, move):
    # the same failing multidegrees in the same order with the same values,
    # c_n and c1*c_{n-1}, and so the same verdict, on cp and grassmannian
    # systems and copies with one weight moved; a weight moved to 0 raises
    # DegenerateWeights in both
    assume(ws is not None)
    if move is not None:
        ws = _moved(ws, *move)
    try:
        want = reference_chern_battery(ws)
    except DegenerateWeights:
        with pytest.raises(DegenerateWeights):
            chern_battery(ws)
        return
    report = chern_battery(ws)
    assert (report.zero_failures, report.c_n, report.c1_cn1) == want, ws.points
    assert all(type(v) is F for _, v in report.zero_failures)
    assert type(report.c_n) is F and type(report.c1_cn1) is F
    assert report.ok == (not want[0] and want[2] == expected_c1cn1(ws)
                         and want[1] == sum(chi_y_coefficients(ws)))
    for md in list(zero_multidegrees(ws.n)) + [(ws.n,), (1, ws.n - 1)]:
        assert abbv_sum(ws, md) == reference_abbv_sum(ws, md), (ws.points, md)


def test_moved_fixtures_report_failures_in_order():
    # a moved v5 weight breaks several zero integrals: reported in
    # zero_multidegrees order, with the values of the Fraction sums
    ws = _moved(v5(), 1, 0, -1)
    report = chern_battery(ws)
    assert len(report.zero_failures) > 1 and not report.ok
    assert (report.zero_failures, report.c_n, report.c1_cn1) == reference_chern_battery(ws)
