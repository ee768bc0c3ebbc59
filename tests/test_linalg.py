import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from circleweights.linalg import (
    RationalMatrix,
    graph_matrix,
    int_determinant,
    kernel_lattice_points,
    nullspace,
    positive_integer_nullvector,
    positive_kernel_exists,
)

# the defining rule a_{h,m} = [i(e_h) touches e_m] - [t(e_h) touches e_m];
# golden value for the 4-edge square graph P0->P2, P0->P1, P1->P3, P2->P3
A_SQUARE = [
    [2, 1, 0, -1],
    [1, 2, -1, 0],
    [0, -1, 2, 1],
    [-1, 0, 1, 2],
]


def _introws(mat):
    return [[int(v) for v in row] for row in mat.rows]


def test_square_graph_matrix_golden():
    mat = graph_matrix(((0, 2), (0, 1), (1, 3), (2, 3)))
    assert _introws(mat) == A_SQUARE


def test_triangle_graph_matrix():
    mat = graph_matrix(((0, 1), (0, 2), (1, 2)))
    assert _introws(mat) == [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]


def test_cycle_row_is_zero():
    mat = graph_matrix(((1, 1),))
    assert _introws(mat) == [[0]]


def test_graph_matrix_symmetric_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        edges = tuple(
            tuple(sorted((rng.randrange(5), rng.randrange(5)))) for _ in range(rng.randint(1, 7))
        )
        rows = _introws(graph_matrix(edges))
        for h in range(len(edges)):
            for m in range(len(edges)):
                assert rows[h][m] == rows[m][h]
            if edges[h][0] == edges[h][1]:
                assert all(v == 0 for v in rows[h])
            else:
                assert rows[h][h] == 2


def test_nullspace_rank_one_example():
    ns = nullspace(RationalMatrix([[F(-1), F(1), F(-1)]] * 3))
    # kernel is the plane w2 = w1 + w3
    assert ns.rank == 1
    assert len(ns.basis) == 2
    for v in ns.basis:
        assert v[1] == v[0] + v[2]


def test_nullspace_identity_and_zero():
    eye = RationalMatrix([[F(int(i == j)) for j in range(3)] for i in range(3)])
    assert nullspace(eye).basis == []
    zero = RationalMatrix([[F(0)] * 2 for _ in range(2)])
    ns = nullspace(zero)
    assert ns.rank == 0
    assert sorted(ns.basis) == [(0, 1), (1, 0)]


def test_positive_nullvector_square_graph():
    mat = graph_matrix(((0, 2), (0, 1), (1, 3), (2, 3)))
    shifted = RationalMatrix(
        [[v - (2 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(mat.rows)]
    )
    w = positive_integer_nullvector(shifted)
    assert w == (1, 1, 1, 1)
    ns = nullspace(shifted)
    for v in ns.basis:
        assert v[0] == v[2] and v[1] == v[3]


def test_positive_nullvector_triangle():
    mat = graph_matrix(((0, 1), (0, 2), (1, 2)))
    shifted = RationalMatrix(
        [[v - (3 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(mat.rows)]
    )
    assert positive_integer_nullvector(shifted) == (1, 2, 1)


def test_no_positive_nullvector_for_identity():
    eye = RationalMatrix([[F(int(i == j)) for j in range(2)] for i in range(2)])
    assert positive_integer_nullvector(eye) is None
    assert not positive_kernel_exists(eye)


def _brute_force_positive(mat, bound=20):
    ncols = len(mat.rows[0])
    rows = [[int(v) for v in row] for row in mat.rows]
    for v in itertools.product(range(1, bound + 1), repeat=ncols):
        if all(sum(row[k] * v[k] for k in range(ncols)) == 0 for row in rows):
            return v
    return None


def test_positive_nullvector_matches_brute_force():
    # oracle equivalence on small integer matrices (<= 4 columns)
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 40:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        mat = RationalMatrix(
            [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        brute = _brute_force_positive(mat, bound=20)
        got = positive_integer_nullvector(mat, search_bound=20)
        if brute is not None:
            assert got is not None
            assert positive_kernel_exists(mat)
        if got is not None:
            # witness must be a genuine positive null vector; if brute-force
            # within [1,20]^cols found nothing, the witness must exceed it
            assert all(x > 0 for x in got)
            assert all(
                sum(row[k] * got[k] for k in range(cols)) == 0 for row in mat.rows
            )
            if brute is None:
                assert max(got) > 20
        else:
            assert brute is None
            assert not positive_kernel_exists(mat)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_nullspace_basis_annihilated(rows):
    mat = RationalMatrix([[F(v) for v in row] for row in rows])
    ns = nullspace(mat)
    assert ns.rank + len(ns.basis) == 3
    for v in ns.basis:
        assert all(sum(row[k] * v[k] for k in range(3)) == 0 for row in rows)
        g = 0
        for x in v:
            from math import gcd

            g = gcd(g, abs(x))
        assert g == 1  # primitive


def test_int_determinant():
    assert int_determinant([[2, 1], [1, 2]]) == 3
    assert int_determinant([[1, 2], [2, 4]]) == 0
    assert int_determinant([[1]]) == 1
    # rows of A_SQUARE satisfy r0 + r3 = r1 + r2, so it is singular,
    # and so is the magnitude-2 shift
    assert int_determinant(A_SQUARE) == 0
    shifted = [[v - (2 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(A_SQUARE)]
    assert int_determinant(shifted) == 0


def test_kernel_lattice_points():
    mat = RationalMatrix([[F(-1), F(1), F(-1)]])
    ns = nullspace(mat)
    pts = kernel_lattice_points(ns, 3)
    assert all(v[1] == v[0] + v[2] for v in pts)
    assert all(1 <= x <= 3 for v in pts for x in v)
    # w2 = w1 + w3 with all three in [1,3]: (1,1), (1,2), (2,1)
    assert len(pts) == 3


@st.composite
def kernel_cases(draw):
    """A small integer matrix, often with a planted positive kernel vector
    (last entry 1, so fixing each row's last entry keeps it integral)."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        v = draw(st.lists(st.integers(1, 4), min_size=ncols - 1, max_size=ncols - 1)) + [1]
        rows = [row[:-1] + [-sum(a * x for a, x in zip(row[:-1], v))] for row in rows]
    return rows, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_lattice_points_matches_brute_force(case):
    rows, bound = case
    brute = [v for v in itertools.product(range(1, bound + 1), repeat=len(rows[0]))
             if all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)]
    assert kernel_lattice_points(nullspace(RationalMatrix(rows)), bound) == brute


def test_kernel_lattice_points_refuses_non_diagonal_basis():
    ns = nullspace(RationalMatrix([[1, 1, -1]]))
    ns.basis = [ns.basis[0], tuple(x + y for x, y in zip(ns.basis[0], ns.basis[1]))]
    with pytest.raises(ValueError, match="degenerate kernel parametrization"):
        kernel_lattice_points(ns, 3)
