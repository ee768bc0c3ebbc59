import itertools
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from circleweights.linalg import (
    NullspaceDescription,
    echelon,
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


def test_square_graph_matrix_golden():
    assert graph_matrix(((0, 2), (0, 1), (1, 3), (2, 3))) == A_SQUARE


def test_triangle_graph_matrix():
    assert graph_matrix(((0, 1), (0, 2), (1, 2))) == [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]


def test_cycle_row_is_zero():
    assert graph_matrix(((1, 1),)) == [[0]]


def test_graph_matrix_symmetric_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        edges = tuple(
            tuple(sorted((rng.randrange(5), rng.randrange(5)))) for _ in range(rng.randint(1, 7))
        )
        rows = graph_matrix(edges)
        for h in range(len(edges)):
            for m in range(len(edges)):
                assert rows[h][m] == rows[m][h]
            if edges[h][0] == edges[h][1]:
                assert all(v == 0 for v in rows[h])
            else:
                assert rows[h][h] == 2


def test_nullspace_rank_one_example():
    ns = nullspace([[-1, 1, -1]] * 3)
    # kernel is the plane w2 = w1 + w3
    assert ns.rank == 1
    assert len(ns.basis) == 2
    for v in ns.basis:
        assert v[1] == v[0] + v[2]


def test_nullspace_identity_and_zero():
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert nullspace(eye).basis == []
    zero = [[0] * 2 for _ in range(2)]
    ns = nullspace(zero)
    assert ns.rank == 0
    assert sorted(ns.basis) == [(0, 1), (1, 0)]


def test_positive_nullvector_square_graph():
    mat = graph_matrix(((0, 2), (0, 1), (1, 3), (2, 3)))
    shifted = [[v - (2 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(mat)]
    w = positive_integer_nullvector(shifted)
    assert w == (1, 1, 1, 1)
    ns = nullspace(shifted)
    for v in ns.basis:
        assert v[0] == v[2] and v[1] == v[3]


def test_positive_nullvector_triangle():
    mat = graph_matrix(((0, 1), (0, 2), (1, 2)))
    shifted = [[v - (3 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(mat)]
    assert positive_integer_nullvector(shifted) == (1, 2, 1)


def test_no_positive_nullvector_for_identity():
    eye = [[int(i == j) for j in range(2)] for i in range(2)]
    assert positive_integer_nullvector(eye) is None
    assert not positive_kernel_exists(eye)


def _brute_force_positive(rows, bound=20):
    ncols = len(rows[0])
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
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
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
                sum(row[k] * got[k] for k in range(cols)) == 0 for row in mat
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
    ns = nullspace(rows)
    assert ns.rank + len(ns.basis) == 3
    for v in ns.basis:
        assert all(sum(row[k] * v[k] for k in range(3)) == 0 for row in rows)
        assert gcd(*v) == 1  # primitive


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
    ns = nullspace([[-1, 1, -1]])
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
    assert kernel_lattice_points(nullspace(rows), bound) == brute


def test_kernel_lattice_points_refuses_non_diagonal_basis():
    ns = nullspace([[1, 1, -1]])
    ns.basis = [ns.basis[0], tuple(x + y for x, y in zip(ns.basis[0], ns.basis[1]))]
    with pytest.raises(ValueError, match="degenerate kernel parametrization"):
        kernel_lattice_points(ns, 3)


# ---------------------------------------------------------------------------
# Differential oracle: Gauss-Jordan over Fraction
# ---------------------------------------------------------------------------

def reference_rref(rows):
    """Reduced row echelon form over Fraction, its pivot columns (first
    nonzero entry top-down in each column) and the determinant factor: the
    product of the pivots, negated once per row swap."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    det = F(1)
    for c in range(len(m[0])):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            det = -det
        pv = m[r][c]
        det *= pv
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def reference_nullspace(rows):
    """Kernel basis by the free-variable scheme on the Fraction rref: free
    column set to 1, other frees 0, scaled to a coprime integer vector whose
    first nonzero entry is positive."""
    red, pivots, _ = reference_rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        denom = lcm(*(x.denominator for x in vec))
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in ints))
    return NullspaceDescription(ncols, len(pivots), basis, free)


def reference_determinant(rows):
    _, pivots, det = reference_rref(rows)
    return int(det) if len(pivots) == len(rows) else 0


@st.composite
def integer_matrices(draw, square=False):
    """Small integer matrices, rectangular or square; half of them get a row
    that is a combination of two others, some a zero column."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    if draw(st.integers(0, 4)) == 0:
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_nullspace_matches_fraction_reference(rows):
    got, want = nullspace(rows), reference_nullspace(rows)
    assert (got.basis, got.rank, got.free) == (want.basis, want.rank, want.free)
    assert echelon(rows)[1] == reference_rref(rows)[1]


@settings(max_examples=300, deadline=None)
@given(integer_matrices(square=True))
def test_int_determinant_matches_fraction_reference(rows):
    assert int_determinant(rows) == reference_determinant(rows)


@pytest.mark.parametrize("entry", [F(1, 2), F(2), 0.5, 2.0])
def test_non_integer_entries_are_refused(entry):
    rows = [[1, entry], [0, 1]]
    for fn in (echelon, int_determinant, nullspace, positive_kernel_exists):
        with pytest.raises(TypeError):
            fn(rows)
