import itertools
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from circleweights.core import FixedPointProfile, minimal_profile
from circleweights.graphs import enumerate_multigraphs
from circleweights.linalg import (
    NullspaceDescription,
    echelon,
    graph_matrix,
    int_determinant,
    kernel_lattice_points,
    meets_positive_orthant,
    nullspace,
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


def reference_graph_matrix(edges):
    """graph_matrix by its definition: a[h][m] = delta(source(e_h), e_m) -
    delta(target(e_h), e_m), delta(v, e) being +1 where e starts at v, -1
    where it ends there and 0 otherwise (and on cycles)."""
    def delta(v, e):
        i, j = e
        if i == j:
            return 0
        return 1 if v == i else -1 if v == j else 0

    return [[0] * len(edges) if i == j else [delta(i, e) - delta(j, e) for e in edges]
            for i, j in edges]


@pytest.mark.parametrize("profile, mode, classes", [
    (minimal_profile(4), "nonneg", 75),
    (FixedPointProfile(2, (0, 1, 1, 2)), "all", 6),
])
def test_graph_matrix_matches_the_delta_definition(profile, mode, classes):
    graphs = enumerate_multigraphs(profile, mode=mode)
    assert len(graphs) == classes
    for graph in graphs:
        assert graph_matrix(graph.edges) == reference_graph_matrix(graph.edges), graph.edges


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
    assert positive_kernel_exists(shifted)
    ns = nullspace(shifted)
    assert kernel_lattice_points(ns, 3)[0] == (1, 1, 1, 1)
    for v in ns.basis:
        assert v[0] == v[2] and v[1] == v[3]


def test_positive_nullvector_triangle():
    mat = graph_matrix(((0, 1), (0, 2), (1, 2)))
    shifted = [[v - (3 if h == m else 0) for m, v in enumerate(row)] for h, row in enumerate(mat)]
    assert positive_kernel_exists(shifted)
    assert kernel_lattice_points(nullspace(shifted), 3)[0] == (1, 2, 1)


def test_no_positive_nullvector_for_identity():
    eye = [[int(i == j) for j in range(2)] for i in range(2)]
    assert kernel_lattice_points(nullspace(eye), 20) == []
    assert not positive_kernel_exists(eye)


def brute_force_positive(rows, bound=20):
    """Every kernel vector with entries in [1, bound], in product order."""
    ncols = len(rows[0])
    return [v for v in itertools.product(range(1, bound + 1), repeat=ncols)
            if all(sum(row[k] * v[k] for k in range(ncols)) == 0 for row in rows)]


def test_positive_nullvector_matches_brute_force():
    # oracle equivalence on small integer matrices (<= 4 columns): the
    # lattice points equal the brute-force set, and the decision agrees
    # with it and with the Fraction reference (which also decides the
    # kernels whose positive vectors all exceed the box)
    import random

    rng = random.Random(11)
    checked = 0
    while checked < 40:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        brute = brute_force_positive(mat, bound=20)
        assert kernel_lattice_points(nullspace(mat), 20) == brute
        exists = positive_kernel_exists(mat)
        assert exists == (reference_positive_kernel_vector(mat) is not None)
        if brute:
            assert exists
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


def reference_fm_feasible(ineqs, nvars):
    """Decide feasibility of { c : a . c > 0 for all a }, all strict, by
    Fourier-Motzkin elimination over Fraction.

    Returns None if infeasible, else a rational witness vector c, rebuilt by
    back-substitution through the elimination stages.
    """
    stages = []  # (var index, inequalities mentioning it)
    current = [list(a) for a in ineqs]
    for var in range(nvars - 1, -1, -1):
        for a in current:
            if all(x == 0 for x in a):
                return None  # 0 > 0
        lower = [a for a in current if a[var] > 0]
        upper = [a for a in current if a[var] < 0]
        rest = [a for a in current if a[var] == 0]
        stages.append((var, lower, upper))
        new = list(rest)
        for lo in lower:
            for up in upper:
                # lo . c > 0 and up . c > 0 combine (eliminating c_var) into
                # lo[var] * up + (-up[var]) * lo  > 0, still strict.
                comb = [-up[var] * lo[j] + lo[var] * up[j] for j in range(nvars)]
                comb[var] = F(0)
                new.append(comb)
        current = new
    for a in current:
        # only all-zero vectors can be left; they read 0 > 0
        if all(x == 0 for x in a):
            return None
    c = [F(0)] * nvars
    for var, lower, upper in reversed(stages):
        los = []
        ups = []
        for a in lower:
            rhs = -sum(a[j] * c[j] for j in range(nvars) if j != var)
            los.append(rhs / a[var])
        for a in upper:
            rhs = -sum(a[j] * c[j] for j in range(nvars) if j != var)
            ups.append(rhs / a[var])
        if los and ups:
            lo, up = max(los), min(ups)
            if not lo < up:
                return None
            c[var] = (lo + up) / 2
        elif los:
            c[var] = max(los) + 1
        elif ups:
            c[var] = min(ups) - 1
        else:
            c[var] = F(1)
    return c


def reference_positive_kernel_vector(rows):
    """A strictly positive rational kernel vector of ``rows``, or None when
    the kernel misses the open positive orthant: the Fraction
    Fourier-Motzkin witness on the Fraction reference kernel basis, checked
    positive and annihilated by every row."""
    ns = reference_nullspace(rows)
    if ns.dim == 0:
        return None
    ineqs = [[F(ns.basis[j][i]) for j in range(ns.dim)] for i in range(ns.ncols)]
    c = reference_fm_feasible(ineqs, ns.dim)
    if c is None:
        return None
    vec = [sum(c[j] * ns.basis[j][i] for j in range(ns.dim)) for i in range(ns.ncols)]
    assert all(x > 0 for x in vec)
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    return vec


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


@settings(max_examples=400, deadline=None)
@given(st.one_of(integer_matrices(), kernel_cases().map(lambda case: case[0])))
@example([[1, 0], [0, 1]])  # a zero kernel
@example([[1, 1]])  # the kernel line through (1, -1)
@example([[1, -1, 1]])  # w1 = w0 + w2: no basis vector is positive
@example([[25, -1]])  # positive vectors, none with entries up to 20
def test_positivity_matches_fraction_reference(rows):
    # rows of integer_matrices() often leave a zero kernel; kernel_cases()
    # often plants a positive kernel vector
    want = reference_positive_kernel_vector(rows) is not None
    assert meets_positive_orthant(nullspace(rows)) == want
    assert positive_kernel_exists(rows) == want


@pytest.mark.parametrize("entry", [F(1, 2), F(2), 0.5, 2.0])
def test_non_integer_entries_are_refused(entry):
    rows = [[1, entry], [0, 1]]
    for fn in (echelon, int_determinant, nullspace, positive_kernel_exists):
        with pytest.raises(TypeError):
            fn(rows)
