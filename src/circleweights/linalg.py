"""Exact linear algebra: determinants, nullspaces and strict-positivity
decisions.

Matrices are lists of integer rows.  Determinants and kernels come from one
integer (fraction-free) elimination, :func:`echelon`; the positivity
decision is an integer Fourier-Motzkin elimination.  Every entry is an int:
no ``Fraction`` and no floating point anywhere.  The services are

* :func:`nullspace` -- a primitive integer basis of the kernel, one vector
  per free column of the echelon form, so that output is deterministic;
* :func:`positive_kernel_exists` -- an exact yes/no decision whether the
  kernel meets the open positive orthant (:func:`meets_positive_orthant`);
* :func:`kernel_lattice_points` -- every kernel vector with entries in
  [1, bound], the bound lowered until the box fits LATTICE_BOX_LIMIT: the
  witnesses the search instantiates.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import index
from typing import List, Sequence, Tuple


def echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns the reduced rows, the pivot columns and the sign of the row
    permutation.  The pivot row is the first row, top-down, with a nonzero
    entry in the current column; a column without one is skipped.  Every
    division is exact: the entry of row r at column j >= ``pivots[r]`` is
    the minor of the row-permuted matrix on its first r+1 rows and on the
    columns ``pivots[:r] + [j]``.  Entries must be ints (``operator.index``):
    a Fraction or a float raises TypeError.
    """
    m = [list(map(index, row)) for row in rows]
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    nrows = len(m)
    pivots: List[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if m[p][c]:
                break
        else:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        pv = top[c]
        cols = range(c + 1, ncols)
        for row in m[r + 1:]:
            f = row[c]
            if f:
                row[c] = 0
                for j in cols:
                    row[j] = (pv * row[j] - f * top[j]) // prev
            elif pv != prev:  # the elimination only rescales this row
                for j in cols:
                    row[j] = pv * row[j] // prev
        prev = pv
        pivots.append(c)
    return m, pivots, sign


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix: 0 when the echelon form
    has fewer pivots than rows, else the signed last pivot."""
    ech, pivots, sign = echelon(rows)
    if len(pivots) < len(ech):
        return 0
    return sign * ech[-1][-1] if ech else 1


def _primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    """Scale an integer vector to a coprime one whose first nonzero entry is
    positive."""
    g = gcd(*vec)
    if g and next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec) if g else tuple(vec)


class NullspaceDescription:
    """Kernel of an integer matrix: rank, a primitive integer basis, and the
    free columns of the echelon form used to build it (basis vector j is
    nonzero at free column j and zero at the others)."""

    def __init__(self, ncols: int, rank: int, basis: List[Tuple[int, ...]], free: List[int]):
        self.ncols = ncols
        self.rank = rank
        self.basis = basis
        self.free = free

    @property
    def dim(self) -> int:
        return len(self.basis)


def nullspace(rows: Sequence[Sequence[int]]) -> NullspaceDescription:
    """Primitive integer kernel basis via the free-variable scheme: one basis
    vector per free column (other free entries 0), back-substituted through
    the echelon form.  The free entry is the last pivot D, the determinant of
    the pivot block, so by Cramer's rule every pivot entry is an integer and
    each division in the back-substitution is exact."""
    ech, pivots, _ = echelon(rows)
    ncols = len(ech[0]) if ech else 0
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    scale = ech[rank - 1][pivots[-1]] if pivots else 1
    basis: List[Tuple[int, ...]] = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = scale
        for r in range(rank - 1, -1, -1):
            row, pc = ech[r], pivots[r]
            vec[pc] = -sum(row[j] * vec[j] for j in range(pc + 1, ncols)) // row[pc]
        basis.append(_primitive(vec))
    return NullspaceDescription(ncols, rank, basis, free)


def meets_positive_orthant(ns: NullspaceDescription) -> bool:
    """Exact decision on a computed kernel: is some combination
    sum_j c_j basis_j strictly positive?  A zero kernel never is.

    Fourier-Motzkin elimination in integers on the strict homogeneous
    inequalities sum_j basis_j[i] c_j > 0, one row per coordinate i.
    Eliminating c_v keeps the rows without c_v and adds, for each row with
    a positive coefficient at v and each with a negative one, the
    combination by positive integer multipliers that cancels c_v, divided
    by its gcd; the new system is feasible exactly when the old one is.  A
    zero row reads 0 > 0, and once every variable is eliminated only zero
    rows can be left.
    """
    if ns.dim == 0:
        return False
    rows = {tuple(v[i] for v in ns.basis) for i in range(ns.ncols)}
    zero = (0,) * ns.dim
    for var in range(ns.dim - 1, -1, -1):
        if zero in rows:
            return False
        lower = [a for a in rows if a[var] > 0]
        upper = [a for a in rows if a[var] < 0]
        rows = {a for a in rows if a[var] == 0}
        for lo in lower:
            for up in upper:
                comb = [lo[var] * y - up[var] * x for x, y in zip(lo, up)]
                g = gcd(*comb) or 1
                rows.add(tuple(x // g for x in comb))
    return not rows


def positive_kernel_exists(rows: Sequence[Sequence[int]]) -> bool:
    """Exact decision: does the kernel meet the open positive orthant?"""
    return meets_positive_orthant(nullspace(rows))


# the most lattice points kernel_lattice_points scans: bound ** dim
LATTICE_BOX_LIMIT = 2_000_000


def kernel_lattice_points(ns: NullspaceDescription, bound: int) -> List[Tuple[int, ...]]:
    """All integer kernel vectors with every entry in [1, b], sorted, for
    the largest b <= bound whose box of b ** dim free entries holds at most
    LATTICE_BOX_LIMIT points; b stops at 2, and a box of 2 ** dim points
    above the limit raises ValueError.

    Basis vector j of ``ns`` holds d_j != 0 at free column j and 0 at the
    other free columns, so a kernel vector with free entries v_j is
    sum_j (v_j / d_j) basis_j.  Over L = lcm(d_j) that is an integer
    combination; the scan runs over free entries in [1, bound] and keeps a
    vector when every pivot entry, divided by L, is an integer in range.
    """
    if ns.dim == 0:
        return []
    bound = min(bound, LATTICE_BOX_LIMIT)
    while bound > 2 and bound ** ns.dim > LATTICE_BOX_LIMIT:
        bound -= 1
    if bound ** ns.dim > LATTICE_BOX_LIMIT:
        raise ValueError("lattice enumeration too large: %d^%d" % (bound, ns.dim))
    free = ns.free
    k = ns.dim
    if len(free) != k or any((ns.basis[j][fc] != 0) != (i == j)
                             for j in range(k) for i, fc in enumerate(free)):
        raise ValueError("degenerate kernel parametrization")
    diag = [ns.basis[j][free[j]] for j in range(k)]
    lcm_d = lcm(*diag)
    scale = [lcm_d // d for d in diag]
    # lcm_d times pivot entry i is sum_j v_j * row[j]
    pivot_rows = [(i, [scale[j] * ns.basis[j][i] for j in range(k)])
                  for i in range(ns.ncols) if i not in free]
    out: List[Tuple[int, ...]] = []
    for vals in product(range(1, bound + 1), repeat=k):
        vec = [0] * ns.ncols
        for j, fc in enumerate(free):
            vec[fc] = vals[j]
        for i, row in pivot_rows:
            x, r = divmod(sum(v * c for v, c in zip(vals, row)), lcm_d)
            if r or not 1 <= x <= bound:
                break
            vec[i] = x
        else:
            out.append(tuple(vec))
    out.sort()
    return out


def graph_matrix(edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """The pairing matrix of a directed multigraph.

    ``edges`` lists directed edges (i, j); an entry with i == j is a cycle.
    With delta(v, e) = +1 if e starts (and does not end) at v, -1 if e ends
    (and does not start) at v, and 0 otherwise, the matrix is

        a[h][m] = delta(source(e_h), e_m) - delta(target(e_h), e_m).

    Rows and columns of cycles vanish; the matrix is symmetric with 2s on the
    diagonal at non-cycle edges.  For non-cycle edges e_h = (i, j) and
    e_m = (k, l) this reads a[h][m] = [i=k] - [i=l] - [j=k] + [j=l].
    """
    return [[0 if i == j or k == l else (i == k) - (i == l) - (j == k) + (j == l)
             for k, l in edges] for i, j in edges]
