"""Exact linear algebra: determinants, nullspaces and strict-positivity
decisions.

Matrices are lists of integer rows.  Determinants and kernels come from one
integer (fraction-free) elimination, :func:`echelon`; ``Fraction`` is used
only in the Fourier-Motzkin elimination, whose back-substitution divides.
No floating point is used anywhere.  The services are

* :func:`nullspace` -- a primitive integer basis of the kernel, one vector
  per free column of the echelon form, so that output is deterministic;
* :func:`positive_integer_nullvector` -- an exact decision whether the kernel
  meets the open positive orthant, via Fourier-Motzkin elimination on strict
  homogeneous inequalities, together with a small integer witness when it
  does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import index
from typing import List, Optional, Sequence, Tuple


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


# ---------------------------------------------------------------------------
# Fourier-Motzkin on strict homogeneous inequalities  a . c > 0
# ---------------------------------------------------------------------------

def _fm_feasible(ineqs: List[List[Fraction]], nvars: int):
    """Decide feasibility of { c : a . c > 0 for all a }, all strict.

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
                coef_lo = -up[var]
                coef_up = lo[var]
                comb = [coef_lo * lo[j] + coef_up * up[j] for j in range(nvars)]
                comb[var] = Fraction(0)
                new.append(comb)
        current = new
    for a in current:
        # only all-zero vectors can be left; they read 0 > 0
        if all(x == 0 for x in a):
            return None
    c = [Fraction(0)] * nvars
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
            c[var] = Fraction(1)
    return c


def positive_combination(ns: NullspaceDescription) -> Optional[List[Fraction]]:
    """Exact decision on a computed kernel: rational coefficients c with
    sum_j c_j basis_j strictly positive, or None when the kernel misses the
    open positive orthant (a zero kernel always does)."""
    if ns.dim == 0:
        return None
    # inequality for coordinate i of the candidate vector sum_j c_j basis_j
    ineqs = [[Fraction(ns.basis[j][i]) for j in range(ns.dim)] for i in range(ns.ncols)]
    return _fm_feasible(ineqs, ns.dim)


def positive_kernel_exists(rows: Sequence[Sequence[int]]) -> bool:
    """Exact decision: does the kernel meet the open positive orthant?"""
    return positive_combination(nullspace(rows)) is not None


def positive_integer_nullvector(rows: Sequence[Sequence[int]],
                                search_bound: int = 6) -> Optional[Tuple[int, ...]]:
    """A strictly positive integer kernel vector of the integer matrix
    ``rows``, or None.

    The feasibility decision (kernel meets the open positive orthant) is
    exact, by Fourier-Motzkin elimination on the coordinates of a kernel
    basis.  When feasible, small integer combinations of the basis (entries
    up to ``search_bound``) are scanned for a lexicographically small witness;
    failing that, the Fourier-Motzkin point is cleared of denominators.
    """
    ns = nullspace(rows)
    c = positive_combination(ns)
    if c is None:
        return None
    k = ns.dim

    def from_coeffs(coeffs: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sum(coeffs[j] * ns.basis[j][i] for j in range(k)) for i in range(ns.ncols))

    denom = lcm(*(x.denominator for x in c))
    witness = _primitive(from_coeffs([int(x * denom) for x in c]))
    if any(x <= 0 for x in witness):  # primitive scaling cannot flip an all-positive vector
        witness = tuple(-x for x in witness)
    best = witness
    if k <= 3:
        span = range(-search_bound, search_bound + 1)
        for coeffs in product(span, repeat=k):
            if all(x == 0 for x in coeffs):
                continue
            cand = from_coeffs(coeffs)
            if all(x >= 1 for x in cand) and cand < best:
                best = cand
    return best


# the most lattice points kernel_lattice_points scans: bound ** dim
LATTICE_BOX_LIMIT = 2_000_000


def kernel_lattice_points(ns: NullspaceDescription, bound: int) -> List[Tuple[int, ...]]:
    """All integer kernel vectors with every entry in [1, bound], sorted.

    Basis vector j of ``ns`` holds d_j != 0 at free column j and 0 at the
    other free columns, so a kernel vector with free entries v_j is
    sum_j (v_j / d_j) basis_j.  Over L = lcm(d_j) that is an integer
    combination; the scan runs over free entries in [1, bound] and keeps a
    vector when every pivot entry, divided by L, is an integer in range.
    """
    if ns.dim == 0:
        return []
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
    diagonal at non-cycle edges.
    """
    def delta(v: int, e: Tuple[int, int]) -> int:
        i, j = e
        if i == j:
            return 0
        if v == i:
            return 1
        if v == j:
            return -1
        return 0

    rows = []
    for (i, j) in edges:
        if i == j:
            rows.append([0] * len(edges))
        else:
            rows.append([delta(i, e) - delta(j, e) for e in edges])
    return rows
