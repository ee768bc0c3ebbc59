"""Exact rational linear algebra: nullspaces and strict-positivity decisions.

Everything here is over ``fractions.Fraction`` / python ints; no floating
point is used anywhere.  The two nontrivial services are

* :func:`nullspace` -- a primitive integer basis of the kernel of a rational
  matrix, produced by a fixed Gauss-Jordan echelon convention so that output
  is deterministic;
* :func:`positive_integer_nullvector` -- an exact decision whether the kernel
  meets the open positive orthant, via Fourier-Motzkin elimination on strict
  homogeneous inequalities, together with a small integer witness when it
  does.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import List, Optional, Sequence, Tuple

Row = Tuple[Fraction, ...]


class RationalMatrix:
    """A dense matrix over Fraction with just the operations we need."""

    def __init__(self, rows: Sequence[Sequence]):
        self.rows: List[List[Fraction]] = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    def rref(self) -> Tuple["RationalMatrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Pivot choice is fixed (first nonzero entry scanning rows top-down in
        the current column) so results are reproducible.
        """
        m = [row[:] for row in self.rows]
        pivots: List[int] = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, len(m)):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        out = RationalMatrix(m)
        return out, pivots


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _primitive(vec: Sequence[Fraction]) -> Tuple[int, ...]:
    """Scale a rational vector to a coprime integer vector whose first nonzero
    entry is positive."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


class NullspaceDescription:
    """Kernel of a rational matrix: rank, a primitive integer basis, and the
    pivot/free column split of the echelon form used to build it."""

    def __init__(self, ncols: int, rank: int, basis: List[Tuple[int, ...]],
                 pivots: List[int], free: List[int]):
        self.ncols = ncols
        self.rank = rank
        self.basis = basis
        self.pivots = pivots
        self.free = free

    @property
    def dim(self) -> int:
        return len(self.basis)


def nullspace(matrix: RationalMatrix) -> NullspaceDescription:
    """Primitive integer kernel basis via the standard free-variable scheme:
    one basis vector per free column (free column set to 1, other frees 0)."""
    red, pivots = matrix.rref()
    free = [c for c in range(matrix.ncols) if c not in pivots]
    basis: List[Tuple[int, ...]] = []
    for fc in free:
        vec = [Fraction(0)] * matrix.ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red.rows[r][fc]
        basis.append(_primitive(vec))
    return NullspaceDescription(matrix.ncols, len(pivots), basis, pivots, free)


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


def positive_kernel_exists(matrix: RationalMatrix) -> bool:
    """Exact decision: does the kernel meet the open positive orthant?"""
    return positive_combination(nullspace(matrix)) is not None


def positive_integer_nullvector(matrix: RationalMatrix,
                                search_bound: int = 6) -> Optional[Tuple[int, ...]]:
    """A strictly positive integer kernel vector of ``matrix``, or None.

    The feasibility decision (kernel meets the open positive orthant) is
    exact, by Fourier-Motzkin elimination on the coordinates of a kernel
    basis.  When feasible, small integer combinations of the basis (entries
    up to ``search_bound``) are scanned for a lexicographically small witness;
    failing that, the Fourier-Motzkin point is cleared of denominators.
    """
    ns = nullspace(matrix)
    c = positive_combination(ns)
    if c is None:
        return None
    k = ns.dim
    ncols = ns.ncols

    def from_coeffs(coeffs) -> Tuple[Fraction, ...]:
        return tuple(
            sum((Fraction(coeffs[j]) * ns.basis[j][i] for j in range(k)), Fraction(0))
            for i in range(ncols)
        )

    witness = _primitive(from_coeffs(c))
    if any(x <= 0 for x in witness):  # primitive scaling cannot flip an all-positive vector
        witness = tuple(-x for x in witness)
    best = witness
    if k <= 3:
        span = range(-search_bound, search_bound + 1)
        for coeffs in product(span, repeat=k):
            if all(x == 0 for x in coeffs):
                continue
            vec = from_coeffs(coeffs)
            if all(x >= 1 and x == int(x) for x in vec):
                cand = tuple(int(x) for x in vec)
                if cand < best:
                    best = cand
    return best


def kernel_lattice_points(ns: NullspaceDescription, bound: int,
                          limit: int = 2_000_000) -> List[Tuple[int, ...]]:
    """All integer kernel vectors with every entry in [1, bound], sorted.

    Basis vector j of ``ns`` holds d_j != 0 at free column j and 0 at the
    other free columns, so a kernel vector with free entries v_j is
    sum_j (v_j / d_j) basis_j.  Over L = lcm(d_j) that is an integer
    combination; the scan runs over free entries in [1, bound] and keeps a
    vector when every pivot entry, divided by L, is an integer in range.
    """
    if ns.dim == 0:
        return []
    if bound ** ns.dim > limit:
        raise ValueError("lattice enumeration too large: %d^%d" % (bound, ns.dim))
    free = ns.free
    k = ns.dim
    if len(free) != k or any((ns.basis[j][fc] != 0) != (i == j)
                             for j in range(k) for i, fc in enumerate(free)):
        raise ValueError("degenerate kernel parametrization")
    diag = [ns.basis[j][free[j]] for j in range(k)]
    lcm_d = 1
    for d in diag:
        lcm_d = lcm_d * abs(d) // gcd(lcm_d, d)
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


def graph_matrix(edges: Sequence[Tuple[int, int]]) -> RationalMatrix:
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
    return RationalMatrix(rows)
