"""Rigidity constraints from the equivariant index of line bundles.

For a circle action whose fixed-point weight sums satisfy
``s_i = k0 * a_i + d`` with pairwise distinct integers ``a_i`` (the *levels*),
the index of a suitable line bundle power produces, for each fixed point,

    phi_i(t) = prod_{j != i} (1 - t^(a_i - a_j)) / prod_k (1 - t^(w_ik)),

which must be a genuine Laurent polynomial, and a decomposition
phi_i(t) = sum_s r_s(t) t^(s a_i) with universal Laurent polynomials

    r_s(t) = (-1)^s sum_i [ sum_{j_1<...<j_s, j_nu != i}
                  t^(-(a_{j_1}+...+a_{j_s})) ] / prod_k (1 - t^(w_ik)).

These r_s carry strong integrality information: r_0(1) is the Todd genus (1
for our manifolds), the values r_s(1) are symmetric under s -> l0 - s, vanish
for s > l0, and their sum computes the symplectic volume.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import WeightSystem
from .laurent import LaurentPolynomial, one_minus_t


def _denominator(weights: Iterable[int]) -> LaurentPolynomial:
    """prod_k (1 - t^(w_k))."""
    return prod(map(one_minus_t, weights), start=LaurentPolynomial.one())


def _fixed_point_sums(rows: Sequence[Sequence[Dict[int, int]]],
                      weights: Sequence[Sequence[int]]) -> List[LaurentPolynomial]:
    """For each row, sum_i row[i] / D_i exactly, where row[i] maps exponents
    to int coefficients and D_i = prod_k (1 - t^(w_ik)) over the weights at
    point i.  Raises :class:`NotLaurent` when a sum is not a Laurent
    polynomial, and ValueError on a zero weight.

    As 1 - t^(-u) = -t^(-u) (1 - t^u),
    D_i = (-1)^(q_i) t^(-u_i) prod_k (1 - t^|w_ik|), with q_i the number of
    negative weights at i and u_i the sum of their magnitudes.  All rows go
    over one common denominator, the lcm L of the D_i (:func:`_lcm`), and
    the cofactor of point i,

        L / D_i = (-1)^(q_i) t^(u_i) L / prod_k (1 - t^|w_ik|),

    is L divided exactly by its binomials.  The sum is N / L with
    N = sum_i row[i] L / D_i: the same rational function as over
    prod_i D_i, so it is a Laurent polynomial exactly when L divides N in
    Z[t, 1/t].  L is monic, so one exact division by L per row decides what
    the division by the full product decided, and raises NotLaurent in the
    same cases.
    """
    lcm = _lcm(weights)
    # (lowest exponent, coefficients) of each cofactor L / D_i
    cofactors = []
    for ws in weights:
        c = list(lcm) if sum(w < 0 for w in ws) % 2 == 0 else [-y for y in lcm]
        _divide_binomials(c, map(abs, ws))
        cofactors.append((-sum(w for w in ws if w < 0), c))
    divisor = LaurentPolynomial.from_dense(0, lcm)
    out = []
    for row in rows:
        terms = [(e + low, x, c) for value, (low, c) in zip(row, cofactors)
                 for e, x in value.items()]
        base = min((e for e, _, _ in terms), default=0)
        num = [0] * max((e + len(c) - base for e, _, c in terms), default=0)
        for e, x, c in terms:
            for k, y in enumerate(c, e - base):
                num[k] += x * y
        out.append(LaurentPolynomial.from_dense(base, num).divexact(divisor))
    return out


def _lcm(weights: Sequence[Sequence[int]]) -> List[int]:
    """Dense coefficients, from t^0 up, of the monic lcm of the
    prod_k (1 - t^|w_ik|) over the points i; ValueError on a zero weight.

    1 - t^u = -prod_{d | u} Phi_d, so that product is
    +-prod_d Phi_d^(mult_i(d)), mult_i(d) the number of weights at i that
    d divides, and the lcm is L = prod_d Phi_d^(m_d), m_d = max_i mult_i(d).
    As t^e - 1 = prod_{d | e} Phi_d, L = prod_e (t^e - 1)^(x_e) once
    sum_{e : d | e} x_e = m_d for every d; the x_e solve from the largest d
    down, and the binomials with x_e < 0 divide.  Over a dense list a
    product by 1 - t^e is the running difference c[k] -= c[k - e], a
    quotient the running sum c[k] += c[k - e].
    """
    mults = Counter()
    for ws in weights:
        if 0 in ws:
            raise ValueError("1 - t^0 is identically zero")
        mults |= Counter(d for w in ws for d in _divisors(abs(w)))
    powers: Dict[int, int] = {}
    for d in sorted(mults, reverse=True):
        powers[d] = mults[d] - sum(x for e, x in powers.items() if e % d == 0)
    # L = (-1)^(m_1) prod_e (1 - t^e)^(x_e), as sum_e x_e = m_1
    lcm = [1] if mults[1] % 2 == 0 else [-1]
    for e, x in powers.items():
        for _ in range(x):
            lcm += [0] * e
            for k in range(len(lcm) - 1, e - 1, -1):
                lcm[k] -= lcm[k - e]
    _divide_binomials(lcm, [e for e, x in powers.items() for _ in range(-x)])
    return lcm


def _divide_binomials(c: List[int], exps: Iterable[int]) -> None:
    """Divide the dense polynomial c in place by 1 - t^u for each u in
    ``exps``; every division must be exact."""
    for u in exps:
        for k in range(u, len(c)):
            c[k] += c[k - u]
        del c[len(c) - u:]


@cache
def _divisors(u: int) -> Tuple[int, ...]:
    """The positive divisors of u >= 1."""
    return tuple(d for d in range(1, u + 1) if u % d == 0)


def as_index(terms: Sequence[Tuple[LaurentPolynomial, Sequence[int]]]) -> LaurentPolynomial:
    """Evaluate  sum_i value_i / prod_k (1 - t^(-w_ik))  exactly.

    Each entry of ``terms`` is (value at the fixed point, weights there).
    The result must lie in Z[t, 1/t] for genuine index data; a nonzero
    remainder raises :class:`NotLaurent`.
    """
    row = [{0: v} if isinstance(v, int) else v.coeffs for v, _ in terms]
    return _fixed_point_sums([row], [[-w for w in ws] for _, ws in terms])[0]


@dataclass(frozen=True)
class LevelData:
    """Arithmetic progression structure of the weight sums: s_i = k0 a_i + d."""

    k0: int
    d: int
    a: Tuple[int, ...]


def derive_levels(ws: WeightSystem, k0: int) -> Optional[LevelData]:
    """Levels for a given k0, or None when the weight sums are not congruent
    mod k0 or the resulting a_i are not pairwise distinct.

    Normalization: d is the common residue of the weight sums in [0, k0).
    """
    if k0 < 1:
        raise ValueError("k0 must be positive")
    sums = ws.weight_sums()
    d = sums[0] % k0
    if any(s % k0 != d for s in sums):
        return None
    a = tuple((s - d) // k0 for s in sums)
    if len(set(a)) != len(a):
        return None
    return LevelData(k0=k0, d=d, a=a)


def available_levels(ws: WeightSystem) -> List[LevelData]:
    """All level structures with k0 from the number of fixed points down to 1."""
    levels = (derive_levels(ws, k0) for k0 in range(ws.num_points, 0, -1))
    return [lv for lv in levels if lv is not None]


def phi(ws: WeightSystem, levels: LevelData, i: int) -> LaurentPolynomial:
    """phi_i(t) = prod_{j != i} (1 - t^(a_i - a_j)) / prod_k (1 - t^(w_ik))."""
    a = levels.a
    numerator = prod((one_minus_t(a[i] - a[j]) for j in range(len(a)) if j != i),
                     start=LaurentPolynomial.one())
    return numerator.divexact(_denominator(ws.points[i]))


def r_sequence(ws: WeightSystem, levels: LevelData) -> List[LaurentPolynomial]:
    """The Laurent polynomials r_0, ..., r_N (N + 1 = number of fixed points).
    Raises :class:`NotLaurent` when some r_s is not a Laurent polynomial.

    They satisfy phi_k = sum_s r_s t^(s a_k) by construction.  Row s at
    point i is (-1)^s e_s(t^(-a_j) : j != i), so for every k
    sum_s row_s(i) t^(s a_k) = prod_{j != i} (1 - t^(a_k - a_j)), and

        sum_s r_s t^(s a_k) = sum_i prod_{j != i} (1 - t^(a_k - a_j))
                                    / prod_m (1 - t^(w_im)).

    For i != k the product has the factor j = k, 1 - t^0 = 0, so only the
    term i = k is left, and it is phi_k.  The identity therefore holds
    exactly once the divisions that give the r_s are exact.
    """
    a = levels.a
    # column i holds the coefficients of X^0, ..., X^N in
    # prod_{j != i} (1 - X t^(-a_j)), built one factor at a time
    columns = []
    for i in range(len(a)):
        gen = [{0: 1}]
        for j, aj in enumerate(a):
            if j != i:
                gen.append({})
                for s in range(len(gen) - 1, 0, -1):
                    out = gen[s]
                    for e, c in gen[s - 1].items():
                        out[e - aj] = out.get(e - aj, 0) - c
        columns.append(gen)
    return _fixed_point_sums(list(zip(*columns)), ws.points)


def r_values_at_one(ws: WeightSystem, levels: LevelData) -> List[int]:
    """r_0(1), ..., r_N(1); raises :class:`NotLaurent` as r_sequence does."""
    return [r.eval_one() for r in r_sequence(ws, levels)]


def cp_check(ws: WeightSystem, levels: LevelData) -> bool:
    """When k0 = n + 1, the weight multiset at each point must coincide with
    the level differences { a_i - a_j : j != i } for projective-space data."""
    for i in range(ws.num_points):
        diffs = sorted(levels.a[i] - levels.a[j] for j in range(ws.num_points) if j != i)
        if list(ws.points[i]) != diffs:
            return False
    return True


# ---------------------------------------------------------------------------
# Dimension-8 Diophantine consequences (n = 4, five fixed points)
# ---------------------------------------------------------------------------

# The first Chern constants left in dimension 8: of minimal_divisors(4) =
# [5, 2, 1], C1 = 2 fails because the quartic, with the vanishing
# identities, forces m = (97 +- sqrt(97)) / 48, which is never rational.
DIM8_CONSTANTS = (1, 5)


def todd_quartic(c1: int, l: int, m: Fraction) -> Fraction:
    """l^2 (-C1^4 + 4 C1^2 m + 3 m^2) - 675, which must vanish for genuine
    8-dimensional data with first Chern constant C1 and volume l^2."""
    c1 = Fraction(c1)
    return Fraction(l) ** 2 * (-c1 ** 4 + 4 * c1 ** 2 * m + 3 * m ** 2) - 675


def exp_r_values(c1: int, l: int, m: Fraction) -> List[Fraction]:
    """Closed forms of r_1(1), ..., r_4(1) in dimension 8 as functions of the
    first Chern constant C1, the volume root l and the Chern parameter m."""
    c1f, l2, m = Fraction(c1), Fraction(l) ** 2, Fraction(m)
    return [
        -4 + l2 / 24 * (c1f * m + c1f ** 2 + m + 2 * c1f + 1),
        6 + l2 / 24 * (-3 * c1f * m - c1f ** 2 - m + 6 * c1f + 11),
        -4 + l2 / 24 * (3 * c1f * m - c1f ** 2 - m - 6 * c1f + 11),
        1 + l2 / 24 * (-c1f * m + c1f ** 2 + m - 2 * c1f + 1),
    ]


def dim8_solver(c1: int, lmax: int = 100) -> List[Tuple[int, Fraction]]:
    """Rational solutions (l, m) with l in [1, lmax], m > 0, of the quartic
    constraint for the given first Chern constant; none unless C1 is in
    DIM8_CONSTANTS.
    """
    if c1 not in DIM8_CONSTANTS:
        return []
    # for c1 = 5 the volume identity pins the symplectic volume to 1, so l = 1
    l_range = [1] if c1 == 5 else range(1, lmax + 1)
    out: List[Tuple[int, Fraction]] = []
    for l in l_range:
        # 3 m^2 + 4 C1^2 m = C1^4 + 675 / l^2, from the quartic: l^2 times its
        # discriminant is 28 C1^4 l^2 + 8100, so m is rational exactly when that
        # is a square, and then m = (root - 4 C1^2 l) / (6 l) is the root above 0
        disc = 28 * c1 ** 4 * l * l + 8100
        root = isqrt(disc)
        if root * root == disc and root > 4 * c1 * c1 * l:
            out.append((l, Fraction(root - 4 * c1 * c1 * l, 6 * l)))
    return out
