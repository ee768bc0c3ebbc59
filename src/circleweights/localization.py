"""Exact localization identities for fixed-point weight data.

For an action with isolated fixed points, every equivariant Chern-monomial
integral reduces to a sum over fixed points of elementary symmetric
polynomials of the weights; monomials of total degree < n must integrate to
zero, degree-n ones give the Chern numbers.  These identities are necessary
conditions on a weight system and are the main engine used to reject
candidates produced by the combinatorial search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm, prod
from typing import Iterator, List, Sequence, Tuple

from .core import WeightSystem


class DegenerateWeights(ValueError):
    """A fixed point carries a zero weight, so localization denominators vanish."""


def _symmetric_functions(values: Sequence[int], k: int) -> List[int]:
    """sigma_0, ..., sigma_k of a sequence of integers, exactly."""
    coeffs = [1] + [0] * k
    for v in values:
        for i in range(k, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs


def _over_lcm(ws: WeightSystem, top: int) -> Tuple[List[Tuple[int, List[int]]], int]:
    """The points over one denominator: the lcm L of the products of the
    weights at each point, and for each point the pair (L / that product,
    sigma_0..sigma_top of its weights).  A localization sum is then
    sum_i (L / prod(W_i)) prod_k sigma_{j_k}(W_i), over L."""
    products = []
    for p in ws.points:
        if 0 in p:
            raise DegenerateWeights("zero weight at a fixed point")
        products.append(prod(p))
    den = lcm(*products)
    return [(den // e, _symmetric_functions(p, top)) for e, p in zip(products, ws.points)], den


def _numerator(points: List[Tuple[int, List[int]]], multidegree: Sequence[int]) -> int:
    return sum(c * prod([sigma[j] for j in multidegree]) for c, sigma in points)


def abbv_sum(ws: WeightSystem, multidegree: Sequence[int]) -> Fraction:
    """The localization sum  sum_i  prod_k sigma_{j_k}(W_i) / sigma_n(W_i)
    for a multidegree (j_1, ..., j_r); the empty multidegree gives
    sum_i 1/sigma_n(W_i).  Summed in integers over one denominator (see
    :func:`_over_lcm`)."""
    points, den = _over_lcm(ws, max(multidegree, default=0))
    return Fraction(_numerator(points, multidegree), den)


@lru_cache(maxsize=None)
def zero_multidegrees(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All multidegrees (j_1 <= ... <= j_r, j_k >= 1) of total degree < n,
    including the empty one.  Built once per n, as a tuple, which no caller
    can change."""
    out: List[Tuple[int, ...]] = [()]
    for r in range(1, n):
        for combo in combinations_with_replacement(range(1, n), r):
            if sum(combo) < n:
                out.append(combo)
    return tuple(sorted(set(out), key=lambda c: (len(c), c)))


def expected_c1cn1(ws_or_profile) -> int:
    """The value of the c_1 c_{n-1} Chern number forced by the index counts:
    sum_p N_p * (6 p (p - 1) + n (5 - 3 n) / 2).  It is an integer for
    every n: n(5 - 3n) has the parity of n(1 - n), which is even."""
    profile = ws_or_profile.profile if isinstance(ws_or_profile, WeightSystem) else ws_or_profile
    n = profile.n
    return sum(count * (6 * p * (p - 1) + n * (5 - 3 * n) // 2)
               for p, count in enumerate(profile.counts))


@dataclass
class ChernReport:
    """Outcome of the full localization battery on one weight system."""

    n: int
    zero_failures: List[Tuple[Tuple[int, ...], Fraction]]
    c_n: Fraction
    c1_cn1: Fraction
    expected_c1_cn1: int
    chi_y: Tuple[int, ...]  # N_0, ..., N_n of the chi_y genus sum_p N_p (-y)^p

    @property
    def ok(self) -> bool:
        if self.zero_failures or self.c1_cn1 != self.expected_c1_cn1:
            return False
        return self.c_n == sum(self.chi_y)


def in_index_order(ws: WeightSystem) -> bool:
    """Whether ``ws`` is minimal with point i of Morse index i, the setting
    of :func:`minimal_chern_constants`."""
    return ws.profile.lambdas == tuple(range(ws.n + 1))


def point_products(points: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """Per point, the product of its negative weights and of its negated
    positive weights, in any order of the weights at a point: the last two
    arguments of :func:`chern_constant_parts`."""
    return ([prod([w for w in p if w < 0]) for p in points],
            [prod([-w for w in p if w > 0]) for p in points])


@lru_cache(maxsize=1)
def _chern_numerators(sums: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """For i = 1, ..., N, the numerators prod_{j<i} (s_i - s_j) of C_i and
    prod_{k>N-i} (s_k - s_{N-i}) of the reversed action's C_i (see
    :func:`chern_constant_parts`), from the weight sums s_0, ..., s_N alone.
    The last result is kept: the instances of one choice of edge weights
    share their sums, as cycles add +c and -c at one point."""
    top = len(sums) - 1
    return tuple((prod([sums[i] - s for s in sums[:i]]),
                  prod([s - sums[top - i] for s in sums[top - i + 1:]]))
                 for i in range(1, top + 1))


def chern_constant_parts(sums: Tuple[int, ...], negatives: Sequence[int],
                         positives: Sequence[int]) -> Iterator[Tuple[int, int, int, int]]:
    """For i = 1, ..., N, the integer numerator and denominator of C_i (see
    :func:`minimal_chern_constants`), then those of C_i of the reversed
    action, for a system in index order with points P_0, ..., P_N, weight
    sums ``sums``, and at each point the product ``negatives`` of its
    negative weights and ``positives`` of its negated positive weights
    (:func:`point_products`).

    Point i of the reversed action is -P_{N-i}: its weight sum is -s_{N-i}
    and its negative weights are the negated positive weights of P_{N-i}.
    So its C_i is prod_{k>N-i} (s_k - s_{N-i}) / prod_{w>0 in P_{N-i}} (-w),
    read from the same parts; no reversed system is built."""
    top = len(sums) - 1
    for i, (num, rnum) in enumerate(_chern_numerators(sums), 1):
        yield num, negatives[i], rnum, positives[top - i]


def minimal_chern_constants(ws: WeightSystem) -> List[Fraction]:
    """The constants C_i = prod_{j<i} (s_i - s_j) / Lambda_i^- of a minimal
    weight system in index order (s_i = weight sum, Lambda_i^- = product of
    the negative weights at P_i); C_0 = 1.  For geometric data each C_i is a
    positive integer and C_1 divides n(n+1)^2/2.  The values are the exact
    quotients of the integer parts from :func:`chern_constant_parts`;
    ValueError for a system not in index order."""
    if not in_index_order(ws):
        raise ValueError("Chern constants need a minimal system in index order, got "
                         "indices %s" % (ws.profile.lambdas,))
    parts = chern_constant_parts(ws.weight_sums(), *point_products(ws.points))
    return [Fraction(1)] + [Fraction(num, den) for num, den, _, _ in parts]


def chern_battery(ws: WeightSystem) -> ChernReport:
    """Run every localization identity available for ``ws`` and report.
    Each sum is an int numerator over one denominator (see
    :func:`_over_lcm`); a Fraction is built only for a value reported."""
    n = ws.n
    points, den = _over_lcm(ws, n)
    failures = []
    for md in zero_multidegrees(n):
        num = _numerator(points, md)
        if num:
            failures.append((md, Fraction(num, den)))
    c_n = Fraction(_numerator(points, (n,)), den)
    c1_cn1 = Fraction(_numerator(points, (1, n - 1)), den) if n >= 2 else c_n
    return ChernReport(
        n=n,
        zero_failures=failures,
        c_n=c_n,
        c1_cn1=c1_cn1,
        expected_c1_cn1=expected_c1cn1(ws),
        chi_y=ws.profile.counts,
    )
