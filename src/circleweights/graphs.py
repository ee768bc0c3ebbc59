"""Directed multigraphs attached to fixed-point data.

A multigraph on the fixed points pairs each positive weight at a point with an
equal negative weight at another (or the same) point: an edge e runs from the
point carrying +w(e) to the point carrying -w(e); an edge from a point to
itself is a *cycle*.  Counting cycles once as outgoing and once as incoming,
every vertex i has out-degree n - lambda_i and in-degree lambda_i.

Orientation conventions relative to the Morse indices:

* *nonnegative*: every edge satisfies lambda(source) <= lambda(target)
  (cycles trivially qualify);
* *positive*: strict inequality, so cycles are excluded.

The *magnitude* of a non-cycle edge e with weight w(e) is
m(e) = (sum of weights at source - sum of weights at target) / w(e); cycles
get magnitude 0.  A *pairing* of a weight system is a weighted multigraph: its
sorted tuple of (source, target, weight) edges.  It is *integral* when every
magnitude is an integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import index
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from .core import FixedPointProfile, WeightSystem, validate_profile

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, int]  # (source, target, weight > 0)
Pairing = Tuple[WeightedEdge, ...]  # sorted


class PairingMismatch(ValueError):
    """Positive and negative weights cannot be matched up."""


@dataclass(frozen=True)
class Multigraph:
    """Unweighted directed multigraph on the fixed points of a profile."""

    n: int
    lambdas: Tuple[int, ...]
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        object.__setattr__(self, "lambdas", tuple(map(index, self.lambdas)))
        edges = tuple(sorted((index(i), index(j)) for i, j in self.edges))
        object.__setattr__(self, "edges", edges)

    @property
    def num_points(self) -> int:
        return len(self.lambdas)

    def cycles(self) -> Tuple[Edge, ...]:
        return tuple(e for e in self.edges if e[0] == e[1])

    def reversed(self) -> "Multigraph":
        """Reverse every edge and relabel vertex i as N - i, which carries
        index lambda to n - lambda on a (sorted, palindromic) profile."""
        top = self.num_points - 1
        return Multigraph(self.n, self.lambdas, tuple((top - j, top - i) for i, j in self.edges))

    def canonical_key(self, dedup: str = "reversal") -> Tuple[Edge, ...]:
        if dedup == "none":
            return self.edges
        if dedup == "reversal":
            return min(self.edges, self.reversed().edges)
        raise ValueError("unknown dedup mode %r" % (dedup,))

    def to_json(self) -> dict:
        return {"n": self.n, "lambdas": list(self.lambdas), "edges": [list(e) for e in self.edges]}

    def components(self) -> List[List[int]]:
        """Connected components of the graph with cycles removed, as sorted
        lists of indices into ``edges`` (cycle edges are not in any)."""
        idx = [k for k, e in enumerate(self.edges) if e[0] != e[1]]
        by_vertex: Dict[int, List[int]] = {}
        for k in idx:
            for v in self.edges[k]:
                by_vertex.setdefault(v, []).append(k)
        find = union_find(by_vertex.values())
        comps: Dict[int, List[int]] = {}
        for k in idx:
            comps.setdefault(find(k), []).append(k)
        return sorted(sorted(c) for c in comps.values())


def union_find(groups: Iterable[Sequence[Hashable]]) -> Callable[[Hashable], Hashable]:
    """Join the items of each group into one class; return ``find``, which
    maps every item of the groups to the representative of its class."""
    parent: Dict[Hashable, Hashable] = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in groups:
        for x in group:
            parent.setdefault(x, x)
        for x in group[1:]:
            ra, rb = find(group[0]), find(x)
            if ra != rb:
                parent[rb] = ra
    return find


def _edge_multisets(out_deg: Sequence[int], in_deg: Sequence[int],
                    allowed: Callable[[int, int], bool]) -> List[Tuple[Edge, ...]]:
    """Every multiset of edges (i, j), each with ``allowed(i, j)``, in which
    i is the source of out_deg[i] edges and j the target of in_deg[j], as a
    sorted tuple.  The cells (i, j) that can carry edges are walked in
    row-major order, each taking a count; the last cell of a row takes what
    the row has left, and the last cell of a column what the column has."""
    npts = len(out_deg)
    cells = [(i, j) for i in range(npts) if out_deg[i]
             for j in range(npts) if in_deg[j] and allowed(i, j)]
    last_row = {i: k for k, (i, _) in enumerate(cells)}
    last_col = {j: k for k, (_, j) in enumerate(cells)}
    # a row or column with degree but no cell cannot be filled
    if len(last_row) < npts - out_deg.count(0) or len(last_col) < npts - in_deg.count(0):
        return []
    row, col = list(out_deg), list(in_deg)
    found: List[Tuple[Edge, ...]] = []

    def walk(k: int, edges: Tuple[Edge, ...]) -> None:
        if k == len(cells):
            found.append(edges)
            return
        i, j = cells[k]
        r, c = row[i], col[j]
        for v in range(max(r if last_row[i] == k else 0, c if last_col[j] == k else 0),
                       min(r, c) + 1):
            row[i], col[j] = r - v, c - v
            walk(k + 1, edges + ((i, j),) * v)
        row[i], col[j] = r, c

    walk(0, ())
    return found


def _edge_filter(lambdas: Sequence[int], mode: str):
    if mode == "all":
        return lambda i, j: True
    if mode == "nonneg":
        return lambda i, j: lambdas[i] <= lambdas[j]
    if mode == "positive":
        return lambda i, j: lambdas[i] < lambdas[j]
    raise ValueError("unknown edge filter %r" % (mode,))


def enumerate_multigraphs(profile: FixedPointProfile, mode: str = "nonneg",
                          dedup: str = "reversal") -> List[Multigraph]:
    """All multigraphs with the degree sequence of ``profile``, optionally
    restricted by orientation ``mode`` and deduplicated under reversal.

    The result is sorted by canonical key, so output order is stable.
    """
    validate_profile(profile)
    allowed = _edge_filter(profile.lambdas, mode)
    n = profile.n
    out_deg = [n - lam for lam in profile.lambdas]
    in_deg = list(profile.lambdas)
    seen: Dict[Tuple[Edge, ...], Multigraph] = {}
    for edges in _edge_multisets(out_deg, in_deg, allowed):
        g = Multigraph(n, profile.lambdas, edges)
        seen.setdefault(g.canonical_key(dedup), g)
    return [seen[k] for k in sorted(seen)]


def enumerate_pairings(ws: WeightSystem, mode: str = "all") -> List[Pairing]:
    """All pairings of the weight system ``ws``, sorted.

    Each pairing matches every positive weight occurrence +w with a negative
    occurrence -w somewhere; distinct matchings inducing the same weighted
    edge multiset are returned once.  Raises :class:`PairingMismatch` when
    the positive and negative weight multisets do not agree.
    """
    allowed = _edge_filter(ws.profile.lambdas, mode)
    return _pairings(ws, lambda w: allowed)


def _pairings(ws: WeightSystem, allowed_for: Callable[[int], Callable[[int, int], bool]]
              ) -> List[Pairing]:
    """The pairings of ``ws`` whose every edge (i, j) of weight w satisfies
    ``allowed_for(w)(i, j)``, each a sorted tuple of (i, j, w) edges, in
    sorted order.  Each appears once: a pairing takes its edges of weight w
    from one edge multiset, which runs from the points carrying +w to those
    carrying -w."""
    counts = [Counter(p) for p in ws.points]
    values = sorted({abs(w) for c in counts for w in c})
    options_per_value: List[List[Tuple[Edge, ...]]] = []
    for w in values:
        pos = [c.get(w, 0) for c in counts]
        neg = [c.get(-w, 0) for c in counts]
        if sum(pos) != sum(neg):
            raise PairingMismatch(
                "weight %d occurs %d times positively but %d times negatively"
                % (w, sum(pos), sum(neg))
            )
        options_per_value.append(_edge_multisets(pos, neg, allowed_for(w)))
    return sorted(tuple(sorted((i, j, w) for w, edges in zip(values, combo) for i, j in edges))
                  for combo in product(*options_per_value))


def magnitudes_from_weights(ws: WeightSystem, pairing: Pairing) -> Tuple[Fraction, ...]:
    """Edge magnitudes (difference of endpoint weight sums over edge weight);
    cycles get magnitude 0.  Order matches ``pairing``."""
    sums = ws.weight_sums()
    out = []
    for i, j, w in pairing:
        if i == j:
            out.append(Fraction(0))
        else:
            out.append(Fraction(sums[i] - sums[j], w))
    return tuple(out)


@lru_cache(maxsize=1)
def integral_multigraphs(ws: WeightSystem, mode: str = "all") -> List[Pairing]:
    """Pairings of ``ws`` whose every non-cycle edge (i, j) of weight w is
    integral and congruent: its magnitude is an integer (the computable
    relaxation of geometric integrality), and the weight multisets at i and j
    agree modulo w (the fixed-point set of the order-w cyclic subgroup joins
    the endpoints, forcing equal residues).  Both tests look at one edge at
    a time, so they prune the pairing enumeration edge by edge.

    The last result is kept: asked again with the same arguments, as for
    the signatures of an instance that passed vetting, it returns the same
    list, which callers must not change."""
    orient = _edge_filter(ws.profile.lambdas, mode)
    sums = ws.weight_sums()

    def allowed_for(w):
        # only the points carrying +w or -w end an edge of weight w
        residues = {i: sorted(x % w for x in p) for i, p in enumerate(ws.points)
                    if w in p or -w in p}
        return lambda i, j: orient(i, j) and (
            i == j or (sums[i] - sums[j]) % w == 0 and residues[i] == residues[j])

    return _pairings(ws, allowed_for)
