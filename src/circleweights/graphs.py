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
get magnitude 0.  A weighted multigraph is *integral* when every magnitude is
an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import FixedPointProfile, WeightSystem, validate_profile

Edge = Tuple[int, int]
WeightedEdge = Tuple[int, int, int]  # (source, target, weight > 0)


class PairingMismatch(ValueError):
    """Positive and negative weights cannot be matched up."""


@dataclass(frozen=True)
class Multigraph:
    """Unweighted directed multigraph on the fixed points of a profile."""

    n: int
    lambdas: Tuple[int, ...]
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        object.__setattr__(self, "edges", tuple(sorted((int(i), int(j)) for i, j in self.edges)))

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

    @classmethod
    def from_json(cls, data: dict) -> "Multigraph":
        return cls(int(data["n"]), tuple(data["lambdas"]), tuple((e[0], e[1]) for e in data["edges"]))

    def components(self) -> List[List[int]]:
        """Connected components of the graph with cycles removed, as sorted
        lists of indices into ``edges`` (cycle edges are not in any)."""
        idx = [k for k, e in enumerate(self.edges) if e[0] != e[1]]
        parent = {k: k for k in idx}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        by_vertex: Dict[int, List[int]] = {}
        for k in idx:
            for v in self.edges[k]:
                by_vertex.setdefault(v, []).append(k)
        for group in by_vertex.values():
            for k in group[1:]:
                ra, rb = find(group[0]), find(k)
                if ra != rb:
                    parent[rb] = ra
        comps: Dict[int, List[int]] = {}
        for k in idx:
            comps.setdefault(find(k), []).append(k)
        return sorted(sorted(c) for c in comps.values())


@dataclass(frozen=True)
class WeightedMultigraph:
    """Multigraph together with the positive weight carried by each edge."""

    n: int
    lambdas: Tuple[int, ...]
    wedges: Tuple[WeightedEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        object.__setattr__(self, "wedges", tuple(sorted(tuple(map(int, e)) for e in self.wedges)))

    @property
    def graph(self) -> Multigraph:
        return Multigraph(self.n, self.lambdas, tuple((i, j) for i, j, _ in self.wedges))

    def weight_system(self) -> WeightSystem:
        pts: List[List[int]] = [[] for _ in self.lambdas]
        for i, j, w in self.wedges:
            if i == j:
                pts[i].extend([w, -w])
            else:
                pts[i].append(w)
                pts[j].append(-w)
        return WeightSystem(self.n, tuple(tuple(sorted(p)) for p in pts))


def _degree_matrices(row_sums: Sequence[int], col_sums: Sequence[int],
                     allowed) -> Iterator[List[List[int]]]:
    """All nonnegative integer matrices with the given row/column sums, zero
    outside ``allowed(i, j)`` positions."""
    npts = len(row_sums)

    def rows(i: int, remaining_cols: List[int]) -> Iterator[List[List[int]]]:
        if i == npts:
            if all(c == 0 for c in remaining_cols):
                yield []
            return
        cols = [j for j in range(npts) if allowed(i, j) and remaining_cols[j] > 0]

        def fill(pos: int, left: int, row: List[int]) -> Iterator[List[int]]:
            if pos == len(cols):
                if left == 0:
                    yield row[:]
                return
            j = cols[pos]
            hi = min(left, remaining_cols[j])
            for v in range(hi + 1):
                row[j] = v
                yield from fill(pos + 1, left - v, row)
            row[j] = 0

        for row in fill(0, row_sums[i], [0] * npts):
            rem = [remaining_cols[j] - row[j] for j in range(npts)]
            for tail in rows(i + 1, rem):
                yield [row] + tail

    yield from rows(0, list(col_sums))


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
    for mat in _degree_matrices(out_deg, in_deg, allowed):
        edges: List[Edge] = []
        for i in range(profile.num_points):
            for j in range(profile.num_points):
                edges.extend([(i, j)] * mat[i][j])
        g = Multigraph(n, profile.lambdas, tuple(edges))
        seen.setdefault(g.canonical_key(dedup), g)
    return [seen[k] for k in sorted(seen)]


def enumerate_pairings(ws: WeightSystem, mode: str = "all") -> List[WeightedMultigraph]:
    """All weighted multigraphs realizing the weight system ``ws``.

    Each pairing matches every positive weight occurrence +w with a negative
    occurrence -w somewhere; distinct pairings inducing the same weighted edge
    multiset are returned once.  Raises :class:`PairingMismatch` when the
    positive and negative weight multisets do not agree.
    """
    lambdas = ws.profile.lambdas
    allowed = _edge_filter(lambdas, mode)
    npts = ws.num_points
    values = sorted({abs(w) for p in ws.points for w in p})
    options_per_value: List[List[Tuple[WeightedEdge, ...]]] = []
    for w in values:
        pos = [sum(1 for x in p if x == w) for p in ws.points]
        neg = [sum(1 for x in p if x == -w) for p in ws.points]
        if sum(pos) != sum(neg):
            raise PairingMismatch(
                "weight %d occurs %d times positively but %d times negatively"
                % (w, sum(pos), sum(neg))
            )
        opts = []
        for mat in _degree_matrices(pos, neg, allowed):
            chunk: List[WeightedEdge] = []
            for i in range(npts):
                for j in range(npts):
                    chunk.extend([(i, j, w)] * mat[i][j])
            opts.append(tuple(chunk))
        options_per_value.append(opts)
    seen: Dict[Tuple[WeightedEdge, ...], WeightedMultigraph] = {}
    for combo in product(*options_per_value):
        wedges = tuple(e for chunk in combo for e in chunk)
        g = WeightedMultigraph(ws.n, lambdas, wedges)
        seen.setdefault(g.wedges, g)
    return [seen[k] for k in sorted(seen)]


def graph_from_pairing(ws: WeightSystem, wedges: Sequence[WeightedEdge]) -> WeightedMultigraph:
    """Build the weighted multigraph for an explicit pairing, verifying that
    it consumes exactly the weights of ``ws``."""
    g = WeightedMultigraph(ws.n, ws.profile.lambdas, tuple(wedges))
    if g.weight_system() != ws:
        raise PairingMismatch("pairing does not reproduce the weight system")
    return g


def magnitudes_from_weights(ws: WeightSystem, g: WeightedMultigraph) -> Tuple[Fraction, ...]:
    """Edge magnitudes (difference of endpoint weight sums over edge weight);
    cycles get magnitude 0.  Order matches ``g.wedges``."""
    sums = ws.weight_sums()
    out = []
    for i, j, w in g.wedges:
        if i == j:
            out.append(Fraction(0))
        else:
            out.append(Fraction(sums[i] - sums[j], w))
    return tuple(out)


def is_integral(ws: WeightSystem, g: WeightedMultigraph) -> bool:
    return all(m.denominator == 1 for m in magnitudes_from_weights(ws, g))


def has_congruent_endpoints(ws: WeightSystem, g: WeightedMultigraph) -> bool:
    """Stronger arithmetic test: for every edge of weight w > 1 the endpoint
    weight multisets must agree modulo w (fixed-point sets of the order-w
    cyclic subgroup connect the endpoints, forcing equal residues)."""
    for i, j, w in g.wedges:
        if i == j or w == 1:
            continue
        ri = sorted(x % w for x in ws.points[i])
        rj = sorted(x % w for x in ws.points[j])
        if ri != rj:
            return False
    return True


def integral_multigraphs(ws: WeightSystem, mode: str = "all",
                         congruent: bool = False) -> List[WeightedMultigraph]:
    """Pairings of ``ws`` whose magnitudes are all integers (the computable
    relaxation of geometric integrality); with ``congruent=True`` the
    residue-multiset test of :func:`has_congruent_endpoints` is added."""
    out = []
    for g in enumerate_pairings(ws, mode):
        if not is_integral(ws, g):
            continue
        if congruent and not has_congruent_endpoints(ws, g):
            continue
        out.append(g)
    return out
