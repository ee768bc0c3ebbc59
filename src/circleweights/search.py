"""The combinatorial search for admissible weight systems.

Pipeline, per fixed-point profile:

1. enumerate the multigraph classes with the right degree sequence;
2. for each graph, stream integer magnitude labelings summing to the
   magnitude-sum invariant of the profile (optionally, per divisor C of that
   invariant, labelings that are C times positive integers, with the first
   and last edge pinned to C);
3. keep labelings m for which every connected component of
   A(Gamma) - diag(m) is singular with kernel meeting the open positive
   orthant -- these are the candidate *weight families*;
4. instantiate small positive integer witnesses from the kernels, vet every
   instance against the arithmetic lemmas, localization identities and index
   constraints, and regroup the survivors into canonical families.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from math import gcd, isqrt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    FixedPointProfile,
    ProfileError,
    WeightSystem,
    minimal_divisors,
    validate_profile,
    weight_system_checks,
)
from .graphs import (
    Multigraph,
    Pairing,
    enumerate_multigraphs,
    integral_multigraphs,
    union_find,
)
from .linalg import (
    NullspaceDescription,
    graph_matrix,
    int_determinant,
    kernel_lattice_points,
    meets_positive_orthant,
    nullspace,
    positive_kernel_exists,
)
from .localization import (
    chern_battery,
    chern_constant_parts,
    expected_c1cn1,
    in_index_order,
    point_products,
)
from .hattori import DIM8_CONSTANTS, derive_levels, r_values_at_one
from .laurent import NotLaurent


class CheckpointMismatch(Exception):
    """A checkpoint file was not written for this profile, these options and
    this package source, is not a checkpoint file at all (a directory, say),
    or sits in a directory that does not exist."""


def magnitude_sum(profile: FixedPointProfile) -> int:
    """Sum of all edge magnitudes, an invariant of the profile alone: the
    c_1 c_{n-1} target expected_c1cn1 of a valid profile; n(n+1)^2/2 when
    minimal."""
    validate_profile(profile)
    return expected_c1cn1(profile)


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the labeling search.

    bound_d         None for the nonnegative search (labels >= 1 on non-cycle
                    edges for minimal profiles, >= 0 otherwise, one search per
                    divisor branch); D for the bounded search (|m| <= 2D on
                    every edge, graphs and pairings in every orientation, no
                    divisor branches).
    divisor_c       force a single divisor branch C of the nonnegative search;
                    None = loop over all.  Refused with bound_d.
    dim8_strict     restrict C (and the vetted first Chern constant) to
                    DIM8_CONSTANTS when n = 4.
    witness_bound   max entry of kernel lattice points instantiated.
    max_labelings   node budget for the labeling search tree; None = none.
    """

    bound_d: Optional[int] = None
    divisor_c: Optional[int] = None
    dim8_strict: bool = False
    witness_bound: int = 12
    max_labelings: Optional[int] = None

    def __post_init__(self):
        for name in ("bound_d", "divisor_c", "max_labelings", "witness_bound"):
            value = getattr(self, name)
            if value is not None:
                value = operator.index(value)
                if value < 1:
                    raise ValueError("%s must be at least 1, got %s" % (name, value))
                object.__setattr__(self, name, value)
        if not isinstance(self.dim8_strict, bool):
            raise TypeError("dim8_strict must be a bool, got %r" % (self.dim8_strict,))
        if self.bound_d is not None and self.divisor_c is not None:
            raise ValueError("divisor_c %s applies only to the nonnegative search, not with "
                             "bound_d %s" % (self.divisor_c, self.bound_d))

    @property
    def pair_mode(self) -> str:
        """Orientation filter for the graphs and pairings of this search."""
        return "nonneg" if self.bound_d is None else "all"

    def to_json(self) -> dict:
        return asdict(self)


# the weights that some edges put at each fixed point, and their gcd there
Part = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


def _share(npts: int, ends: Sequence[Tuple[int, int]], weights: Iterable[int]) -> Part:
    """The part of edges with the endpoint pairs ``ends`` and the weights
    ``weights``, on ``npts`` points."""
    pts: List[List[int]] = [[] for _ in range(npts)]
    for (i, j), w in zip(ends, weights):
        pts[i].append(w)
        pts[j].append(-w)
    return tuple(map(tuple, pts)), tuple(gcd(*p) for p in pts)


@dataclass
class WeightFamily:
    """A graph with a magnitude labeling whose linear system is singular with
    a positive kernel; weights of the edges form the kernel (cycles free).
    ``instances`` holds the vetted instances of a classified family, sorted
    by their points; a search candidate has none."""

    graph: Multigraph
    magnitudes: Tuple[int, ...]
    comp_kernels: List[NullspaceDescription]
    instances: List[WeightSystem] = field(default_factory=list)

    def kernel_dim(self) -> int:
        return sum(k.dim for k in self.comp_kernels)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "magnitudes": list(self.magnitudes),
            "kernel_dim": self.kernel_dim(),
            "parametric_weights": self.parametric_weights(),
            "instance_count": len(self.instances),
            "sample_instances": [ws.to_json() for ws in self.instances[:5]],
        }

    def witness_instances(self, bound: int) -> List[Part]:
        """The edge parts of the family's witnesses: for every choice of a
        kernel lattice point per component (kernel_lattice_points, which
        may lower ``bound``), in itertools.product order over the
        components, the weights the edges, in component order, put at each
        fixed point and their gcd there (0 at a point that carries only
        cycles).  A witness is an edge part with one of cycle_parts: the
        weights at each point side by side, and the gcd of the two gcds."""
        npts = self.graph.num_points
        ends = [self.graph.edges[k] for comp in self.graph.components() for k in comp]
        return [_share(npts, ends, itertools.chain.from_iterable(choice))
                for choice in itertools.product(*(kernel_lattice_points(ker, bound)
                                                  for ker in self.comp_kernels))]

    def cycle_parts(self, cycle_bound: int = 4) -> List[Part]:
        """The same for the cycles, each of weight in [1, cycle_bound], in
        itertools.product order over the cycles: a cycle of weight c puts c
        and -c at its point.  One part, with no weights, for a graph
        without cycles."""
        cycles = self.graph.cycles()
        return [_share(self.graph.num_points, cycles, weights)
                for weights in itertools.product(range(1, cycle_bound + 1), repeat=len(cycles))]

    def parametric_weights(self) -> List[List[str]]:
        """Human-readable parametric weights at each point: edge weights are
        linear forms in free parameters b[1], b[2], ... (cycles get c[k]),
        each printed at the edge's source and, negated, at its target."""
        edges = self.graph.edges
        # each edge's weight as (coefficient, parameter) pairs
        forms: List[List[Tuple[int, str]]] = [[] for _ in edges]
        names = ("b[%d]" % t for t in itertools.count(1))
        for comp, ker in zip(self.graph.components(), self.comp_kernels):
            # zip draws a name only for a basis vector: the next component
            # continues the numbering
            for vec, name in zip(ker.basis, names):
                for k, c in zip(comp, vec):
                    if c:
                        forms[k].append((c, name))
        for t, k in enumerate((k for k, (i, j) in enumerate(edges) if i == j), 1):
            forms[k] = [(1, "c[%d]" % t)]
        points: List[List[str]] = [[] for _ in self.graph.lambdas]
        for (i, j), form in zip(edges, forms):
            points[i].append(_show_form(form))
            points[j].append(_show_form(form, -1))
        return points


def _show_form(form: Sequence[Tuple[int, str]], sign: int = 1) -> str:
    """``sign`` times the linear form ``form``: "b[1]-2*b[2]"; a negated sum
    of several terms is printed as "-(...)"."""
    if sign < 0 and len(form) > 1:
        return "-(%s)" % _show_form(form)
    text = "".join("+" + p if sign * c == 1 else "-" + p if sign * c == -1
                   else "%+d*%s" % (sign * c, p) for c, p in form)
    return text.lstrip("+") or "0"


# ---------------------------------------------------------------------------
# Labeling enumeration with component-boundary pruning
# ---------------------------------------------------------------------------

def _row_sign_minimum(amat: List[List[int]], k: int) -> int:
    """If row k of A(Gamma) has no negative off-diagonal entry, a positive
    kernel forces m(e_k) >= 2."""
    row = amat[k]
    if all(v >= 0 for m, v in enumerate(row) if m != k):
        return 2
    return 1


def _unit_edge_positions(graph: Multigraph) -> List[int]:
    """Edge indices pinned by the first/last-edge rule: the unique (P0, P1)
    edge and the unique (P_{N-1}, P_N) edge, when they exist exactly once."""
    top = graph.num_points - 1
    out = []
    for pair in ((0, 1), (top - 1, top)):
        hits = [k for k, e in enumerate(graph.edges) if e == pair]
        if len(hits) == 1:
            out.append(hits[0])
    return out


def _quadratic_roots(q0: int, q1: int, q2: int, values: range) -> Sequence[int]:
    """The v in ``values`` (a range with positive step) where
    q0 + q1 v + q2 v^2 vanishes, ascending: all of ``values`` when the
    quadratic is identically zero, else its integer roots there."""
    if q2:
        disc = q1 * q1 - 4 * q0 * q2
        if disc < 0:
            return []
        root = isqrt(disc)
        if root * root != disc:
            return []
        roots = {(-q1 + s) // (2 * q2) for s in (-root, root) if (-q1 + s) % (2 * q2) == 0}
    elif q1:
        roots = {-q0 // q1} if q0 % q1 == 0 else set()
    else:
        return values if q0 == 0 else []
    return sorted(v for v in roots if v in values)


def _grouped_sums(poly: Sequence[int], groups: Sequence[int], fixed: Sequence[int]) -> List[int]:
    """The sums S_afs of a multilinear polynomial in labels u, v, w and
    labels of known value, label b standing for bit b of an entry's index:
    groups[b] is 4, 2 or 1 when label b is u, v or w, and 0 when it is
    ``fixed[b]`` (read only then).  A known label x is fixed as
    stream_labelings fixes one, c + x d over the even and odd entries; the
    bit of u, v or w is kept split, so the polynomial is
    sum S_afs u^a v^f w^s with S_afs the entry left at 4a + 2f + s."""
    parts = {0: poly}
    for g, x in zip(groups, fixed):
        if g:
            parts = {k | g * bit: p[bit::2] for k, p in parts.items() for bit in (0, 1)}
        else:
            parts = {k: [c + x * d for c, d in zip(p[0::2], p[1::2])] for k, p in parts.items()}
    return [parts[k][0] if k in parts else 0 for k in range(8)]


def _quadratic_in_v(sums: Sequence[int], target: int) -> Tuple[Tuple[int, ...], ...]:
    """sum S_afs u^a v^f w^s, S_afs = sums[4a + 2f + s], where
    u + v + w = ``target``: with t = target - u and S_fs = S_0fs + u S_1fs
    it is c0 + c1 v + c2 v^2, where c0 = S_00 + t S_01,
    c1 = S_10 - S_01 + t S_11 and c2 = -S_11.  Returns c0, c1 and c2 as
    polynomials in u, lowest power first."""
    s000, s001, s010, s011, s100, s101, s110, s111 = sums
    return ((s000 + target * s001, s100 - s001 + target * s101, -s101),
            (s010 - s001 + target * s011, s110 - s101 - s011 + target * s111, -s111),
            (-s011, -s111))


def stream_labelings(graph: Multigraph, profile: FixedPointProfile, opts: SearchOptions,
                     divisor: Optional[int] = None,
                     budget: Optional[List[int]] = None,
                     ) -> Iterator[Tuple[int, ...]]:
    """Integer labelings of the edges of ``graph`` summing to the magnitude
    sum; cycles are always 0.  Deterministic order (lexicographic over the
    canonical edge order, smallest label first).

    The bounded search (``opts.bound_d`` = D) tries every label in [-2D, 2D]
    and ignores ``divisor``.  The nonnegative search tries labels from the
    row-sign minimum on minimal profiles, from 0 otherwise, up to the
    magnitude sum; with ``divisor=C`` only multiples of C, and the unit edges
    (see _unit_edge_positions) are pinned to C.  The search carries the
    current component's determinant polynomial (see _component_checker)
    down the tree, fixing one label per level by halving it: c + x d over
    its even and odd entries.  At a component's last position the
    determinant is linear in the label, so the loop there visits only its
    roots, and a root whose matrix has a kernel missing the open positive
    orthant prunes the subtree.  Below the point of the last component
    where at most three positions with more than one value are left, the
    closed form fixes the labels of one value by the same halving and keeps
    the other three (u, v, w) apart in eight sums (_grouped_sums); it loops
    u, the sum fixes w, and the determinant is a quadratic in v: its
    integer roots are the only leaves, and no loop runs below u.
    ``budget`` is a one-element mutable cell bounding the explored
    search-tree nodes (every value tried counts, also where the closed form
    or the loop at a component's last position skips it); the stream stops
    (leaving budget[0] < 0) when spent.
    """
    total = magnitude_sum(profile)
    edges = graph.edges
    amat, comps = _matrix_and_components(graph)
    order = [k for comp in comps for k in comp]
    assert sorted(order) == [k for k, e in enumerate(edges) if e[0] != e[1]]
    # the component completed at each search position, and the determinant
    # polynomial of the component starting at each search position
    ends = list(itertools.accumulate(map(len, comps)))
    boundaries = {end - 1: comp for end, comp in zip(ends, comps)}
    starts = dict(zip([0] + ends, _component_checker(graph)))
    step = divisor if divisor and opts.bound_d is None else 1
    pinned = _unit_edge_positions(graph) if divisor else []
    bounds = []  # (low, high) of the label at each search position
    for k in order:
        if opts.bound_d is not None:
            bounds.append((-2 * opts.bound_d, 2 * opts.bound_d))
        elif k in pinned:
            bounds.append((divisor, divisor))
        else:
            low = _row_sign_minimum(amat, k) if profile.is_minimal else 0
            bounds.append((-(-low // step) * step, total))
    min_rest = [sum(lo for lo, _ in bounds[idx + 1:]) for idx in range(len(order))]
    max_rest = [sum(hi for _, hi in bounds[idx + 1:]) for idx in range(len(order))]
    values = [range(lo, hi + 1, step) for lo, hi in bounds]
    last = len(order) - 1
    # the closed form runs from the first position of the last component
    # from which at most three positions with other than one value are left
    last_start = len(order) - len(comps[-1]) if comps else 0
    open_last = [idx for idx in range(last_start, len(order)) if len(values[idx]) != 1]
    closed_from = open_last[-4] + 1 if len(open_last) > 3 else last_start
    labels = [0] * len(edges)

    def tried(idx: int, remaining: int) -> Tuple[int, range, int]:
        """The values the loop at ``idx`` tries, as (skip, live, stop): it
        charges the ``skip`` smallest at once (they leave more than the later
        positions can take), descends into each value of ``live``, and when
        ``stop`` is 1 charges one more value, which leaves less than those
        positions need, and stops."""
        lo = values[idx].start
        count = len(values[idx])
        skip = min(count, max(0, -(-(remaining - max_rest[idx] - lo) // step)))
        end = min(count, max(skip, (remaining - min_rest[idx] - lo) // step + 1))
        return skip, values[idx][skip:end], int(end < count)

    def spend(count: int) -> bool:
        """Charge ``count`` values tried one after another, as the loop over
        them does, and whether the budget covered them.  When it did not,
        the cell is left where that loop stops: at -1 from a cell >= 0, one
        below a cell that a subtree left negative.  No values charge
        nothing."""
        if budget is None or not count:
            return True
        if budget[0] < count:
            budget[0] = min(budget[0], 0) - 1
            return False
        budget[0] -= count
        return True

    @functools.cache
    def subtree_nodes(idx: int, remaining: int) -> int:
        """The nodes the loop charges for the subtree of a node in the last
        component.  Only the last position prunes there, and below it no
        node is charged, so the count depends on (idx, remaining) alone."""
        skip, live, stop = tried(idx, remaining)
        below = sum(subtree_nodes(idx + 1, remaining - v) for v in live) if idx < last else 0
        return skip + len(live) + stop + below

    @functools.cache
    def grouping(idx: int) -> Tuple[List[Optional[int]], List[int]]:
        """The positions [u, v, w] of the (at most three) positions from
        ``idx`` on with more than one value, or of the last position as v
        when none has, None standing for a missing u or w; and the group
        (see _grouped_sums) of each position from ``idx`` on."""
        below = range(idx, len(order))
        unknown: List[Optional[int]] = [p for p in below if len(values[p]) != 1] or [last]
        if len(unknown) == 1:
            unknown.append(None)  # no w: the sum leaves v nothing
        if len(unknown) == 2:
            unknown.insert(0, None)  # no u: it is 0
        return unknown, [4 >> unknown.index(p) if p in unknown else 0 for p in below]

    def closed_form(idx: int, remaining: int, poly: List[int]) -> Iterator[Tuple[int, ...]]:
        """The leaves below a node from ``closed_from`` on.  Every label of
        one value is fixed; with u, v, w the labels of the positions left
        with more than one value (see grouping), w takes what the sum
        leaves, so for each value of u that its loop would try the
        determinant is a quadratic in v (_quadratic_in_v); its integer roots
        v that leave w one of its values are checked for a positive
        kernel."""
        unknown, groups = grouping(idx)
        pu, pv, pw = unknown
        below = range(idx, len(order))
        us = range(1)
        for p, g in zip(below, groups):
            if p == pu:
                us = tried(pu, remaining)[1]
            elif not g:
                labels[order[p]] = values[p][0]
                remaining -= values[p][0]
        # remaining is now u + v + w, and c_k = q_k0 + q_k1 u + q_k2 u^2 is
        # the coefficient of v^k
        (q00, q01, q02), (q10, q11, q12), (q20, q21) = _quadratic_in_v(
            _grouped_sums(poly, groups, [values[p][0] for p in below]), remaining)
        second = values[pw] if pw is not None else range(1)
        for u in us:
            if pu is not None:
                labels[order[pu]] = u
            for v in _quadratic_roots(q00 + u * (q01 + u * q02), q10 + u * (q11 + u * q12),
                                      q20 + u * q21, values[pv]):
                if remaining - u - v not in second:
                    continue
                labels[order[pv]] = v
                if pw is not None:
                    labels[order[pw]] = remaining - u - v
                if positive_kernel_exists(_component_matrix(amat, labels, boundaries[last])):
                    yield tuple(labels)

    def rec(idx: int, remaining: int, poly: List[int]) -> Iterator[Tuple[int, ...]]:
        if idx == len(order):
            if remaining == 0:
                yield tuple(labels)
            return
        poly = starts.get(idx, poly)
        if idx >= closed_from and (budget is None or budget[0] >= subtree_nodes(idx, remaining)):
            if budget is not None:
                budget[0] -= subtree_nodes(idx, remaining)
            yield from closed_form(idx, remaining, poly)
            return
        # poly is multilinear in the labels still free in this component,
        # the label at this position being the lowest bit of the index
        const, linear = poly[0::2], poly[1::2]
        skip, live, stop = tried(idx, remaining)
        if not spend(skip):
            return
        comp = boundaries.get(idx)
        # at a component's last position the determinant const[0] + v linear[0]
        # is linear in v: only its roots descend, and the next component
        # brings its own polynomial (starts)
        charged = 0
        for v in live if comp is None else _quadratic_roots(const[0], linear[0], 0, live):
            # each value is charged with the values tried before it
            through = live.index(v) + 1
            if not spend(through - charged):
                return
            charged = through
            labels[order[idx]] = v
            if comp is None or positive_kernel_exists(_component_matrix(amat, labels, comp)):
                yield from rec(idx + 1, remaining - v, [c + v * d for c, d in zip(const, linear)])
        spend(len(live) - charged + stop)

    yield from rec(0, total, [])


def divisor_branches(profile: FixedPointProfile, opts: SearchOptions) -> List[Optional[int]]:
    """The divisor branches a search runs, in order.  Minimal nonnegative
    searches take ``opts.divisor_c`` or every admissible divisor (only
    DIM8_CONSTANTS under dim8_strict when n = 4); other nonnegative searches
    take ``opts.divisor_c``, possibly None; bounded ones take None."""
    if opts.bound_d is not None:
        return [None]
    if profile.is_minimal:
        divisors = [opts.divisor_c] if opts.divisor_c is not None else minimal_divisors(profile.n)
        if opts.dim8_strict and profile.n == 4:
            divisors = [c for c in divisors if c in DIM8_CONSTANTS]
        return divisors
    return [opts.divisor_c]


# ---------------------------------------------------------------------------
# Solving (A(Gamma) - diag(m)) w = 0 componentwise
# ---------------------------------------------------------------------------

def _component_matrix(amat: List[List[int]], labels, comp: List[int]) -> List[List[int]]:
    """A(Gamma) - diag(m) restricted to the edges of one component; ``labels``
    maps an edge index to its magnitude."""
    return [[amat[h][k] - (labels[h] if h == k else 0) for k in comp] for h in comp]


@functools.lru_cache(maxsize=1)
def _matrix_and_components(graph: Multigraph) -> Tuple[List[List[int]], List[List[int]]]:
    """A(Gamma) and the components of ``graph``.  The last graph's are kept,
    so every divisor branch of its stream, its component check and the solve
    of each labeling, streamed or re-solved from a checkpoint, share them;
    callers must not change the lists."""
    return graph_matrix(graph.edges), graph.components()


def solve_weights(graph: Multigraph, magnitudes: Sequence[int]) -> Optional[WeightFamily]:
    """The weight family of (graph, m), or None when some component matrix is
    nonsingular or its kernel misses the open positive orthant."""
    if len(magnitudes) != len(graph.edges):
        raise ValueError("labeling length does not match edge count")
    mags = tuple(map(operator.index, magnitudes))
    amat, comps = _matrix_and_components(graph)
    kernels: List[NullspaceDescription] = []
    for comp in comps:
        # the component matrix is square, so it is singular exactly when its
        # kernel is nonzero, and a zero kernel misses the positive orthant
        kernel = nullspace(_component_matrix(amat, mags, comp))
        if not meets_positive_orthant(kernel):
            return None
        kernels.append(kernel)
    return WeightFamily(graph, mags, kernels)


def _forests(ends: Sequence[Tuple[int, int]]) -> List[int]:
    """The sets of the edges ``ends`` (pairs of vertices) that contain no
    cycle, two parallel edges counting as one, as bitmasks over ``ends``.
    Each forest is grown from one without edge p by edge p when that joins
    two of its trees, which a map from each vertex to a name of its tree
    tells apart."""
    forests = [(0, {v: v for e in ends for v in e})]
    for p, (i, j) in enumerate(ends):
        forests += [(mask | 1 << p, {v: tree[i] if t == tree[j] else t for v, t in tree.items()})
                    for mask, tree in forests if tree[i] != tree[j]]
    return [mask for mask, _ in forests]


@functools.cache
def _forest_minor(ends: Tuple[Tuple[int, int], ...]) -> int:
    """det graph_matrix(ends), the principal minor of A(Gamma) on any edges
    with the endpoint pairs ``ends``.  classify clears the memo when it
    starts, so each run computes its own minors, each through this
    module's name int_determinant, which perfbench's tracer wraps."""
    return int_determinant(graph_matrix(ends))


@functools.lru_cache(maxsize=1)
def _component_checker(graph: Multigraph) -> List[List[int]]:
    """The component check of stream_labelings for ``graph``: the determinant
    of each component of A(Gamma) - diag(m) (graph.components() order) as a
    multilinear polynomial in its labels.  Entry j of a polynomial is the
    coefficient of the product of the labels at the set bits of j, bit p
    standing for the component's p-th edge.  By the expansion
    det(A_c - diag(m)) = sum_S (-1)^|S| det A_c[E - S] prod_{k in S} m_k
    over the subsets S of the component's edges E, that coefficient is a
    signed principal minor of A(Gamma).  A(Gamma) = B^T B for the signed
    vertex-edge incidence matrix B, so a minor vanishes when its kept edges
    E - S hold a cycle (Cauchy-Binet): only the forests need a determinant.
    Entry [h][k] of A(Gamma) depends only on the endpoints of edges h and
    k, so the minor on kept edges is det graph_matrix of their endpoint
    pairs, read from the memo _forest_minor: a run over the graphs on N
    points meets only the forests of the complete graph K_N, in the
    orientations its edges take (291 for N = 5 in the nonnegative
    search), each computed once per run.  The last graph's polynomials are
    cached, so the divisor branches of one graph build them once; callers
    must not change the lists."""
    polys = []
    for comp in _matrix_and_components(graph)[1]:
        ends = [graph.edges[k] for k in comp]
        poly = [0] * (1 << len(comp))
        for kept in _forests(ends):
            minor = _forest_minor(tuple(e for p, e in enumerate(ends) if kept >> p & 1))
            subset = len(poly) - 1 - kept
            poly[subset] = -minor if bin(subset).count("1") % 2 else minor
        polys.append(poly)
    return polys


# ---------------------------------------------------------------------------
# Instance vetting
# ---------------------------------------------------------------------------

def admissible_pairing(ws: WeightSystem, pairing: Pairing) -> bool:
    """Whether ``pairing``, a pairing of the weights of ``ws``, passes the
    arithmetic lemmas on its bundles of parallel edges; False at the first
    failing rule:
      multiple_edge_gcd   a bundle of size >= n-1, or one whose endpoints
                          carry nothing but cycles besides it (both have as
                          many non-cycle edges as the bundle), has coprime
                          weights;
      divisor_propagation for every sub-bundle with gcd g > 1, both
                          endpoints carry another weight divisible by g.
    The first-Chern-constant rules do not depend on the pairing; vet_instance
    checks them once, before it tries any pairing.

    divisor_propagation fails exactly when, for some d >= 2 dividing two of
    the bundle's weights, an endpoint carries at most t multiples of d, the
    t = |T| weights of the bundle that d divides (``pairing`` pairs the
    weights of ``ws``, so each endpoint carries T).  A sub-bundle S with
    gcd d > 1 fails when it holds every multiple of d at an endpoint, which
    then carries |S| <= t of them; conversely S = T fails, as gcd(T), a
    multiple of d, has no multiple there outside T.  When d qualifies, so does the
    gcd of any two weights of T, a multiple of d: only those gcds are tried.
    """
    bundles: Dict[Tuple[int, int], List[int]] = {}
    degree = [0] * ws.num_points  # non-cycle edges at each point
    for (i, j, w) in pairing:
        if i != j:
            bundles.setdefault((i, j), []).append(w)
            degree[i] += 1
            degree[j] += 1
    for (i, j), wsb in bundles.items():
        if len(wsb) < 2:
            continue
        if gcd(*wsb) != 1 and (len(wsb) >= ws.n - 1 or degree[i] == degree[j] == len(wsb)):
            return False
        for d in set(itertools.starmap(gcd, itertools.combinations(wsb, 2))) - {1}:
            t = sum(1 for w in wsb if w % d == 0)
            if any(sum(1 for x in ws.points[p] if x % d == 0) <= t for p in (i, j)):
                return False
    return True


def index_order_verdict(sums: Tuple[int, ...], negatives: Sequence[int],
                        positives: Sequence[int], opts: SearchOptions
                        ) -> Tuple[Optional[str], Optional[int]]:
    """The rules vet_instance decides first for a minimal system in index
    order, from its weight sums and, per point, the product of its negative
    weights and of its negated positive weights (point_products): the name
    of the first failing one, or None, and C_1 once it is known.  Decided in
    integers:
      monotone_sums    s_0 > s_1 > ... > s_N;
      chern_constants  each C_i an integer equal to the reversed action's
                       C_i, and C_1 admissible (core.minimal_divisors);
      dim8_strict      C_1 in DIM8_CONSTANTS, under opts.dim8_strict when
                       n = 4.
    An integral C_i is positive: s_0 > ... > s_N here, so
    prod_{j<i} (s_i - s_j) has sign (-1)^i, and so has the product of the i
    negative weights at P_i."""
    if any(a <= b for a, b in zip(sums, sums[1:])):
        return "monotone_sums", None
    n = len(sums) - 1
    c1 = None
    for num, den, rnum, rden in chern_constant_parts(sums, negatives, positives):
        c, r = divmod(num, den)
        if r or rnum != c * rden:
            return "chern_constants", c1
        if c1 is None:
            c1 = c
            if c1 not in minimal_divisors(n):
                return "chern_constants", c1
    if opts.dim8_strict and n == 4 and c1 not in DIM8_CONSTANTS:
        return "dim8_strict", c1
    return None, c1


def vet_instance(ws: WeightSystem, opts: SearchOptions) -> Optional[str]:
    """Full per-instance battery; returns the name of the first failing
    filter, or None when the instance passes everything."""
    failures = weight_system_checks(ws)
    if failures:
        return "structural"
    n = ws.n
    c1 = None
    if in_index_order(ws):
        verdict, c1 = index_order_verdict(ws.weight_sums(), *point_products(ws.points), opts)
        if verdict is not None:
            return verdict
    if not any(admissible_pairing(ws, p) for p in integral_multigraphs(ws, mode=opts.pair_mode)):
        return "no_admissible_pairing"
    report = chern_battery(ws)
    if not report.ok:
        return "localization"
    if c1 is not None:
        levels = derive_levels(ws, c1)
        if levels is None:
            return "index_levels"
        try:
            rvals = r_values_at_one(ws, levels)
        except NotLaurent:
            return "index_laurent"
        l0 = n + 1 - c1
        if rvals[0] != 1:
            return "index_todd"
        if any(rvals[s] != 0 for s in range(l0 + 1, len(rvals))):
            return "index_vanishing"
        if any(rvals[s] != rvals[l0 - s] for s in range(l0 + 1)):
            return "index_symmetry"
        if sum(rvals) <= 0:
            return "index_volume"
    return None


def _witness_verdicts(fam: WeightFamily, opts: SearchOptions,
                      passing: Dict[WeightSystem, List[Tuple[Tuple, Tuple[int, ...]]]]
                      ) -> Iterator[Optional[str]]:
    """Stage 4 for one family: the verdict of each witness, an edge part
    (witness_instances) joined with a cycle part (cycle_parts), in that
    product order.  A passing witness not in ``passing`` yet is recorded
    there, with its signatures; one that is already there is not vetted
    again.

    Per edge part the weight sums and the products of
    localization.point_products are computed once.  A cycle of weight c adds c and -c at its point, so it
    leaves the sums as they are and multiplies -c into both products there.
    A witness whose weights at some point have a gcd above 1 is
    ``structural``, and no WeightSystem is built for it.  For a graph in
    index order the others go to index_order_verdict first, and only a
    witness that passes it is built and vetted.

    The verdicts are vet_instance's.  A witness W with gcd 1 at every
    point passes weight_system_checks: point i carries one weight per edge
    end there, n = out-degree plus in-degree (a cycle counted in both) on
    every graph of the profile; each weight is +-w for an entry w of a
    kernel lattice point, in [1, bound], or for a cycle weight, in
    [1, cycle_bound], so none is zero; each edge puts w at its source and
    -w at its target, so the weights pair; the gcd is 1; and point i
    carries one negative weight per edge that ends there, lambda_i of
    them, so W's profile is the graph's, which enumerate_multigraphs
    validated.  So vet_instance passes W's first rule, and when the graph
    is in index order it calls index_order_verdict on W's sums and
    products, which are the ones used here."""
    graph = fam.graph
    in_order = graph.lambdas == tuple(range(graph.n + 1))
    ones = (1,) * graph.num_points
    cycles = [(part, *point_products(part[0])) for part in fam.cycle_parts()]
    for edge_part in fam.witness_instances(opts.witness_bound):
        pts, gcds = edge_part
        sums = tuple(map(sum, pts))
        negatives, positives = point_products(pts)
        for cycle_part, cycle_negatives, cycle_positives in cycles:
            if tuple(map(gcd, gcds, cycle_part[1])) != ones:
                yield "structural"
                continue
            if in_order:
                verdict, _ = index_order_verdict(
                    sums, list(map(operator.mul, negatives, cycle_negatives)),
                    list(map(operator.mul, positives, cycle_positives)), opts)
                if verdict is not None:
                    yield verdict
                    continue
            ws = WeightSystem(graph.n, tuple(map(operator.add, pts, cycle_part[0])))
            if ws in passing:
                yield None
                continue
            verdict = vet_instance(ws, opts)
            if verdict is None:
                passing[ws] = _signatures(ws, opts.pair_mode)
            yield verdict


# ---------------------------------------------------------------------------
# Classification driver
# ---------------------------------------------------------------------------

@dataclass
class ClassificationResult:
    profile: FixedPointProfile
    options: SearchOptions
    graphs_examined: int
    audit: Dict
    families: List[WeightFamily]

    def to_json(self) -> dict:
        return {
            "profile": {"n": self.profile.n, "lambdas": list(self.profile.lambdas)},
            "options": self.options.to_json(),
            "graphs_examined": self.graphs_examined,
            "audit": self.audit,
            "families": [f.to_json() for f in self.families],
        }


def search_graph(graph: Multigraph, profile: FixedPointProfile,
                 opts: SearchOptions) -> Tuple[List[WeightFamily], Dict]:
    """Stages 2 and 3 for one graph: stream the labelings of every divisor
    branch, in divisor_branches order and each under a fresh node budget of
    ``opts.max_labelings``, and return the graph's distinct weight families,
    in the order first streamed, with its audit record: ``labelings``
    streamed, ``families`` (their count) and, when some branch ran out of
    budget, ``truncated`` True.  Every labeling solves to a family: the
    stream yields one only once positive_kernel_exists has passed the matrix
    of each component, the test solve_weights makes."""
    record: Dict = {"labelings": 0}
    families: Dict[Tuple[int, ...], WeightFamily] = {}
    for divisor in divisor_branches(profile, opts):
        budget = [opts.max_labelings] if opts.max_labelings is not None else None
        for lab in stream_labelings(graph, profile, opts, divisor=divisor, budget=budget):
            record["labelings"] += 1
            families.setdefault(lab, solve_weights(graph, lab))
        if budget is not None and budget[0] < 0:
            record["truncated"] = True
    record["families"] = len(families)
    return list(families.values()), record


def _signatures(ws: WeightSystem, pair_mode: str) -> List[Tuple[Tuple, Tuple[int, ...]]]:
    """Canonical (graph edges, integer magnitudes) signatures over every
    integral pairing of the instance, admissible or not: the (i, j) and the
    magnitudes of a pairing's (i, j, w) edges, in its sorted order.  An
    integral pairing divides each difference of weight sums s_i - s_j
    exactly by its edge weight (a cycle's difference is 0)."""
    sums = ws.weight_sums()
    sigs = [(tuple((i, j) for i, j, _ in pairing),
             tuple((sums[i] - sums[j]) // w for i, j, w in pairing))
            for pairing in integral_multigraphs(ws, mode=pair_mode)]
    # Pairings with extra cycles blur the family structure (any two systems
    # sharing their extremal weights produce the same all-cycles signature),
    # so keep only the signatures with as few cycles as possible.
    def ncycles(sig):
        return sum(1 for i, j in sig[0] if i == j)

    least = min(map(ncycles, sigs), default=0)
    return sorted(set(s for s in sigs if ncycles(s) == least))


def run_fingerprint(profile: FixedPointProfile, opts: SearchOptions) -> str:
    """Key of a classify run: profile, options and the names and contents of
    this package's modules.  Checkpoint files record it."""
    import hashlib  # imported where used: keeps `import circleweights` light

    here = os.path.dirname(__file__)
    source = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                source.update(name.encode())
                source.update(fh.read())
    key_src = json.dumps([profile.n, list(profile.lambdas), opts.to_json(),
                          source.hexdigest()[:16]], sort_keys=True)
    return hashlib.sha256(key_src.encode()).hexdigest()[:24]


GraphResult = Tuple[List[WeightFamily], Dict]  # search_graph's output


def _load_checkpoint(path: str, fingerprint: str,
                     graphs: List[Multigraph]) -> Dict[int, GraphResult]:
    """The graphs recorded in checkpoint file ``path`` (none when it does not
    exist), by index: their families re-solved from the stored magnitudes,
    and their audit records as stored."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise CheckpointMismatch("checkpoint %s: directory %s does not exist" % (path, folder))
    if os.path.isdir(path):
        raise CheckpointMismatch("checkpoint %s is a directory, not a file" % path)
    if not os.path.exists(path):
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise CheckpointMismatch("%s is not a checkpoint file: %s" % (path, exc)) from exc
    found = data.get("fingerprint") if isinstance(data, dict) else None
    if found != fingerprint:
        raise CheckpointMismatch(
            "checkpoint %s has fingerprint %s, this run %s: it was written for other "
            "inputs or other source" % (path, found, fingerprint))
    blocks = data["blocks"]
    return {gi: ([solve_weights(graph, m) for m in blocks[str(gi)]["families"]],
                 blocks[str(gi)]["audit"])
            for gi, graph in enumerate(graphs) if str(gi) in blocks}


def write_atomic(path: str, text: str) -> None:
    """Replace the file ``path`` by one holding ``text``: write a fresh
    temporary file in its directory (removed again on failure), then rename
    it over ``path``.  A reader sees the old file or the new one, and two
    writers of one path never share a temporary file."""
    import tempfile  # imported where used: keeps `import circleweights` light

    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            fh.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _save_checkpoint(path: str, fingerprint: str, done: Dict[int, GraphResult]) -> None:
    """Replace ``path`` with the finished graphs, keyed by graph index: the
    magnitudes of each graph's distinct families, over all its divisor
    branches, and its audit record."""
    blocks = {str(gi): {"families": [list(f.magnitudes) for f in fams], "audit": record}
              for gi, (fams, record) in sorted(done.items())}
    write_atomic(path, json.dumps({"fingerprint": fingerprint, "blocks": blocks}))


def _search_blocks(profile: FixedPointProfile, opts: SearchOptions, graphs: List[Multigraph],
                   jobs: int, checkpoint: Optional[str]) -> Dict[int, GraphResult]:
    """search_graph's output for every graph, by index: restored from
    ``checkpoint`` when recorded there, otherwise searched (in a pool of
    ``jobs`` processes when jobs > 1, taken as each finishes) and recorded
    as soon as it is there."""
    done: Dict[int, GraphResult] = {}
    if checkpoint:
        fingerprint = run_fingerprint(profile, opts)
        done = _load_checkpoint(checkpoint, fingerprint, graphs)
    todo = [gi for gi in range(len(graphs)) if gi not in done]
    pool = None
    if jobs > 1 and len(todo) > 1:
        # imported here: at module level they double the cost of `import circleweights`
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)),
                                   mp_context=multiprocessing.get_context("spawn"))
    try:
        # looked up at call time: a wrapper put in the module's search_graph sees every graph
        if pool is None:
            finished = ((gi, search_graph(graphs[gi], profile, opts)) for gi in todo)
        else:
            futures = {pool.submit(search_graph, graphs[gi], profile, opts): gi for gi in todo}
            finished = ((futures[f], f.result()) for f in as_completed(futures))
        for gi, out in finished:
            done[gi] = out
            if checkpoint:
                _save_checkpoint(checkpoint, fingerprint, done)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return done


def _orbit_key(edges: Tuple, magnitudes: Tuple[int, ...]) -> Tuple[Tuple, Tuple[int, ...]]:
    """(edges, magnitudes) with the labels of each bundle of parallel edges
    (equal, hence adjacent, entries of the sorted ``edges``) sorted.  A(Gamma)
    depends only on edge endpoints, so permuting the labels of parallel edges
    permutes the kernel coordinates of their component and leaves the
    weights at every fixed point as they are: families with one key have
    the same witness instances, in another order."""
    labels: List[int] = []
    for _, bundle in itertools.groupby(range(len(edges)), key=edges.__getitem__):
        labels.extend(sorted(magnitudes[k] for k in bundle))
    return edges, tuple(labels)


def classify(profile: FixedPointProfile, opts: SearchOptions, jobs: int = 1,
             checkpoint: Optional[str] = None) -> ClassificationResult:
    """Full pipeline.  Stages 2 and 3 run per graph (search_graph), merged
    in graph order, so the result is the same whether a graph is searched
    here, in a pool of ``jobs`` worker processes, or restored from the JSON
    file ``checkpoint``, which records every finished graph and is resumed
    from when it exists; CheckpointMismatch is raised, and the file left as
    it is, when it was written for another profile, options or package
    source.  The audit holds each graph's record from search_graph: its
    labelings, its distinct families and whether it was truncated.  Raises
    TypeError when ``jobs`` is not an integer and ValueError when it is
    below 1.  Before any search, magnitude_sum raises for an invalid
    profile, and ProfileError when the nonnegative search of a non-minimal
    profile has a negative target."""
    jobs = operator.index(jobs)
    # the forest minors and the last graph's polynomials are per run
    _forest_minor.cache_clear()
    _component_checker.cache_clear()
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %s" % (jobs,))
    total = magnitude_sum(profile)
    if opts.bound_d is None and not profile.is_minimal and total < 0:
        raise ProfileError("nonnegative mode refused: non-minimal profile with negative "
                           "magnitude-sum target %d; use --bound-D" % total)
    graphs = enumerate_multigraphs(profile, mode=opts.pair_mode, dedup="reversal")
    done = _search_blocks(profile, opts, graphs, jobs, checkpoint)
    audit: Dict = {"graphs": {}, "rejections": Counter(), "instances": 0, "passing": 0}
    candidates: Dict[Tuple[Tuple, Tuple[int, ...]], WeightFamily] = {}
    # enumerate_multigraphs keeps one graph per edge tuple: no family key is in two graphs
    for gi, (fams, record) in sorted(done.items()):
        audit["graphs"][gi] = record
        candidates.update(((fam.graph.edges, fam.magnitudes), fam) for fam in fams)
    # stage 4: vet the first family of each parallel-edge orbit (see
    # _orbit_key).  The later families of an orbit have the same instances,
    # so they add the first one's rejections; their passing instances are
    # in ``passing`` already.
    passing: Dict[WeightSystem, List[Tuple[Tuple, Tuple[int, ...]]]] = {}
    orbit_rejections: Dict[Tuple[Tuple, Tuple[int, ...]], Counter] = {}
    for key in sorted(candidates):
        orbit = _orbit_key(*key)
        if orbit not in orbit_rejections:
            orbit_rejections[orbit] = Counter(
                filter(None, _witness_verdicts(candidates[key], opts, passing)))
        rejected = orbit_rejections[orbit]
        audit["rejections"].update(rejected)
        audit["instances"] += rejected.total()
    audit["instances"] += len(passing)
    audit["passing"] = len(passing)
    # signatures shared by instances link their families
    find = union_find(passing.values())
    groups: Dict = {}
    for inst, sigs in passing.items():
        instances, votes = groups.setdefault(find(sigs[0]), ([], Counter()))
        instances.append(inst)
        votes.update(sigs)
    families: List[WeightFamily] = []
    for instances, votes in groups.values():
        # the most voted signature, then the one with fewest cycles
        edges, mags = min(votes, key=lambda s: (-votes[s], sum(1 for i, j in s[0] if i == j), s))
        # w > 0 solves (A w)_h = m_h w_h for every integral pairing, so every
        # component of a signature has a positive kernel vector
        fam = solve_weights(Multigraph(profile.n, profile.lambdas, edges), mags)
        if fam is None:
            raise RuntimeError("signature %s %s of passing instances has no weight family"
                               % (edges, mags))
        fam.instances = sorted(instances, key=lambda w: w.points)
        families.append(fam)
    families.sort(key=lambda f: (f.graph.edges, f.magnitudes))
    return ClassificationResult(
        profile=profile,
        options=opts,
        graphs_examined=len(graphs),
        audit=audit,
        families=families,
    )
