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

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FixedPointProfile, WeightSystem, validate_profile, weight_system_checks
from .graphs import (
    Multigraph,
    WeightedMultigraph,
    enumerate_multigraphs,
    integral_multigraphs,
    magnitudes_from_weights,
)
from .linalg import (
    NullspaceDescription,
    RationalMatrix,
    graph_matrix,
    int_determinant,
    kernel_lattice_points,
    nullspace,
    positive_combination,
    positive_kernel_exists,
)
from .localization import chern_battery, expected_c1cn1, minimal_chern_constants
from .hattori import ConsistencyFailure, derive_levels, r_values_at_one
from .laurent import NotLaurent


class NonIntegralSum(ValueError):
    """The magnitude-sum formula gave a non-integer: unrealizable profile."""


class CheckpointMismatch(Exception):
    """A checkpoint file was not written for this profile, these options and
    this package source, or is not a checkpoint file at all."""


def magnitude_sum(profile: FixedPointProfile) -> int:
    """Sum of all edge magnitudes, an invariant of the profile alone:
    sum_p N_p * (6 p (p-1) + (5n - 3n^2)/2); equals n(n+1)^2/2 when minimal."""
    validate_profile(profile)
    value = expected_c1cn1(profile)
    if value.denominator != 1:
        raise NonIntegralSum("magnitude sum %s is not an integer" % (value,))
    return int(value)


def minimal_divisors(n: int) -> List[int]:
    """Admissible first-Chern constants for a minimal profile: divisors of
    n(n+1)^2/2 that are at most n+1, in descending order (cheapest first)."""
    total = n * (n + 1) ** 2 // 2
    return [c for c in range(n + 1, 0, -1) if total % c == 0]


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for the labeling search.

    mode            'nonnegative' (labels >= 1 on non-cycle edges for minimal
                    profiles, >= 0 otherwise) or 'bounded' (|m| <= 2D).
    bound_d         the D of bounded mode.
    divisor_c       force a single divisor branch C; None = loop over all.
    use_divisors    use the divisor decomposition m = C l at all (minimal
                    nonnegative searches only).
    force_unit_edges pin the unique (P0,P1) and (P_{N-1},P_N) edges to C.
    dim8_strict     restrict C (and the vetted first Chern constant) to {1,5}
                    when n = 4.
    witness_bound   max entry of kernel lattice points instantiated.
    cycle_bound     max weight tried on cycle edges when instantiating.
    """

    mode: str = "nonnegative"
    bound_d: int = 1
    divisor_c: Optional[int] = None
    use_divisors: bool = True
    force_unit_edges: bool = True
    dim8_strict: bool = False
    witness_bound: int = 12
    cycle_bound: int = 4
    max_labelings: Optional[int] = None  # node budget for the labeling search tree

    def __post_init__(self):
        if self.mode not in ("nonnegative", "bounded"):
            raise ValueError("mode must be 'nonnegative' or 'bounded'")
        if self.mode == "bounded" and self.bound_d < 1:
            raise ValueError("bounded mode needs D >= 1")

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "bound_d": self.bound_d,
            "divisor_c": self.divisor_c,
            "use_divisors": self.use_divisors,
            "force_unit_edges": self.force_unit_edges,
            "dim8_strict": self.dim8_strict,
            "witness_bound": self.witness_bound,
            "cycle_bound": self.cycle_bound,
            "max_labelings": self.max_labelings,
        }


@dataclass
class WeightFamily:
    """A graph with a magnitude labeling whose linear system is singular with
    a positive kernel; weights of the edges form the kernel (cycles free)."""

    graph: Multigraph
    magnitudes: Tuple[int, ...]
    components: List[List[int]]
    comp_kernels: List[NullspaceDescription]

    def witness_weight_vectors(self, bound: int, cycle_bound: int) -> Iterator[Tuple[int, ...]]:
        """All edge-weight vectors with component weights from kernel lattice
        points (entries in [1, bound]) and cycle weights in [1, cycle_bound]."""
        edges = self.graph.edges
        cycle_positions = [k for k, e in enumerate(edges) if e[0] == e[1]]
        comp_choices = []
        for comp, ker in zip(self.components, self.comp_kernels):
            eb = bound
            while eb > 2 and eb ** ker.dim > 2_000_000:
                eb -= 1
            pts = kernel_lattice_points(ker, eb)
            if not pts:
                return
            comp_choices.append(pts)
        cycle_choices = [range(1, cycle_bound + 1)] * len(cycle_positions)
        for combo in itertools.product(*comp_choices, *cycle_choices):
            vec = [0] * len(edges)
            for ci, comp in enumerate(self.components):
                for pos, k in enumerate(comp):
                    vec[k] = combo[ci][pos]
            for t, k in enumerate(cycle_positions):
                vec[k] = combo[len(self.components) + t]
            yield tuple(vec)

    def instance_from_vector(self, vec: Sequence[int]) -> WeightedMultigraph:
        wedges = tuple((i, j, w) for (i, j), w in zip(self.graph.edges, vec))
        return WeightedMultigraph(self.graph.n, self.graph.lambdas, wedges)

    def witness_instances(self, bound: int = 12, cycle_bound: int = 4) -> List[WeightSystem]:
        out = []
        for vec in self.witness_weight_vectors(bound, cycle_bound):
            out.append(self.instance_from_vector(vec).weight_system())
        return out

    def parametric_weights(self) -> List[List[str]]:
        """Human-readable parametric weights at each point: edge weights are
        linear forms in free parameters b[1], b[2], ... (cycles get c[k])."""
        edges = self.graph.edges
        exprs = ["" for _ in edges]
        pnum = 0
        for comp, ker in zip(self.components, self.comp_kernels):
            names = ["b[%d]" % (pnum + t + 1) for t in range(ker.dim)]
            pnum += ker.dim
            for pos, k in enumerate(comp):
                terms = []
                for t, vecb in enumerate(ker.basis):
                    c = vecb[pos]
                    if c == 0:
                        continue
                    if c == 1:
                        terms.append("+" + names[t])
                    elif c == -1:
                        terms.append("-" + names[t])
                    else:
                        terms.append("%+d*%s" % (c, names[t]))
                expr = "".join(terms).lstrip("+") or "0"
                exprs[k] = expr
        cnum = 0
        for k, e in enumerate(edges):
            if e[0] == e[1]:
                cnum += 1
                exprs[k] = "c[%d]" % cnum
        def negate(expr: str) -> str:
            if expr.startswith("-") and "+" not in expr and "-" not in expr[1:]:
                return expr[1:]
            if "+" in expr or "-" in expr[1:]:
                return "-(%s)" % expr
            return "-" + expr

        points: List[List[str]] = [[] for _ in self.graph.lambdas]
        for k, (i, j) in enumerate(edges):
            if i == j:
                points[i].extend([exprs[k], negate(exprs[k])])
            else:
                points[i].append(exprs[k])
                points[j].append(negate(exprs[k]))
        return points


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


def stream_labelings(graph: Multigraph, profile: FixedPointProfile, opts: SearchOptions,
                     divisor: Optional[int] = None,
                     component_check: Optional[Callable[[List[int], Dict[int, int]], bool]] = None,
                     budget: Optional[List[int]] = None,
                     ) -> Iterator[Tuple[int, ...]]:
    """Integer labelings of the edges of ``graph`` summing to the magnitude
    sum; cycles are always 0.  Deterministic order (lexicographic over the
    canonical edge order, smallest label first).

    With ``divisor=C`` only labelings that are C times positive integers are
    produced, and unit edges are pinned to C when ``opts.force_unit_edges``.
    When ``component_check`` is given it is consulted each time all labels of
    a connected component are fixed; a False verdict prunes the subtree.
    ``budget`` is a one-element mutable cell bounding the number of explored
    search-tree nodes; the stream stops (leaving budget[0] < 0) when spent.
    """
    total = magnitude_sum(profile)
    edges = graph.edges
    noncycle = [k for k, e in enumerate(edges) if e[0] != e[1]]
    comps = graph.components()
    order = [k for comp in comps for k in comp]
    assert sorted(order) == noncycle
    boundaries = {}
    pos = 0
    for comp in comps:
        pos += len(comp)
        boundaries[pos - 1] = comp
    amat = [[int(x) for x in row] for row in graph_matrix(edges).rows]

    if opts.mode == "bounded":
        lows = {k: -2 * opts.bound_d for k in noncycle}
        highs = {k: 2 * opts.bound_d for k in noncycle}
        step = {k: 1 for k in noncycle}
    else:
        minimal = profile.is_minimal
        lows, highs, step = {}, {}, {}
        pinned = set(_unit_edge_positions(graph)) if (divisor and opts.force_unit_edges) else set()
        for k in noncycle:
            base = _row_sign_minimum(amat, k) if minimal else 0
            if divisor:
                if k in pinned:
                    lows[k] = highs[k] = divisor
                    step[k] = 1
                else:
                    lo = max(base, 1) if minimal else max(base, 0)
                    lows[k] = ((lo + divisor - 1) // divisor) * divisor
                    if lows[k] == 0 and minimal:
                        lows[k] = divisor
                    highs[k] = total
                    step[k] = divisor
            else:
                lows[k] = max(base, 1) if minimal else base
                highs[k] = total
                step[k] = 1

    labels: Dict[int, int] = {k: 0 for k in range(len(edges))}

    def rec(idx: int, remaining: int) -> Iterator[Tuple[int, ...]]:
        if idx == len(order):
            if remaining == 0:
                yield tuple(labels[k] for k in range(len(edges)))
            return
        k = order[idx]
        lo, hi, st = lows[k], highs[k], step[k]
        min_rest = sum(lows[kk] for kk in order[idx + 1:])
        max_rest = sum(highs[kk] for kk in order[idx + 1:])
        for v in range(lo, hi + 1, st):
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    return
            rest = remaining - v
            if rest < min_rest or rest > max_rest:
                if rest < min_rest:
                    break
                continue
            labels[k] = v
            if idx in boundaries and component_check is not None:
                if not component_check(boundaries[idx], labels):
                    continue
            yield from rec(idx + 1, rest)
        labels[k] = 0

    yield from rec(0, total)


def divisor_branches(profile: FixedPointProfile, opts: SearchOptions) -> List[Optional[int]]:
    """The divisor branches a search runs, in order.  Minimal nonnegative
    searches with use_divisors take ``opts.divisor_c`` or every admissible
    divisor (only 1 and 5 under dim8_strict when n = 4); other nonnegative
    searches take ``opts.divisor_c``, possibly None; bounded ones take None."""
    if opts.mode == "bounded":
        return [None]
    if profile.is_minimal and opts.use_divisors:
        divisors = [opts.divisor_c] if opts.divisor_c else minimal_divisors(profile.n)
        if opts.dim8_strict and profile.n == 4:
            divisors = [c for c in divisors if c in (1, 5)]
        return divisors
    return [opts.divisor_c]


def enumerate_magnitude_labelings(graph: Multigraph, profile: FixedPointProfile,
                                  opts: SearchOptions) -> Iterator[Tuple[int, ...]]:
    """Public labeling stream: all labelings with the invariant sum, over
    the divisor branches of the search, deduplicated."""
    seen: Set[Tuple[int, ...]] = set()
    for c in divisor_branches(profile, opts):
        for lab in stream_labelings(graph, profile, opts, divisor=c):
            if lab not in seen:
                seen.add(lab)
                yield lab


# ---------------------------------------------------------------------------
# Solving (A(Gamma) - diag(m)) w = 0 componentwise
# ---------------------------------------------------------------------------

def solve_weights(graph: Multigraph, magnitudes: Sequence[int]) -> Optional[WeightFamily]:
    """The weight family of (graph, m), or None when some component matrix is
    nonsingular or its kernel misses the open positive orthant."""
    edges = graph.edges
    if len(magnitudes) != len(edges):
        raise ValueError("labeling length does not match edge count")
    amat = [[int(x) for x in row] for row in graph_matrix(edges).rows]
    comps = graph.components()
    kernels: List[NullspaceDescription] = []
    for comp in comps:
        sub = [[amat[h][k] - (int(magnitudes[h]) if h == k else 0) for k in comp] for h in comp]
        # the component matrix is square, so it is singular exactly when its
        # kernel is nonzero, and a zero kernel misses the positive orthant
        kernel = nullspace(RationalMatrix(sub))
        if positive_combination(kernel) is None:
            return None
        kernels.append(kernel)
    return WeightFamily(graph, tuple(int(x) for x in magnitudes), comps, kernels)


def _component_checker(graph: Multigraph):
    """Pruning predicate for stream_labelings: component must be singular
    with a positive kernel."""
    amat = [[int(x) for x in row] for row in graph_matrix(graph.edges).rows]

    def check(comp: List[int], labels: Dict[int, int]) -> bool:
        sub = [[amat[h][k] - (labels[h] if h == k else 0) for k in comp] for h in comp]
        if int_determinant(sub) != 0:
            return False
        return positive_kernel_exists(RationalMatrix(sub))

    return check


# ---------------------------------------------------------------------------
# Instance vetting
# ---------------------------------------------------------------------------

def lemma_filters(ws: WeightSystem, g: WeightedMultigraph,
                  dim8_strict: bool = False) -> Dict[str, Optional[str]]:
    """Arithmetic rejection rules for an instance with a chosen pairing.

    Keys map to None (pass) or a failure description:
      multiple_edge_gcd   parallel edge bundles of size >= n-1, or whose
                          complement at both endpoints is all cycles, must
                          have coprime weights;
      divisor_propagation for every sub-bundle of parallel edges with gcd
                          g > 1, both endpoints must carry another weight
                          divisible by g;
      chern_constant      the two first-Chern-constant expressions must agree
                          and be a positive divisor of n(n+1)^2/2, at most
                          n+1 (minimal profiles only);
      dim8_strict         in dimension 8 the constant must be 1 or 5.
    """
    n = ws.n
    report: Dict[str, Optional[str]] = {
        "multiple_edge_gcd": None,
        "divisor_propagation": None,
        "chern_constant": None,
        "dim8_strict": None,
    }
    bundles: Dict[Tuple[int, int], List[int]] = {}
    for (i, j, w) in g.wedges:
        if i != j:
            bundles.setdefault((i, j), []).append(w)
    incident_cycles_only: Dict[int, bool] = {}
    for v in range(ws.num_points):
        others = [e for e in g.wedges if v in (e[0], e[1])]
        incident_cycles_only[v] = all(e[0] == e[1] for e in others)
    for (i, j), wsb in bundles.items():
        if len(wsb) < 2:
            continue
        gg = 0
        for w in wsb:
            gg = gcd(gg, w)
        if len(wsb) >= n - 1 and gg != 1:
            report["multiple_edge_gcd"] = (
                "bundle %s->%s of size %d has gcd %d" % (i, j, len(wsb), gg)
            )
        rest_i = [e for e in g.wedges if i in (e[0], e[1]) and not (e[0] == i and e[1] == j)]
        rest_j = [e for e in g.wedges if j in (e[0], e[1]) and not (e[0] == i and e[1] == j)]
        if gg != 1 and all(e[0] == e[1] for e in rest_i) and all(e[0] == e[1] for e in rest_j):
            report["multiple_edge_gcd"] = (
                "bundle %s->%s isolated by cycles has gcd %d" % (i, j, gg)
            )
        # divisor propagation over every sub-bundle of size >= 2
        for size in range(2, len(wsb) + 1):
            for sub in itertools.combinations(range(len(wsb)), size):
                gs = 0
                for t in sub:
                    gs = gcd(gs, wsb[t])
                if gs == 1:
                    continue
                taken = [wsb[t] for t in sub]
                rem_i = list(ws.points[i])
                rem_j = list(ws.points[j])
                for w in taken:
                    rem_i.remove(w)
                    rem_j.remove(-w)
                if not any(x % gs == 0 for x in rem_i) or not any(x % gs == 0 for x in rem_j):
                    report["divisor_propagation"] = (
                        "sub-bundle %s of %s->%s (gcd %d) has no companion multiple"
                        % (taken, i, j, gs)
                    )
    profile = ws.profile
    if profile.is_minimal and list(profile.lambdas) == list(range(n + 1)):
        sums = ws.weight_sums()
        neg1 = [w for w in ws.points[1] if w < 0]
        posn1 = [w for w in ws.points[n - 1] if w > 0]
        if len(neg1) == 1 and len(posn1) == 1:
            v1 = Fraction(sums[1] - sums[0], neg1[0])
            v2 = Fraction(sums[n - 1] - sums[n], posn1[0])
            half = n * (n + 1) ** 2 // 2
            if v1 != v2:
                report["chern_constant"] = "endpoint constants differ: %s vs %s" % (v1, v2)
            elif v1.denominator != 1 or not 1 <= v1 <= n + 1 or half % int(v1) != 0:
                report["chern_constant"] = "constant %s not a divisor of %d in [1, %d]" % (
                    v1, half, n + 1)
            elif dim8_strict and n == 4 and int(v1) not in (1, 5):
                report["dim8_strict"] = "constant %s not in {1, 5}" % (v1,)
    return report


def vet_instance(ws: WeightSystem, opts: SearchOptions) -> Optional[str]:
    """Full per-instance battery; returns the name of the first failing
    filter, or None when the instance passes everything."""
    failures = weight_system_checks(ws)
    if failures:
        return "structural"
    n = ws.n
    profile = ws.profile
    minimal = profile.is_minimal and list(profile.lambdas) == list(range(n + 1))
    c1 = None
    if minimal:
        sums = ws.weight_sums()
        if any(a <= b for a, b in zip(sums, sums[1:])):
            return "monotone_sums"
        consts = minimal_chern_constants(ws)
        half = n * (n + 1) ** 2 // 2
        if any(c.denominator != 1 or c <= 0 for c in consts):
            return "chern_constants"
        if minimal_chern_constants(ws.reversed()) != consts:
            return "chern_constants"
        c1 = int(consts[1])
        if not 1 <= c1 <= n + 1 or half % c1 != 0:
            return "chern_constants"
        if opts.dim8_strict and n == 4 and c1 not in (1, 5):
            return "dim8_strict"
    pair_mode = "nonneg" if opts.mode == "nonnegative" else "all"
    pairings = integral_multigraphs(ws, mode=pair_mode, congruent=True)
    good_pairing = None
    for g in pairings:
        rep = lemma_filters(ws, g, dim8_strict=opts.dim8_strict)
        if all(v is None for v in rep.values()):
            good_pairing = g
            break
    if good_pairing is None:
        return "no_admissible_pairing"
    report = chern_battery(ws)
    if not report.ok:
        return "localization"
    if minimal and c1 is not None:
        levels = derive_levels(ws, c1)
        if levels is None:
            return "index_levels"
        try:
            rvals = r_values_at_one(ws, levels)
        except (NotLaurent, ConsistencyFailure):
            return "index_laurent"
        l0 = n + 1 - c1
        if any(v.denominator != 1 for v in rvals):
            return "index_integrality"
        if rvals[0] != 1:
            return "index_todd"
        if any(rvals[s] != 0 for s in range(l0 + 1, len(rvals))):
            return "index_vanishing"
        if any(rvals[s] != rvals[l0 - s] for s in range(l0 + 1)):
            return "index_symmetry"
        if sum(rvals) <= 0:
            return "index_volume"
    return None


# ---------------------------------------------------------------------------
# Classification driver
# ---------------------------------------------------------------------------

@dataclass
class FamilyReport:
    """A surviving family, canonically presented."""

    family: WeightFamily
    instances: List[WeightSystem]
    signature_count: int

    @property
    def graph(self) -> Multigraph:
        return self.family.graph

    @property
    def magnitudes(self) -> Tuple[int, ...]:
        return self.family.magnitudes

    def kernel_dim(self) -> int:
        return sum(k.dim for k in self.family.comp_kernels)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "magnitudes": list(self.magnitudes),
            "kernel_dim": self.kernel_dim(),
            "parametric_weights": self.family.parametric_weights(),
            "instance_count": len(self.instances),
            "sample_instances": [ws.to_json() for ws in self.instances[:5]],
        }


@dataclass
class ClassificationResult:
    profile: FixedPointProfile
    options: SearchOptions
    graphs_examined: int
    audit: Dict
    families: List[FamilyReport]


def search_graph(graph: Multigraph, profile: FixedPointProfile, opts: SearchOptions,
                 divisor: Optional[int] = None) -> Tuple[List[WeightFamily], Dict[str, int]]:
    """Stage 2+3 for one graph (and one divisor branch when given): stream
    labelings with pruning and return the surviving weight families."""
    counts = {"labelings": 0, "families": 0}
    checker = _component_checker(graph)
    families: List[WeightFamily] = []
    budget = [opts.max_labelings] if opts.max_labelings else None
    stream = stream_labelings(graph, profile, opts, divisor=divisor,
                              component_check=checker, budget=budget)
    for lab in stream:
        counts["labelings"] += 1
        fam = solve_weights(graph, lab)
        if fam is not None:
            families.append(fam)
            counts["families"] += 1
    if budget is not None and budget[0] < 0:
        counts["truncated"] = 1
    return families, counts


def _signatures(ws: WeightSystem, pair_mode: str = "nonneg") -> List[Tuple[Tuple, Tuple[int, ...]]]:
    """Canonical (graph edges, integer magnitudes) signatures over all
    admissible pairings of the instance."""
    sigs = []
    for g in integral_multigraphs(ws, mode=pair_mode, congruent=True):
        mags = magnitudes_from_weights(ws, g)
        edges = tuple((i, j) for i, j, _ in g.wedges)
        sigs.append((edges, tuple(int(m) for m in mags)))
    # Pairings with extra cycles blur the family structure (any two systems
    # sharing their extremal weights produce the same all-cycles signature),
    # so keep only the signatures with as few cycles as possible.
    def ncycles(sig):
        return sum(1 for i, j in sig[0] if i == j)

    least = min(map(ncycles, sigs), default=0)
    return sorted(set(s for s in sigs if ncycles(s) == least))


def run_fingerprint(profile: FixedPointProfile, opts: SearchOptions) -> str:
    """Key of a classify run: profile, options and the names and contents of
    this package's modules.  Result caches are named by it and checkpoint
    files record it."""
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


Block = Tuple[int, Optional[int]]  # (graph index, divisor branch)
BlockResult = Tuple[List[WeightFamily], Dict[str, int]]  # search_graph's output


def _block_key(block: Block) -> str:
    gi, c = block
    return "%d:%s" % (gi, "-" if c is None else c)


def _load_checkpoint(path: str, fingerprint: str, graphs: List[Multigraph],
                     blocks: List[Block]) -> Dict[Block, BlockResult]:
    """The blocks recorded in checkpoint file ``path`` (none when it does not
    exist), re-solved from their stored magnitudes."""
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
    done = {}
    for block in blocks:
        rec = data["blocks"].get(_block_key(block))
        if rec is not None:
            graph = graphs[block[0]]
            done[block] = ([solve_weights(graph, m) for m in rec["families"]], rec["counts"])
    return done


def _save_checkpoint(path: str, fingerprint: str, done: Dict[Block, BlockResult]) -> None:
    """Atomically replace ``path`` with the finished blocks: the magnitudes
    of each block's families and its search counts."""
    import tempfile  # imported where used: keeps `import circleweights` light

    blocks = {_block_key(block): {"families": [list(f.magnitudes) for f in fams],
                                  "counts": counts}
              for block, (fams, counts) in done.items()}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"fingerprint": fingerprint, "blocks": blocks}, fh)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _search_block(payload) -> BlockResult:
    """One block; at module level so that a spawned worker can unpickle it."""
    graph, profile, opts, divisor = payload
    return search_graph(graph, profile, opts, divisor=divisor)


def _search_blocks(profile: FixedPointProfile, opts: SearchOptions, graphs: List[Multigraph],
                   blocks: List[Block], jobs: int,
                   checkpoint: Optional[str]) -> Dict[Block, BlockResult]:
    """search_graph's output for every block: restored from ``checkpoint``
    when recorded there, otherwise searched (in a pool of ``jobs`` processes
    when jobs > 1) and recorded."""
    done: Dict[Block, BlockResult] = {}
    if checkpoint:
        fingerprint = run_fingerprint(profile, opts)
        done = _load_checkpoint(checkpoint, fingerprint, graphs, blocks)
    todo = [block for block in blocks if block not in done]
    payloads = [(graphs[gi], profile, opts, c) for gi, c in todo]
    pool = None
    if jobs > 1 and len(todo) > 1:
        # imported here: at module level they double the cost of `import circleweights`
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)),
                                   mp_context=multiprocessing.get_context("spawn"))
    try:
        outputs = pool.map(_search_block, payloads) if pool else map(_search_block, payloads)
        for block, out in zip(todo, outputs):
            done[block] = out
            if checkpoint:
                _save_checkpoint(checkpoint, fingerprint, done)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return done


def classify(profile: FixedPointProfile, opts: SearchOptions, jobs: int = 1,
             checkpoint: Optional[str] = None) -> ClassificationResult:
    """Full pipeline.  Stages 2 and 3 run in (graph index, divisor) blocks,
    merged in one fixed order, so the result is the same whether a block is
    searched here, in a pool of ``jobs`` worker processes, or restored from
    the JSON file ``checkpoint``.  That file records every finished block and
    is resumed from when it exists; CheckpointMismatch is raised, and the file
    left as it is, when it was written for another profile, other options or
    other package source."""
    validate_profile(profile)
    mode = "nonneg" if opts.mode == "nonnegative" else "all"
    graphs = enumerate_multigraphs(profile, mode=mode, dedup="reversal")
    blocks = [(gi, c) for gi in range(len(graphs)) for c in divisor_branches(profile, opts)]
    done = _search_blocks(profile, opts, graphs, blocks, jobs, checkpoint)
    audit: Dict = {"graphs": {gi: {"labelings": 0, "families": 0} for gi in range(len(graphs))},
                   "rejections": {}, "instances": 0, "passing": 0}
    candidates: Dict[Tuple[Tuple, Tuple[int, ...]], WeightFamily] = {}
    for gi, c in blocks:
        fams, counts = done[gi, c]
        gaudit = audit["graphs"][gi]
        gaudit["labelings"] += counts["labelings"]
        if counts.get("truncated"):
            gaudit["truncated"] = True
        for fam in fams:
            key = (fam.graph.edges, fam.magnitudes)
            if key not in candidates:
                candidates[key] = fam
                gaudit["families"] += 1
    # stage 4: instantiate and vet
    passing: Dict[WeightSystem, List[Tuple[Tuple, Tuple[int, ...]]]] = {}
    for key in sorted(candidates):
        fam = candidates[key]
        for inst in fam.witness_instances(opts.witness_bound, opts.cycle_bound):
            if inst in passing:
                continue
            audit["instances"] += 1
            verdict = vet_instance(inst, opts)
            if verdict is None:
                passing[inst] = _signatures(inst, "nonneg" if opts.mode == "nonnegative" else "all")
                audit["passing"] += 1
            else:
                audit["rejections"][verdict] = audit["rejections"].get(verdict, 0) + 1
    # union-find over signatures linked by instances
    parent: Dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigs in passing.values():
        for s in sigs:
            parent.setdefault(s, s)
        for s in sigs[1:]:
            ra, rb = find(sigs[0]), find(s)
            if ra != rb:
                parent[rb] = ra
    groups: Dict = {}
    for inst, sigs in passing.items():
        root = find(sigs[0])
        groups.setdefault(root, {"instances": [], "sig_votes": {}})
        groups[root]["instances"].append(inst)
        for s in sigs:
            groups[root]["sig_votes"][s] = groups[root]["sig_votes"].get(s, 0) + 1
    reports: List[FamilyReport] = []
    for root, data in groups.items():
        def sig_rank(item):
            (edges, mags), votes = item
            ncycles = sum(1 for i, j in edges if i == j)
            return (-votes, ncycles, edges, mags)

        best = sorted(data["sig_votes"].items(), key=sig_rank)[0][0]
        edges, mags = best
        rep_graph = Multigraph(profile.n, profile.lambdas, edges)
        fam = candidates.get((edges, mags)) or solve_weights(rep_graph, mags)
        if fam is None:
            # signature not solvable as a family (should not happen); fall
            # back to any candidate signature of the group
            continue
        reports.append(FamilyReport(
            family=fam,
            instances=sorted(data["instances"], key=lambda w: w.points),
            signature_count=len(data["sig_votes"]),
        ))
    reports.sort(key=lambda r: (r.graph.edges, r.magnitudes))
    return ClassificationResult(
        profile=profile,
        options=opts,
        graphs_examined=len(graphs),
        audit=audit,
        families=reports,
    )
