import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from circleweights import search
from circleweights.core import FixedPointProfile, WeightSystem, minimal_profile
from circleweights.fixtures import cp, grassmannian, s2xs2, v5, v22
from circleweights.graphs import (
    Multigraph,
    PairingMismatch,
    _edge_filter,
    _edge_multisets,
    enumerate_multigraphs,
    enumerate_pairings,
    integral_multigraphs,
    magnitudes_from_weights,
)

S2XS2 = FixedPointProfile(2, (0, 1, 1, 2))


def test_counts_dim4():
    graphs = enumerate_multigraphs(minimal_profile(2), mode="nonneg", dedup="reversal")
    assert len(graphs) == 2
    edge_sets = sorted(g.edges for g in graphs)
    assert ((0, 1), (0, 2), (1, 2)) in edge_sets
    assert ((0, 2), (0, 2), (1, 1)) in edge_sets


def test_counts_dim6():
    raw = enumerate_multigraphs(minimal_profile(3), mode="nonneg", dedup="none")
    dedup = enumerate_multigraphs(minimal_profile(3), mode="nonneg", dedup="reversal")
    assert len(raw) == 9
    assert len(dedup) == 7


def test_counts_dim8():
    graphs = enumerate_multigraphs(minimal_profile(4), mode="nonneg", dedup="reversal")
    assert len(graphs) == 75


def reference_edge_multisets(row_sums, col_sums, allowed):
    """The degree-matrix generator _edge_multisets replaced: every
    nonnegative integer matrix with the given row and column sums, zero
    outside ``allowed(i, j)``, filled row by row; each matrix is unpacked to
    its sorted tuple of edges (i, j)."""
    npts = len(row_sums)

    def rows(i, remaining_cols):
        if i == npts:
            if all(c == 0 for c in remaining_cols):
                yield []
            return
        cols = [j for j in range(npts) if allowed(i, j) and remaining_cols[j] > 0]

        def fill(pos, left, row):
            if pos == len(cols):
                if left == 0:
                    yield row[:]
                return
            j = cols[pos]
            for v in range(min(left, remaining_cols[j]) + 1):
                row[j] = v
                yield from fill(pos + 1, left - v, row)
            row[j] = 0

        for row in fill(0, row_sums[i], [0] * npts):
            rem = [remaining_cols[j] - row[j] for j in range(npts)]
            for tail in rows(i + 1, rem):
                yield [row] + tail

    return [tuple((i, j) for i in range(npts) for j in range(npts) for _ in range(mat[i][j]))
            for mat in rows(0, list(col_sums))]


def test_edge_multisets_match_degree_matrices():
    # seeded cases on 2-6 points with degrees 0-4 (at most 8 edges, to keep
    # the reference fast), under each orientation mode and a random mask;
    # the lists agree in order too, which decides the representative that
    # enumerate_multigraphs keeps of each reversal class
    rng = random.Random(21)
    cycles = empty_row = cases = 0
    while cases < 150:
        npts = rng.randint(2, 6)
        out_deg = [rng.randint(0, 4) for _ in range(npts)]
        if sum(out_deg) > 8:
            continue
        in_deg = [0] * npts
        for _ in range(sum(out_deg)):
            in_deg[rng.choice([j for j in range(npts) if in_deg[j] < 4])] += 1
        lambdas = sorted(rng.randint(0, 3) for _ in range(npts))
        mask = {(i, j) for i in range(npts) for j in range(npts) if rng.random() < 0.6}
        filters = [_edge_filter(lambdas, mode) for mode in ("all", "nonneg", "positive")]
        for allowed in filters + [lambda i, j: (i, j) in mask]:
            want = reference_edge_multisets(out_deg, in_deg, allowed)
            assert _edge_multisets(out_deg, in_deg, allowed) == want, (out_deg, in_deg)
            cycles += any(i == j for edges in want for i, j in edges)
            empty_row += any(d and not any(allowed(i, j) for j in range(npts) if in_deg[j])
                             for i, d in enumerate(out_deg))
        cases += 1
    assert cycles and empty_row
    # a row, then a column, with degree but no allowed cell: nothing
    assert _edge_multisets([1, 1], [1, 1], lambda i, j: i == 0) == []
    assert _edge_multisets([1, 1], [1, 1], lambda i, j: j == 0) == []
    assert _edge_multisets([0, 0], [0, 0], lambda i, j: True) == [()]
    # unequal totals: the rows, or the columns, cannot all be emptied
    for out_deg, in_deg in (([1, 0], [1, 1]), ([1, 1], [0, 1])):
        assert _edge_multisets(out_deg, in_deg, lambda i, j: True) == []
        assert reference_edge_multisets(out_deg, in_deg, lambda i, j: True) == []
    # beyond the reach of the random cases: dimension 10, 6 points
    assert len(enumerate_multigraphs(minimal_profile(5))) == 2475


def _brute_force_graphs(profile, mode):
    """Independent enumerator: all directed edge multisets with out-degree
    n - lambda_i and in-degree lambda_i, filtered by the index rule."""
    n, lams = profile.n, profile.lambdas
    npts = len(lams)
    slots = []
    for i, lam in enumerate(lams):
        slots.extend([i] * (n - lam))  # out-slots
    found = set()
    targets = list(range(npts))

    def ok(i, j):
        if mode == "nonneg":
            return lams[i] <= lams[j]
        if mode == "positive":
            return lams[i] < lams[j]
        return True

    for choice in itertools.product(targets, repeat=len(slots)):
        edges = tuple(sorted(zip(slots, choice)))
        if edges in found:
            continue
        indeg = [0] * npts
        good = True
        for i, j in edges:
            if not ok(i, j):
                good = False
                break
            indeg[j] += 1
        if good and all(indeg[j] == lams[j] for j in range(npts)):
            found.add(edges)
    return found


@pytest.mark.parametrize("n", [2, 3])
def test_enumeration_matches_brute_force(n):
    prof = minimal_profile(n)
    brute = _brute_force_graphs(prof, "nonneg")
    got = {g.edges for g in enumerate_multigraphs(prof, mode="nonneg", dedup="none")}
    assert got == brute


def test_s2xs2_profile_enumeration_matches_brute_force():
    brute = _brute_force_graphs(S2XS2, "all")
    got = {g.edges for g in enumerate_multigraphs(S2XS2, mode="all", dedup="none")}
    assert got == brute


def test_reversal_involution_and_canonical():
    for g in enumerate_multigraphs(minimal_profile(3), mode="nonneg", dedup="none"):
        assert g.reversed().reversed().edges == g.edges
        assert g.canonical_key() == g.reversed().canonical_key()


def test_components():
    g = Multigraph(2, (0, 1, 1, 2), ((0, 3), (0, 3), (1, 2), (1, 2)))
    comps = g.components()
    assert len(comps) == 2
    k5 = Multigraph(4, (0, 1, 2, 3, 4), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    assert len(k5.components()) == 1
    assert k5.cycles() == ()


def test_s2xs2_pairings_and_magnitudes():
    ws = s2xs2(2, 3)
    pairings = enumerate_pairings(ws, mode="all")
    assert len(pairings) == 4
    mags = sorted(tuple(map(str, magnitudes_from_weights(ws, g))) for g in pairings)
    # the four pairings of the S2xS2-type system at (a,b) = (2,3)
    assert ("2", "2", "2", "2") in [tuple(m) for m in mags]
    for g in pairings:
        assert sum(magnitudes_from_weights(ws, g)) == 8


def test_s2xs2_symbolic_magnitudes_f2_shape():
    # pairing sending both P0 weights to P3: m = (2(a+b)/a, 2(a+b)/b, ...)
    a, b = 4, 5
    ws = s2xs2(a, b)
    expected = sorted([F(2 * (a + b), a), F(2 * (a + b), b), F(2 * (a - b), a), F(2 * (b - a), b)])
    all_mags = [sorted(magnitudes_from_weights(ws, g)) for g in enumerate_pairings(ws, mode="all")]
    assert expected in all_mags


def test_cp2_pairing_magnitudes():
    ws = cp((2, 1, 0))
    pairings = enumerate_pairings(ws, mode="all")
    assert len(pairings) == 2  # the duplicate weight 1 can pair two ways
    for g in pairings:
        assert sorted(magnitudes_from_weights(ws, g)) in ([3, 3, 3], [0, 3, 6])


def pairing_system(n, npts, pairing):
    """The weight system that ``pairing`` realizes on ``npts`` points in
    dimension 2n: each edge (i, j, w) puts w at i and -w at j."""
    return WeightSystem(n, search._share(npts, [e[:2] for e in pairing],
                                         [e[2] for e in pairing])[0])


def test_graph_from_pairing_roundtrip():
    ws = v5()
    for pairing in enumerate_pairings(ws, mode="all"):
        assert pairing == tuple(sorted(pairing))
        assert pairing_system(ws.n, ws.num_points, pairing) == ws


@pytest.mark.parametrize("ab", [(3, 4), (3, 5), (4, 5)])
def test_s2xs2_unique_integral_pairing(ab):
    # coprime a, b >= 3 with neither dividing 2(a+b): only the pairing
    # matching each factor's weights across the diagonal is integral
    a, b = ab
    assert 2 * (a + b) % a != 0 and 2 * (a + b) % b != 0
    survivors = integral_multigraphs(s2xs2(a, b))
    assert len(survivors) == 1
    g = survivors[0]
    assert sorted(magnitudes_from_weights(s2xs2(a, b), g)) == [2, 2, 2, 2]


def test_cp2_integral_pairings_both_survive():
    assert len(integral_multigraphs(cp((2, 1, 0)))) == 2


def test_all_ones_weights_all_pairings_integral():
    ws = WeightSystem(2, ((1, 1), (-1, 1), (-1, -1)))
    pairings = enumerate_pairings(ws, mode="all")
    assert len(integral_multigraphs(ws)) == len(pairings)


def test_congruent_endpoints_filter():
    # both pairings of this system have integer magnitudes, and both join
    # points 2 and 3 by an edge of weight 5, whose residue multisets mod 5,
    # {0, 3, 3} and {0, 2, 4}, differ
    ws = WeightSystem(3, ((1, 2, 2), (-1, 1, 3), (-2, -2, 5), (-5, -3, -1)))
    integral = [g for g in enumerate_pairings(ws, mode="all")
                if all(m == int(m) for m in magnitudes_from_weights(ws, g))]
    assert len(integral) == 2 and all((2, 3, 5) in g for g in integral)
    assert integral_multigraphs(ws) == []


def test_unmatched_weights_raise_pairing_mismatch():
    # +2 sits at points 0 and 1, -2 only at point 2
    ws = WeightSystem(2, ((1, 2), (-1, 2), (-2, -3)))
    for pairings in (enumerate_pairings, integral_multigraphs):
        with pytest.raises(PairingMismatch,
                           match="weight 2 occurs 2 times positively but 1 times negatively"):
            pairings(ws)
    # vetting refuses the system as structural before it pairs anything
    assert search.vet_instance(ws, search.SearchOptions()) == "structural"


def reference_integral_multigraphs(ws, mode="all"):
    """The enumerate-then-filter integral_multigraphs replaced: every pairing,
    kept when all its magnitudes are integers and the endpoints of every
    edge of weight w > 1 have equal residue multisets mod w."""
    out = []
    for g in enumerate_pairings(ws, mode):
        if any(m.denominator != 1 for m in magnitudes_from_weights(ws, g)):
            continue
        if any(
                i != j and w != 1
                and sorted(x % w for x in ws.points[i]) != sorted(x % w for x in ws.points[j])
                for i, j, w in g):
            continue
        out.append(g)
    return out


@functools.lru_cache(maxsize=None)
def instantiated_systems():
    """Every distinct system the d4 and d6 classify runs instantiate, the
    ineffective ones that witness_instances leaves unbuilt included."""
    from circleweights.search import SearchOptions
    from test_search import reference_weighted_graphs

    calls = []
    witness_instances = search.WeightFamily.witness_instances

    def recorded(fam, *args):
        calls.append((fam, args))
        return witness_instances(fam, *args)

    try:
        search.WeightFamily.witness_instances = recorded
        for n in (2, 3):
            search.classify(minimal_profile(n), SearchOptions())
    finally:
        search.WeightFamily.witness_instances = witness_instances
    return tuple(dict.fromkeys(pairing_system(fam.graph.n, fam.graph.num_points, pairing)
                               for fam, args in calls
                               for pairing in reference_weighted_graphs(fam, *args)))


FIXTURE_SYSTEMS = (cp((2, 1, 0)), cp((3, 2, 1, 0)), cp((4, 3, 2, 1, 0)), grassmannian((2, 1)),
                   v5(), v22(), s2xs2(2, 3), s2xs2(3, 4), s2xs2(4, 5), s2xs2(2, 5), s2xs2(3, 5))


@pytest.mark.parametrize("mode", ["all", "nonneg"])
def test_integral_multigraphs_match_enumerate_then_filter(mode):
    systems = FIXTURE_SYSTEMS + instantiated_systems()
    assert len(systems) == 11 + 1473
    pruned = 0
    for ws in systems:
        want = reference_integral_multigraphs(ws, mode)
        assert integral_multigraphs(ws, mode) == want, ws.points
        pruned += len(enumerate_pairings(ws, mode)) - len(want)
    assert pruned > 0
