import dataclasses
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import circleweights
from circleweights import search
from circleweights.core import (
    FixedPointProfile,
    ProfileError,
    WeightSystem,
    minimal_profile,
    weight_system_checks,
)
from circleweights.fixtures import cp, grassmannian, s2xs2, v5, v22
from circleweights.hattori import DIM8_CONSTANTS, derive_levels
from circleweights.graphs import (
    Multigraph,
    WeightedMultigraph,
    enumerate_multigraphs,
    integral_multigraphs,
    magnitudes_from_weights,
)
from circleweights.localization import (
    chern_constant_parts,
    expected_c1cn1,
    in_index_order,
    minimal_chern_constants,
)
from circleweights.linalg import (
    LATTICE_BOX_LIMIT,
    graph_matrix,
    int_determinant,
    kernel_lattice_points,
    nullspace,
    positive_kernel_exists,
)
from circleweights.search import (
    SearchOptions,
    admissible_pairing,
    _component_checker,
    classify,
    divisor_branches,
    magnitude_sum,
    minimal_divisors,
    run_fingerprint,
    search_graph,
    solve_weights,
    stream_labelings,
    vet_instance,
)
from test_hattori import SYSTEMS
from test_linalg import reference_determinant, reference_positive_kernel_vector

S2XS2 = FixedPointProfile(2, (0, 1, 1, 2))
TRIANGLE = Multigraph(2, (0, 1, 2), ((0, 1), (0, 2), (1, 2)))
SQUARE = Multigraph(2, (0, 1, 1, 2), ((0, 1), (0, 2), (1, 3), (2, 3)))


def test_magnitude_sums():
    assert magnitude_sum(S2XS2) == 8
    assert magnitude_sum(minimal_profile(2)) == 9
    assert magnitude_sum(minimal_profile(3)) == 24
    assert magnitude_sum(minimal_profile(4)) == 50


def test_magnitude_sum_is_an_int_for_every_profile():
    # every palindromic count vector (N_0, ..., N_n) with entries in 0..2 and
    # at least two points, n <= 12: the formula's half-integer term
    # n(5 - 3n)/2 is an integer, so nothing is truncated
    profiles = 0
    for n in range(1, 13):
        for half in itertools.product(range(3), repeat=n // 2 + 1):
            counts = half + half[::-1][(n + 1) % 2:]
            lambdas = tuple(p for p in range(n + 1) for _ in range(counts[p]))
            if len(lambdas) < 2:
                continue
            profile = FixedPointProfile(n, lambdas)
            value = magnitude_sum(profile)
            assert type(value) is int and value == expected_c1cn1(profile), profile
            assert type(expected_c1cn1(profile)) is int, profile
            profiles += 1
    assert profiles == 4350


def test_minimal_divisors():
    assert minimal_divisors(2) == [3, 1]
    assert minimal_divisors(3) == [4, 3, 2, 1]
    assert minimal_divisors(4) == [5, 2, 1]


def branch_labelings(graph, profile, opts):
    """The labelings of every divisor branch of the search, in branch order."""
    return [lab for c in divisor_branches(profile, opts)
            for lab in stream_labelings(graph, profile, opts, divisor=c)]


def test_labelings_triangle():
    opts = SearchOptions()
    labs = branch_labelings(TRIANGLE, minimal_profile(2), opts)
    assert (3, 3, 3) in labs
    for lab in labs:
        assert sum(lab) == 9
        assert all(m >= 1 for m in lab)


def test_labelings_square_count():
    # non-minimal profile: nonneg parts allowed, C(11,3) = 165 compositions,
    # of which C(7,3) = 35 are strictly positive
    opts = SearchOptions()
    labs = list(reference_stream_labelings(SQUARE, S2XS2, opts))
    assert len(labs) == 165
    assert len([l for l in labs if all(m >= 1 for m in l)]) == 35
    assert (2, 2, 2, 2) in labs
    # the search keeps those whose matrix is singular with a positive kernel
    assert branch_labelings(SQUARE, S2XS2, opts) == [
        lab for lab in labs if solve_weights(SQUARE, lab) is not None]


def test_labelings_unique_for_k5_divisor5():
    k5 = Multigraph(4, tuple(range(5)), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    opts = SearchOptions(divisor_c=5)
    labs = branch_labelings(k5, minimal_profile(4), opts)
    assert labs == [tuple([5] * 10)]


def test_labelings_follow_dim8_strict():
    # dimension 8 under the strict restriction searches only the branches 5 and 1
    strict = SearchOptions(dim8_strict=True)
    assert divisor_branches(minimal_profile(4), strict) == [5, 1]
    k5 = Multigraph(4, tuple(range(5)), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    labs = branch_labelings(k5, minimal_profile(4), SearchOptions(dim8_strict=True, divisor_c=2))
    assert labs == []


def test_labelings_respect_cycles():
    g = Multigraph(2, (0, 1, 1, 2), ((0, 2), (0, 2), (1, 1)))
    opts = SearchOptions()
    for lab in branch_labelings(g, S2XS2, opts):
        assert lab[2] == 0  # cycle edge carries magnitude 0
        assert lab[0] + lab[1] == 8


def reference_stream_labelings(graph, profile, opts, divisor=None, component_check=None,
                               budget=None, subtrees=None):
    """stream_labelings before its bounds became one rule: per-edge
    low/high/step dicts in four branches, and the bounds of the remaining
    positions summed again at every node.  A list ``subtrees`` receives
    (position, budget on entry, budget on exit) for every node whose loop
    ran to its end; the budget covered its subtree when the last is >= 0."""
    total = magnitude_sum(profile)
    edges = graph.edges
    noncycle = [k for k, e in enumerate(edges) if e[0] != e[1]]
    comps = graph.components()
    order = [k for comp in comps for k in comp]
    boundaries = {}
    pos = 0
    for comp in comps:
        pos += len(comp)
        boundaries[pos - 1] = comp
    amat = graph_matrix(edges)

    if opts.bound_d is not None:
        lows = {k: -2 * opts.bound_d for k in noncycle}
        highs = {k: 2 * opts.bound_d for k in noncycle}
        step = {k: 1 for k in noncycle}
    else:
        minimal = profile.is_minimal
        lows, highs, step = {}, {}, {}
        pinned = set(search._unit_edge_positions(graph)) if divisor is not None else set()
        for k in noncycle:
            base = search._row_sign_minimum(amat, k) if minimal else 0
            if divisor is not None:
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

    labels = {k: 0 for k in range(len(edges))}

    def rec(idx, remaining):
        if idx == len(order):
            if remaining == 0:
                yield tuple(labels[k] for k in range(len(edges)))
            return
        entered = budget[0] if budget is not None else None
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
        if subtrees is not None:
            subtrees.append((idx, entered, budget[0]))

    yield from rec(0, total)


def reference_component_checker(graph, singular=None):
    """The component check before the determinant became a polynomial carried
    down the search: one determinant per completed component, then the
    positive-kernel test on the singular ones, each of which a list
    ``singular`` counts."""
    amat = graph_matrix(graph.edges)

    def check(comp, labels):
        sub = search._component_matrix(amat, labels, comp)
        if int_determinant(sub) != 0:
            return False
        if singular is not None:
            singular.append(1)
        return positive_kernel_exists(sub)

    return check


def stream_and_reference(graph, profile, opts, divisor, budget, boundary=None):
    """(labelings, budget cell left, positive-kernel tests) of stream_labelings
    and of the reference stream with the reference component check, whose
    tests are its singular components.  A list ``boundary`` receives, for
    each value that the reference checks at the last position of the first
    component, the nodes charged up to it and whether it is a root of the
    determinant."""
    tested, singular, cells = [], [], ([budget], [budget])
    check = reference_component_checker(graph, singular)
    if boundary is not None:
        first, unrecorded = graph.components()[0], check

        def check(comp, labels):
            roots = len(singular)
            ok = unrecorded(comp, labels)
            if comp == first:
                boundary.append((budget - cells[1][0], len(singular) > roots))
            return ok

    with mock.patch.object(search, "positive_kernel_exists",
                           lambda rows: tested.append(1) or positive_kernel_exists(rows)):
        got = list(stream_labelings(graph, profile, opts, divisor=divisor, budget=cells[0]))
    want = list(reference_stream_labelings(graph, profile, opts, divisor=divisor,
                                           component_check=check, budget=cells[1]))
    return (got, cells[0], len(tested)), (want, cells[1], len(singular))


def open_positions(graph, divisor):
    """The search positions of the last component whose label has more than
    one value in the nonnegative search, and those pinned to ``divisor``."""
    comps = graph.components()
    order = [k for comp in comps for k in comp]
    pinned = search._unit_edge_positions(graph) if divisor else []
    last = range(len(order) - len(comps[-1]), len(order))
    return ([idx for idx in last if order[idx] not in pinned],
            [idx for idx in last if order[idx] in pinned])


def test_stream_labelings_match_the_reference():
    """The same labelings in the same order, the same search-tree nodes
    charged to the budget cell, and one positive-kernel test per singular
    component, as the reference stream with the reference component check."""
    def both(graph, profile, opts, divisor, budget):
        got, want = stream_and_reference(graph, profile, opts, divisor, budget)
        assert got == want, (profile, opts, graph.edges, divisor, budget)
        return len(got[0])

    # every graph and divisor branch of d4, d6 and S^2 x S^2, nonnegative and
    # bounded with D = 1, 2, 3, and S^2 x S^2 on the branches C = 2 and 3,
    # searched in full ...
    cases = [(profile, opts) for profile in (minimal_profile(2), minimal_profile(3), S2XS2)
             for opts in [SearchOptions()] + [SearchOptions(bound_d=d) for d in (1, 2, 3)]]
    cases += [(S2XS2, SearchOptions(divisor_c=c)) for c in (2, 3)]
    streams = labelings = 0
    for profile, opts in cases:
        for graph in enumerate_multigraphs(profile, mode=opts.pair_mode, dedup="reversal"):
            for c in divisor_branches(profile, opts):
                labelings += both(graph, profile, opts, c, 10 ** 9)
                streams += 1
    # ... and every d8 graph of the branch C = 1 under a node budget
    profile = minimal_profile(4)
    opts = SearchOptions(dim8_strict=True, divisor_c=1)
    for graph in D8_GRAPHS:
        labelings += both(graph, profile, opts, 1, 3000)
        streams += 1
    assert (streams, labelings) == (179, 206)
    # The last three open positions of a connected graph are in the closed
    # form of stream_labelings, which charges a subtree in one step when the
    # budget covers it.  On every fifth d8 graph that is connected: a budget
    # of one node, and, for the node with the largest subtree that the
    # reference covers within B nodes, at the next-to-last position with
    # B = 3000 and at the third-to-last open position with B = 20000 (no
    # subtree there fits in 3000), a budget ending inside that subtree and
    # one ending exactly where it does.
    connected = [g for g in D8_GRAPHS[::5] if len(g.components()) == 1]
    for graph in connected:
        budgets = {1}
        for position, cover in ((len(graph.components()[0]) - 2, 3000),
                                (open_positions(graph, 1)[0][-3], 20000)):
            subtrees = []
            list(reference_stream_labelings(graph, profile, opts, divisor=1, budget=[cover],
                                            component_check=reference_component_checker(graph),
                                            subtrees=subtrees))
            _, entered, left = max((t for t in subtrees if t[0] == position and t[2] >= 0),
                                   key=lambda t: t[1] - t[2])
            assert entered - left >= 2
            budgets |= {cover - entered + (entered - left) // 2, cover - left}
        for budget in sorted(budgets):
            both(graph, profile, opts, 1, budget)
    assert len(connected) == 15
    # At the last position of a component the determinant is linear in the
    # label, and the loop there visits only its roots, charging the values
    # before each root with it.  On the five two-component d8 graphs, budgets
    # that run out at the value tried after a root (after the root's subtree
    # where it has one), at a root, and inside the subtree of a root, so
    # that the loop goes on with a negative cell (the first such subtree of
    # graph 67 lies past node 197,000, too far for a fast test)
    stops = {58: (15009, 15008, 51132), 67: (1931, 1930, None), 72: (28292, 28237, 28265),
             73: (28267, 28237, 28253), 74: (28251, 28237, 28245)}
    for gi, (after, at, inside) in stops.items():
        graph = D8_GRAPHS[gi]
        assert len(graph.components()) == 2
        for budget in (after, at, inside):
            if budget is None:
                continue
            boundary = []
            got, want = stream_and_reference(graph, profile, opts, 1, budget, boundary)
            assert got == want, (gi, budget)
            # the value a budget runs out at is charged but never checked
            if budget == after:
                assert boundary[-1][1]
            elif budget == at:
                assert boundary[-1] == (budget, False)
            else:
                assert boundary[-1][1] and want[1][0] < -1


def test_closed_form_shapes_match_the_reference():
    """Streams whose closed form has fewer than three unknowns, a label of
    one value between them, or negative labels, equal the reference's, with
    the same nodes charged and the same positive-kernel tests."""
    full = 10 ** 9
    # fewer than three open positions in the last component: d4 and d6
    # graphs, the two-component d8 graphs 58, 67 and 74 (under a budget),
    # and components of pinned edges alone (drawn by hand; the search takes
    # any graph)
    few = [(g, profile, SearchOptions(), c, full)
           for profile in (minimal_profile(2), minimal_profile(3))
           for g in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal")
           for c in divisor_branches(profile, SearchOptions())]
    few += [(D8_GRAPHS[gi], minimal_profile(4), SearchOptions(dim8_strict=True, divisor_c=1), 1,
             3000) for gi in (58, 67, 74)]
    few += [(Multigraph(2, S2XS2.lambdas, edges), S2XS2, SearchOptions(), c, full)
            for edges in (((0, 1), (2, 3)), ((0, 2), (1, 3), (2, 3))) for c in (2, 4)]
    assert {len(open_positions(g, c)[0]) for g, _, _, c, _ in few} >= {0, 1, 2}
    # a pinned unit edge between the unknowns: each graph of d6 (C = 2, 3)
    # and S^2 x S^2 (C = 1, 2, 3) with one edge out of the top point added,
    # so that the (P_{N-1}, P_N) edge is no longer last
    between = []
    for profile, divisors in ((minimal_profile(3), (2, 3)), (S2XS2, (1, 2, 3))):
        top = len(profile.lambdas) - 1
        for g in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal"):
            for end, c in itertools.product(range(top), divisors):
                graph = Multigraph(profile.n, profile.lambdas, g.edges + ((top, end),))
                unknown, pinned = open_positions(graph, c)
                if len(unknown) >= 3 and any(unknown[-3] < p < unknown[-1] for p in pinned):
                    between.append((graph, profile, SearchOptions(), c, full))
    assert len(between) == 57
    # bounded streams (every orientation, labels in [-2D, 2D])
    bounded = [(g, S2XS2, SearchOptions(bound_d=3), None, full)
               for g in enumerate_multigraphs(S2XS2, mode="all", dedup="reversal")]
    found = {}
    for name, group in (("few", few), ("between", between), ("bounded", bounded)):
        for graph, profile, opts, c, budget in group:
            got, want = stream_and_reference(graph, profile, opts, c, budget)
            assert got == want, (name, graph.edges, c)
            found.setdefault(name, []).extend(got[0])
    assert len(found["between"]) == 2
    assert sum(1 for lab in found["bounded"] if min(lab) < 0) == 16


def fold_coefficients(poly, lines):
    """The label-by-label fold that the closed form of stream_labelings made
    before it grouped sums: each label below is a line a + b v, folded into
    the multilinear polynomial lowest bit first, each entry
    (c0, c1, c2) for c0 + c1 v + c2 v^2."""
    quad = [(c, 0, 0) for c in poly]
    for a, b in lines:
        quad = [(c0 + a * d0, c1 + a * d1 + b * d0, c2 + a * d2 + b * d1)
                for (c0, c1, c2), (d0, d1, d2) in zip(quad[0::2], quad[1::2])]
    return quad[0]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6), st.data())
def test_grouped_sums_match_the_label_by_label_fold(size, data):
    """The eight grouped sums give the coefficients of the determinant in v
    that folding the labels one by one gives, at every value of u."""
    poly = data.draw(st.lists(st.integers(-20, 20), min_size=1 << size, max_size=1 << size))
    count = data.draw(st.integers(1, min(3, size)))
    bits = sorted(data.draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count,
                                     unique=True)))
    # the unknowns are u, v, w; two are v, w; one is v, and w is absent
    roles = dict(zip(bits, {3: (4, 2, 1), 2: (2, 1), 1: (2,)}[count]))
    fixed = [1 if b in roles else data.draw(st.integers(-6, 6)) for b in range(size)]
    target = data.draw(st.integers(-30, 30))
    u = data.draw(st.integers(-10, 10)) if count == 3 else 0
    # w takes target - u - v, or nothing without one
    lines = [(u, 0) if roles.get(b) == 4 else (0, 1) if roles.get(b) == 2
             else (target - u, -1) if roles.get(b) == 1 else (fixed[b], 0) for b in range(size)]
    weights = search._group_weights([roles.get(b, 0) for b in range(size)], fixed)
    sums = [sum(map(operator.mul, poly, vec)) for vec in weights]
    coefficients = search._quadratic_in_v(sums, target)
    assert tuple(sum(c * u ** k for k, c in enumerate(cs)) for cs in coefficients) == (
        fold_coefficients(poly, lines))


def test_two_component_d8_blocks_unbudgeted():
    """A fast slice of the full d8 divisor-1 branch: the four blocks of
    two-component graphs that finish in about a second, searched without a
    node budget (a cell of 10^9 that they do not spend), with their
    labelings and search-tree nodes."""
    profile, opts = minimal_profile(4), SearchOptions(dim8_strict=True, divisor_c=1)
    counts = []
    for gi in (72, 73, 74, 67):
        assert len(D8_GRAPHS[gi].components()) == 2
        budget = [10 ** 9]
        labelings = list(stream_labelings(D8_GRAPHS[gi], profile, opts, divisor=1, budget=budget))
        counts.append((len(labelings), 10 ** 9 - budget[0]))
    assert counts == [(480, 268_016), (60, 171_406), (120, 143_490), (96, 1_222_335)]


@settings(max_examples=500, deadline=None)
@given(st.integers(-4, 4), st.integers(-6, 6), st.integers(-3, 3), st.integers(-12, 12),
       st.integers(0, 15), st.integers(1, 4))
@example(0, 0, 0, -3, 7, 2)  # identically zero: every value
@example(5, 0, 0, -3, 7, 2)  # a nonzero constant: none
@example(-6, 3, 0, -3, 7, 1)  # linear, root 2 in range
@example(-6, 3, 0, -3, 7, 3)  # linear, root 2 off the step lattice
@example(6, 4, 0, -3, 7, 1)  # linear, no integer root
@example(4, -4, 1, -5, 11, 1)  # double root 2
@example(-2, 1, 1, -5, 11, 1)  # roots -2 and 1
@example(-2, 0, 1, -5, 11, 1)  # irrational roots
@example(-2, 0, 0, 0, 0, 1)  # empty range
def test_quadratic_roots_match_brute_force(q0, q1, q2, start, count, step):
    values = range(start, start + count * step, step)
    got = search._quadratic_roots(q0, q1, q2, values)
    assert list(got) == [v for v in values if q0 + q1 * v + q2 * v * v == 0]


# every graph of the bounded search (all orientations) with n <= 3
SMALL_GRAPHS = [g for profile in (minimal_profile(1), minimal_profile(2), minimal_profile(3), S2XS2)
                for g in enumerate_multigraphs(profile, mode="all", dedup="reversal")]
# every graph of the dimension-8 nonnegative search
D8_GRAPHS = enumerate_multigraphs(minimal_profile(4), mode="nonneg", dedup="reversal")


def specialised_determinants(graph, labels):
    """Each component's determinant polynomial from _component_checker with
    its labels fixed one at a time, in search order."""
    dets = []
    for comp, poly in zip(graph.components(), _component_checker(graph)):
        for k in comp:
            poly = [c + labels[k] * d for c, d in zip(poly[0::2], poly[1::2])]
        assert len(poly) == 1
        dets.append(poly[0])
    return dets


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL_GRAPHS), st.data())
def test_determinant_polynomial_matches_the_determinant(graph, data):
    labels = data.draw(st.lists(st.integers(-9, 9), min_size=len(graph.edges),
                                max_size=len(graph.edges)))
    amat = graph_matrix(graph.edges)
    want = [int_determinant(search._component_matrix(amat, labels, comp))
            for comp in graph.components()]
    assert specialised_determinants(graph, labels) == want


def test_determinant_polynomial_edge_cases():
    # one edge: det(2 - m)
    one = Multigraph(1, (0, 1), ((0, 1),))
    assert _component_checker(one) == [[2, -1]]
    assert [specialised_determinants(one, [m]) for m in (2, 5)] == [[0], [-3]]
    # only cycles: no component, so nothing to check
    loops = Multigraph(2, (1, 1), ((0, 0), (1, 1)))
    assert _component_checker(loops) == []
    assert specialised_determinants(loops, [0, 0]) == []
    # the coefficient of the product of all labels is the empty minor, signed
    for graph in SMALL_GRAPHS:
        for comp, poly in zip(graph.components(), _component_checker(graph)):
            assert len(poly) == 2 ** len(comp) and poly[-1] == (-1) ** len(comp)


def reference_component_polynomials(graph):
    """_component_checker before it took only the forests: every one of the
    2^|E| principal minors of each component by int_determinant."""
    amat = graph_matrix(graph.edges)
    polys = []
    for comp in graph.components():
        poly = []
        for subset in range(1 << len(comp)):
            kept = [k for p, k in enumerate(comp) if not subset >> p & 1]
            minor = int_determinant([[amat[h][k] for k in kept] for h in kept])
            poly.append(-minor if bin(subset).count("1") % 2 else minor)
        polys.append(poly)
    return polys


def tree_vertex_counts(edges):
    """The vertex counts of the connected pieces of ``edges`` when they form
    a forest (|E| = |V| - #pieces), else None."""
    pieces = []
    for e in edges:
        merged = set(e).union(*(p for p in pieces if p & set(e)))
        pieces = [p for p in pieces if not p & set(e)] + [merged]
    sizes = [len(p) for p in pieces]
    return sizes if len(edges) == sum(sizes) - len(sizes) else None


def test_component_checker_matches_the_full_minor_table():
    assert len(D8_GRAPHS) == 75
    for graph in SMALL_GRAPHS + D8_GRAPHS:
        assert _component_checker(graph) == reference_component_polynomials(graph), graph.edges


def reference_forest_polynomials(graph):
    """_component_checker before it read minors from a memo: a submatrix of
    A(Gamma) and a Bareiss int_determinant for every forest of every
    component."""
    amat = graph_matrix(graph.edges)
    polys = []
    for comp in graph.components():
        poly = [0] * (1 << len(comp))
        for kept in search._forests([graph.edges[k] for k in comp]):
            rows = [k for p, k in enumerate(comp) if kept >> p & 1]
            minor = int_determinant([[amat[h][k] for k in rows] for h in rows])
            subset = len(poly) - 1 - kept
            poly[subset] = -minor if bin(subset).count("1") % 2 else minor
        polys.append(poly)
    return polys


def test_memoised_forest_minors_match_the_bareiss_build():
    # every small graph, every d8 graph and a seeded sample of the d10 graphs
    d10 = enumerate_multigraphs(minimal_profile(5), mode="nonneg", dedup="reversal")
    assert len(d10) == 2475
    for graph in SMALL_GRAPHS + D8_GRAPHS + random.Random(10).sample(d10, 100):
        assert _component_checker(graph) == reference_forest_polynomials(graph), graph.edges


def test_forest_minors_are_computed_once_per_run():
    """A run meets only the forests of the complete graph on its points (7,
    38 and 291 of them on 3, 4 and 5 points), computes the minor of each
    once, and starts from an empty memo: a d4 run calls int_determinant 7
    times whether or not a d6 run came first."""
    calls = []

    def counting(rows):
        calls.append(1)
        return int_determinant(rows)

    d8 = SearchOptions(dim8_strict=True, divisor_c=1, max_labelings=50_000)  # d8_c1_budget's
    with mock.patch.object(search, "int_determinant", counting):
        for n, opts, forests in ((2, SearchOptions(), 7), (3, SearchOptions(), 38),
                                 (2, SearchOptions(), 7), (4, d8, 291)):
            calls.clear()
            classify(minimal_profile(n), opts)
            assert len(calls) == search._forest_minor.cache_info().currsize == forests, n


def test_minors_are_zero_off_forests_and_tree_products_on_them():
    # Cauchy-Binet on A(Gamma) = B^T B: kept edges with a cycle have linearly
    # dependent incidence columns, and a forest's minor counts the ways to
    # drop one vertex from each tree (the matrix-tree theorem)
    forest_dimensions = []
    for graph in SMALL_GRAPHS + D8_GRAPHS:
        for comp, poly in zip(graph.components(), _component_checker(graph)):
            for subset, coef in enumerate(poly):
                sizes = tree_vertex_counts(
                    [graph.edges[k] for p, k in enumerate(comp) if not subset >> p & 1])
                if sizes is None:
                    assert coef == 0
                else:
                    assert coef == (-1) ** bin(subset).count("1") * math.prod(sizes) != 0
                    forest_dimensions.append(graph.n)
    # 9,556 forests among the 33,076 minors in dimension 8; by their endpoint
    # pairs they are the 291 forests of K5, one determinant each per run
    assert forest_dimensions.count(4) == 9556


def component_matrix(graph, magnitudes, comp):
    """A(Gamma) - diag(m) restricted to one connected component."""
    amat = graph_matrix(graph.edges)
    return [[amat[h][k] - (magnitudes[h] if h == k else 0) for k in comp] for h in comp]


def test_solve_triangle():
    fam = solve_weights(TRIANGLE, (3, 3, 3))
    assert fam is not None
    sub = component_matrix(TRIANGLE, (3, 3, 3), fam.graph.components()[0])
    assert kernel_lattice_points(nullspace(sub), 3)[0] == (1, 2, 1)
    for v in fam.comp_kernels[0].basis:
        assert v[1] == v[0] + v[2]  # w(e02) = w(e01) + w(e12)


def test_solve_square():
    # edge order after sorting: (0,1), (0,2), (1,3), (2,3); the kernel pairs
    # opposite sides of the square
    fam = solve_weights(SQUARE, (2, 2, 2, 2))
    assert fam is not None
    sub = component_matrix(SQUARE, (2, 2, 2, 2), fam.graph.components()[0])
    assert kernel_lattice_points(nullspace(sub), 3)[0] == (1, 1, 1, 1)
    for v in fam.comp_kernels[0].basis:
        assert v[0] == v[3] and v[1] == v[2]


def test_solve_rejects_nonsingular():
    assert solve_weights(TRIANGLE, (4, 4, 1)) is None


def singular_with_positive_kernel(graph, labeling):
    """The decision solve_weights makes, by the Fraction Gauss-Jordan
    reference: determinant and a separate positivity test on every
    component."""
    for comp in graph.components():
        sub = component_matrix(graph, labeling, comp)
        if reference_determinant(sub) != 0:
            return False
        if reference_positive_kernel_vector(sub) is None:
            return False
    return True


def test_solve_weights_matches_determinant_and_positivity():
    # every labeling of the dimension-4 graphs, without pruning ...
    # (the minimal profile over its divisor branches and without divisors)
    cases = []
    opts = SearchOptions()
    for profile, branches in ((minimal_profile(2), divisor_branches(minimal_profile(2), opts)),
                              (minimal_profile(2), [None]),
                              (S2XS2, divisor_branches(S2XS2, opts))):
        for graph in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal"):
            for c in branches:
                cases += [(graph, lab) for lab in reference_stream_labelings(
                    graph, profile, opts, divisor=c)]
    # ... and the labelings the dimension-6 search streams
    d6 = []
    profile, opts = minimal_profile(3), SearchOptions()
    for graph in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal"):
        for c in divisor_branches(profile, opts):
            d6 += [(graph, lab) for lab in stream_labelings(graph, profile, opts, divisor=c)]
    assert len(d6) == 92
    verdicts = set()
    for graph, lab in cases + d6:
        want = singular_with_positive_kernel(graph, lab)
        assert (solve_weights(graph, lab) is not None) == want, (graph.edges, lab)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_classify_fails_on_a_group_without_family(monkeypatch):
    # every signature of a passing instance has a weight family; were one
    # missing, classify must fail instead of dropping the group
    monkeypatch.setattr(search, "_signatures", lambda ws, mode: [(TRIANGLE.edges, (4, 4, 1))])
    with pytest.raises(RuntimeError, match="no weight family"):
        classify(minimal_profile(2), SearchOptions())


def reference_weighted_graphs(fam, bound=12, cycle_bound=4):
    """The witness builder WeightFamily.witness_instances replaced: scatter
    each product entry into an edge-weight vector and weigh the graph's
    edges with it, one WeightedMultigraph per vector, ineffective ones
    included."""
    edges = fam.graph.edges
    cycle_positions = [k for k, e in enumerate(edges) if e[0] == e[1]]
    comp_choices = []
    for ker in fam.comp_kernels:
        eb = bound
        while eb > 2 and eb ** ker.dim > LATTICE_BOX_LIMIT:
            eb -= 1
        pts = kernel_lattice_points(ker, eb)
        if not pts:
            return []
        comp_choices.append(pts)
    cycle_choices = [range(1, cycle_bound + 1)] * len(cycle_positions)
    out = []
    for combo in itertools.product(*comp_choices, *cycle_choices):
        vec = [0] * len(edges)
        for ci, comp in enumerate(fam.graph.components()):
            for pos, k in enumerate(comp):
                vec[k] = combo[ci][pos]
        for t, k in enumerate(cycle_positions):
            vec[k] = combo[len(fam.graph.components()) + t]
        wedges = tuple((i, j, w) for (i, j), w in zip(edges, vec))
        out.append(WeightedMultigraph(fam.graph.n, fam.graph.lambdas, wedges))
    return out


def effective_or_none(graphs):
    """The reference systems, with None wherever the full structural check
    fails: where witness_instances must build no WeightSystem."""
    systems = [wg.weight_system() for wg in graphs]
    return [ws if not weight_system_checks(ws) else None for ws in systems]


def streamed_families(profile):
    opts = SearchOptions()
    fams = []
    for graph in enumerate_multigraphs(profile, mode=opts.pair_mode, dedup="reversal"):
        fams += search_graph(graph, profile, opts)[0]
    return fams


# (instances, ineffective ones) over every streamed family, witness box 12, cycles 4
INSTANCE_COUNTS = {minimal_profile(2): (162, 113), minimal_profile(3): (11794, 9657),
                   S2XS2: (1268, 722)}


@pytest.mark.parametrize("profile, count, with_cycles, split", [
    (minimal_profile(2), 5, 4, 0),
    (minimal_profile(3), 92, 62, 12),
    (S2XS2, 20, 6, 1),
])
def test_witness_instances_match_the_weighted_graph_builder(profile, count, with_cycles, split):
    fams = streamed_families(profile)
    assert len(fams) == count
    assert sum(1 for f in fams if f.graph.cycles()) == with_cycles
    assert sum(1 for f in fams if len(f.graph.components()) > 1) == split
    seen = []
    for fam in fams:
        want = effective_or_none(reference_weighted_graphs(fam, 12, 4))
        assert fam.witness_instances(12, 4) == want, (fam.graph.edges, fam.magnitudes)
        seen += want
    assert (len(seen), seen.count(None)) == INSTANCE_COUNTS[profile]


def classify_candidates(profile, opts):
    """The candidate families of classify, keyed by (edges, magnitudes): the
    first family of each key over the graphs in classify's order."""
    candidates = {}
    for graph in enumerate_multigraphs(profile, mode=opts.pair_mode, dedup="reversal"):
        for fam in search_graph(graph, profile, opts)[0]:
            candidates.setdefault((graph.edges, fam.magnitudes), fam)
    return candidates


def reference_stage4(candidates, opts):
    """classify's stage 4 before families were grouped by parallel-edge
    orbit: every family instantiated, and every instance not yet passing
    vetted.  Returns the audit's instance counts and the passing instances
    in the order classify records them."""
    audit = {"rejections": {}, "instances": 0, "passing": 0}
    passing = {}
    for key in sorted(candidates):
        for inst in candidates[key].witness_instances(opts.witness_bound):
            if inst in passing:
                continue
            audit["instances"] += 1
            verdict = "structural" if inst is None else vet_instance(inst, opts)
            if verdict is None:
                passing[inst] = None
                audit["passing"] += 1
            else:
                audit["rejections"][verdict] = audit["rejections"].get(verdict, 0) + 1
    return audit, list(passing)


# classify runs, with their (candidate families, parallel-edge orbits)
STAGE4_RUNS = {
    "d4": (minimal_profile(2), SearchOptions(), (3, 2)),
    "d6": (minimal_profile(3), SearchOptions(), (72, 31)),
    "s2xs2": (S2XS2, SearchOptions(), (20, 20)),
    "s2xs2_bounded2": (S2XS2, SearchOptions(bound_d=2), (16, 16)),
}


@pytest.mark.parametrize("run", sorted(STAGE4_RUNS))
def test_families_of_one_orbit_have_the_same_instances(run):
    profile, opts, counts = STAGE4_RUNS[run]
    candidates = classify_candidates(profile, opts)
    orbits = {}
    for key, fam in candidates.items():
        orbits.setdefault(search._orbit_key(*key), []).append(fam)
    assert (len(candidates), len(orbits)) == counts

    def instances(fam):
        # a fixed order, None (an ineffective lattice point) first
        return sorted(fam.witness_instances(opts.witness_bound),
                      key=lambda ws: (ws is not None, ws.points if ws else ()))

    for fams in orbits.values():
        want = instances(fams[0])
        for fam in fams[1:]:
            assert instances(fam) == want, (fam.graph.edges, fam.magnitudes)


@pytest.mark.parametrize("run", sorted(STAGE4_RUNS))
def test_stage4_matches_the_reference(run, monkeypatch):
    profile, opts, (_, orbits) = STAGE4_RUNS[run]
    # classify computes the signatures of each passing instance once, as
    # it records it, and instantiates one family per orbit
    recorded, instantiated = [], []
    signatures = search._signatures
    witness_instances = search.WeightFamily.witness_instances

    def recording(ws, pair_mode):
        recorded.append(ws)
        return signatures(ws, pair_mode)

    def counting(fam, *args):
        instantiated.append(fam)
        return witness_instances(fam, *args)

    monkeypatch.setattr(search, "_signatures", recording)
    monkeypatch.setattr(search.WeightFamily, "witness_instances", counting)
    audit = classify(profile, opts).audit
    assert len(instantiated) == orbits
    monkeypatch.undo()
    want, passing = reference_stage4(classify_candidates(profile, opts), opts)
    assert {key: audit[key] for key in want} == want
    assert list(audit["rejections"].items()) == list(want["rejections"].items())
    assert recorded == passing


def reference_parametric_weights(fam):
    """WeightFamily.parametric_weights before each edge's linear form was
    built once: the far end's entry made by editing the printed string."""
    edges = fam.graph.edges
    exprs = ["" for _ in edges]
    pnum = 0
    for comp, ker in zip(fam.graph.components(), fam.comp_kernels):
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
            exprs[k] = "".join(terms).lstrip("+") or "0"
    cnum = 0
    for k, e in enumerate(edges):
        if e[0] == e[1]:
            cnum += 1
            exprs[k] = "c[%d]" % cnum

    def negate(expr):
        if expr.startswith("-") and "+" not in expr and "-" not in expr[1:]:
            return expr[1:]
        if "+" in expr or "-" in expr[1:]:
            return "-(%s)" % expr
        return "-" + expr

    points = [[] for _ in fam.graph.lambdas]
    for k, (i, j) in enumerate(edges):
        if i == j:
            points[i].extend([exprs[k], negate(exprs[k])])
        else:
            points[i].append(exprs[k])
            points[j].append(negate(exprs[k]))
    return points


# candidate families (all, with cycles) of searches covering cycle parameters
PARAMETRIC_RUNS = {
    "d4": (minimal_profile(2), SearchOptions(), (3, 2)),
    "d6": (minimal_profile(3), SearchOptions(), (72, 42)),
    "s2xs2": (S2XS2, SearchOptions(), (20, 6)),
    "s2xs2_bounded3": (S2XS2, SearchOptions(bound_d=3), (36, 6)),
    "d6_nonminimal_budget": (FixedPointProfile(3, (0, 1, 1, 2, 2, 3)),
                             SearchOptions(max_labelings=2000), (25, 23)),
}


@pytest.mark.parametrize("run", sorted(PARAMETRIC_RUNS))
def test_parametric_weights_match_the_reference(run):
    profile, opts, counts = PARAMETRIC_RUNS[run]
    fams = list(classify_candidates(profile, opts).values())
    assert (len(fams), sum(1 for f in fams if f.graph.cycles())) == counts
    for fam in fams:
        assert fam.parametric_weights() == reference_parametric_weights(fam), fam.graph.edges


def test_witness_instances_reproduce_magnitudes():
    fam = solve_weights(TRIANGLE, (3, 3, 3))
    graphs = reference_weighted_graphs(fam, 4, 2)
    assert graphs
    want = effective_or_none(graphs)
    assert None in want and any(want)
    assert want == fam.witness_instances(4, 2)
    for wg in graphs:
        assert magnitudes_from_weights(wg.weight_system(), wg) == (3, 3, 3)


def reference_lemma_filters(ws, g):
    """The report admissible_pairing replaced: every rule's failure
    description (None when it passes), for every bundle of parallel edges."""
    from math import gcd

    n = ws.n
    report = {"multiple_edge_gcd": None, "divisor_propagation": None}
    bundles = {}
    for (i, j, w) in g.wedges:
        if i != j:
            bundles.setdefault((i, j), []).append(w)
    for (i, j), wsb in bundles.items():
        if len(wsb) < 2:
            continue
        gg = gcd(*wsb)
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
        for size in range(2, len(wsb) + 1):
            for sub in itertools.combinations(range(len(wsb)), size):
                taken = [wsb[t] for t in sub]
                gs = gcd(*taken)
                if gs == 1:
                    continue
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
    return report


def test_lemma_filters_v5_passes():
    ws = v5()
    g = integral_multigraphs(ws)[0]
    assert admissible_pairing(ws, g)
    assert reference_lemma_filters(ws, g) == {"multiple_edge_gcd": None,
                                              "divisor_propagation": None}


def test_admissible_pairing_matches_the_reference_report():
    from test_graphs import FIXTURE_SYSTEMS, instantiated_systems

    seen = rejected = 0
    for mode in ("all", "nonneg"):
        for ws in FIXTURE_SYSTEMS + instantiated_systems():
            for g in integral_multigraphs(ws, mode):
                want = all(v is None for v in reference_lemma_filters(ws, g).values())
                assert admissible_pairing(ws, g) == want, (ws.points, g.wedges)
                seen += 1
                rejected += not want
    assert (seen, rejected) == (2474, 1249)


def random_pairing(rng):
    """A weighted multigraph on 2 to 4 points whose 2 to 7 edges fall in at
    most three cells (i, j), so that bundles and cycles are common, with
    weights rich in common divisors."""
    npts = rng.randint(2, 4)
    cells = rng.sample([(i, j) for i in range(npts) for j in range(npts)], rng.randint(1, 3))
    wedges = [(*rng.choice(cells), rng.choice((1, 2, 3, 4, 6, 8, 9, 12)))
              for _ in range(rng.randint(2, 7))]
    return WeightedMultigraph(rng.randint(2, 6), tuple(range(npts)), wedges)


def test_admissible_pairing_matches_the_reference_report_on_random_pairings():
    # each pairing realizes its own weight system; 666 of the 2,000 fail on
    # divisor propagation alone, where admissible_pairing counts multiples
    # and the reference enumerates sub-bundles
    rng = random.Random(2026)
    rejected = divisor_only = 0
    for _ in range(2000):
        g = random_pairing(rng)
        ws = g.weight_system()
        report = reference_lemma_filters(ws, g)
        want = all(v is None for v in report.values())
        assert admissible_pairing(ws, g) == want, (ws.points, g.wedges)
        rejected += not want
        divisor_only += report["multiple_edge_gcd"] is None and not want
    assert rejected >= 1000 and divisor_only >= 600


def test_a_bundle_isolated_by_cycles_needs_coprime_weights():
    # the bundle 0->1 (weights 2, 4) is smaller than n - 1 = 3 and every
    # sub-bundle has a companion multiple; only the cycles around it reject it
    g = WeightedMultigraph(4, (1, 3), ((0, 1, 2), (0, 1, 4), (0, 0, 2), (1, 1, 2)))
    ws = g.weight_system()
    assert reference_lemma_filters(ws, g) == {
        "multiple_edge_gcd": "bundle 0->1 isolated by cycles has gcd 2",
        "divisor_propagation": None}
    assert not admissible_pairing(ws, g)


# a 10-edge multigraph with one cycle and a divisor-2 magnitude labeling
# whose first witness instance passes the structural, monotone-sum and
# Chern-constant checks with first Chern constant 2; vet_instance must reject
# it as dim8_strict when the dimension-8 restriction (constant in {1, 5}) is on
DIM8_C2_GRAPH = Multigraph(
    4,
    (0, 1, 2, 3, 4),
    ((0, 1), (0, 2), (0, 4), (0, 4), (1, 3), (1, 3), (1, 3), (2, 2), (2, 4), (3, 4)),
)
DIM8_C2_LABELING = (2, 4, 6, 12, 2, 6, 12, 0, 4, 2)


def test_dim8_strict_rejects_constant_two():
    from circleweights.localization import minimal_chern_constants

    fam = solve_weights(DIM8_C2_GRAPH, DIM8_C2_LABELING)
    assert fam is not None
    inst = fam.witness_instances(6, 3)[0]
    assert minimal_chern_constants(inst)[1] == 2
    assert vet_instance(inst, SearchOptions(dim8_strict=True)) == "dim8_strict"
    assert vet_instance(inst, SearchOptions()) != "dim8_strict"


def test_vet_fixtures_pass():
    opts = SearchOptions()
    for ws in [cp((2, 1, 0)), grassmannian((2, 1)), v5(), v22()]:
        assert vet_instance(ws, opts) is None, ws.points
    assert vet_instance(cp((4, 3, 2, 1, 0)), SearchOptions(dim8_strict=True)) is None


def test_vet_rejects_scaled_weights():
    ws = WeightSystem(2, ((2, 4), (-2, 2), (-4, -2)))
    assert vet_instance(ws, SearchOptions()) is not None


def reference_minimal_chern_constants(ws):
    """minimal_chern_constants before it read integer parts: each C_i a
    Fraction built from the weight sums."""
    sums = ws.weight_sums()
    out = [Fraction(1)]
    for i in range(1, ws.num_points):
        num = math.prod(sums[i] - sums[j] for j in range(i))
        out.append(Fraction(num, math.prod(w for w in ws.points[i] if w < 0)))
    return out


def reference_vet_prefix(ws, opts):
    """vet_instance up to its pairing filter before the Chern-constant rules
    were decided in integers: (the Chern sub-rule that fails, the verdict,
    C_1).  A verdict of None means the instance goes on to the pairings."""
    if weight_system_checks(ws):
        return None, "structural", None
    if not in_index_order(ws):
        return None, None, None
    sums = ws.weight_sums()
    if any(a <= b for a, b in zip(sums, sums[1:])):
        return chern_sub_rule(ws), "monotone_sums", None
    rule = chern_sub_rule(ws)
    if rule is not None:
        return rule, "chern_constants", None
    c1 = int(reference_minimal_chern_constants(ws)[1])
    if opts.dim8_strict and ws.n == 4 and c1 not in DIM8_CONSTANTS:
        return None, "dim8_strict", c1
    return None, None, c1


def chern_sub_rule(ws):
    """The first Chern-constant rule the Fraction code fails on ``ws``, in
    index order, or None."""
    consts = reference_minimal_chern_constants(ws)
    if any(c.denominator != 1 for c in consts):
        return "non-integral"
    if any(c <= 0 for c in consts):
        return "non-positive"
    if reference_minimal_chern_constants(ws.reversed()) != consts:
        return "reversed mismatch"
    if consts[1] not in minimal_divisors(ws.n):
        return "divisor"
    return None


def vet_and_c1(ws, opts):
    """vet_instance's verdict, and the C_1 it hands to the index battery
    (None when the battery does not run)."""
    seen = []

    def recording(ws, c1):
        seen.append(c1)
        return derive_levels(ws, c1)

    with mock.patch.object(search, "derive_levels", recording):
        verdict = vet_instance(ws, opts)
    return verdict, (seen[0] if seen else None)


def check_chern_rules(ws, opts):
    """vet_instance and chern_constant_parts against the Fraction code on
    ``ws``; returns the Chern sub-rule that the Fraction code fails, if any."""
    rule, want, c1 = reference_vet_prefix(ws, opts)
    verdict, got_c1 = vet_and_c1(ws, opts)
    if want is not None:
        assert verdict == want, ws.points
    else:
        assert verdict not in ("structural", "monotone_sums", "chern_constants", "dim8_strict")
        assert got_c1 in (None, c1), ws.points
    if in_index_order(ws) and not any(0 in p for p in ws.points):
        parts = [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in chern_constant_parts(ws)]
        assert parts == list(zip(reference_minimal_chern_constants(ws)[1:],
                                 reference_minimal_chern_constants(ws.reversed())[1:]))
        assert minimal_chern_constants(ws) == reference_minimal_chern_constants(ws)
    return rule, verdict, got_c1


def shifted_pair(ws, pick, delta):
    """A copy of ``ws`` with the ``pick``-th matched pair +w, -w (counted
    over the positions of +w and -w) moved to +(w + delta), -(w + delta); None
    when w + delta is not positive."""
    pts = [list(p) for p in ws.points]
    pairs = [(i, a, j, b) for i, p in enumerate(pts) for a, w in enumerate(p) if w > 0
             for j, q in enumerate(pts) for b, x in enumerate(q) if x == -w]
    i, a, j, b = pairs[pick % len(pairs)]
    w = pts[i][a] + delta
    if w <= 0:
        return None
    pts[i][a], pts[j][b] = w, -w
    return WeightSystem(ws.n, pts)


@settings(max_examples=150, deadline=None)
@given(SYSTEMS, st.none() | st.tuples(st.integers(0, 60), st.sampled_from([-2, -1, 1, 2])),
       st.booleans())
def test_chern_rules_match_the_fraction_code(ws, shift, dim8_strict):
    assume(ws is not None)
    if shift is not None:
        ws = shifted_pair(ws, *shift)
        assume(ws is not None)
    rule, verdict, c1 = check_chern_rules(ws, SearchOptions(dim8_strict=dim8_strict))
    if shift is None:
        # the fixtures pass the whole battery, with the C_1 of the Fraction code
        assert (rule, verdict) == (None, None) and c1 is not None


def test_every_chern_rule_fires_on_shifted_fixtures():
    # the Chern verdicts and C_1 of vet_instance equal the Fraction code's on
    # small fixtures and on every copy with one matched pair moved by 1 or 2.
    # A non-positive C_i comes with non-monotone weight sums (s_i - s_j and
    # the i negative weights at point i both have the sign (-1)^i), so it
    # fires only where monotone_sums rejects first.
    fixtures = [cp(xi) for xi in ((2, 1, 0), (3, 1, 0), (3, 2, 0), (3, 2, 1, 0), (4, 2, 1, 0))]
    fixtures += [grassmannian((2, 1)), grassmannian((3, 1))]
    fired = {}
    for ws in fixtures:
        for shift in [None] + [(k, d) for k in range(4 * ws.n) for d in (-2, -1, 1, 2)]:
            inst = ws if shift is None else shifted_pair(ws, *shift)
            if inst is None:
                continue
            rule, verdict, _ = check_chern_rules(inst, SearchOptions())
            fired.setdefault((rule, verdict), inst)
    assert ("non-integral", "chern_constants") in fired
    assert ("non-positive", "monotone_sums") in fired
    assert ("reversed mismatch", "chern_constants") in fired
    assert ("divisor", "chern_constants") in fired
    assert not any(rule == "non-positive" for rule, verdict in fired if verdict != "monotone_sums")


def test_a_passing_instance_reuses_its_pairing_list(monkeypatch):
    # the last integral_multigraphs list is kept, per system and mode: one
    # mode never gets the other's list
    for ws in (cp((3, 2, 1, 0)), grassmannian((2, 1)), v5()):
        fresh = {mode: integral_multigraphs.__wrapped__(ws, mode) for mode in ("all", "nonneg")}
        assert fresh["all"] != fresh["nonneg"]
        for mode in ("all", "nonneg", "nonneg", "all", "all", "nonneg"):
            got = integral_multigraphs(ws, mode=mode)
            assert got == fresh[mode] and got is integral_multigraphs(ws, mode=mode)
            other = "all" if mode == "nonneg" else "nonneg"
            assert integral_multigraphs(ws, mode=other) is not got
    # d6: the signatures classify records for its passing instances, and
    # their verdicts, equal those of a fresh enumeration per call
    recorded = {}
    signatures = search._signatures

    def recording(ws, pair_mode):
        recorded[ws] = signatures(ws, pair_mode)
        return recorded[ws]

    monkeypatch.setattr(search, "_signatures", recording)
    result = classify(minimal_profile(3), SearchOptions())
    assert len(recorded) == result.audit["passing"] == 220
    monkeypatch.setattr(search, "integral_multigraphs", integral_multigraphs.__wrapped__)
    for ws, sigs in recorded.items():
        assert vet_instance(ws, SearchOptions()) is None
        assert signatures(ws, "nonneg") == sigs


def test_classify_dim4():
    res = classify(minimal_profile(2), SearchOptions())
    assert res.graphs_examined == 2
    assert len(res.families) == 1
    fam = res.families[0]
    assert fam.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert fam.magnitudes == (3, 3, 3)
    # the CP^2 relation: second weight at the minimum is the sum of the others
    assert cp((2, 1, 0)) in fam.instances


def test_classify_dim6():
    res = classify(minimal_profile(3), SearchOptions())
    assert res.graphs_examined == 7
    assert len(res.families) == 4
    by_mag = {fam.magnitudes: fam for fam in res.families}
    k4 = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    # CP^3: complete graph, all magnitudes 4
    cp3 = by_mag[(4,) * 6]
    assert cp3.graph.edges == k4
    assert cp((3, 2, 1, 0)) in cp3.instances
    # Grassmannian family: complete graph, magnitudes (3,3,6,6,3,3)
    gr = by_mag[(3, 3, 6, 6, 3, 3)]
    assert gr.graph.edges == k4
    assert grassmannian((2, 1)) in gr.instances
    # the two rigid Fano families
    v5fam = by_mag[(2, 6, 4, 8, 2, 2)]
    assert v5fam.instances == [v5()]
    v22fam = by_mag[(1, 6, 4, 10, 2, 1)]
    assert v22fam.instances == [v22()]


def test_options_refuse_values_below_one():
    for name in ("bound_d", "divisor_c", "max_labelings", "witness_bound"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=name):
                SearchOptions(**{name: value})


def test_classify_refuses_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            classify(minimal_profile(2), SearchOptions(), jobs=jobs)


def test_classify_refuses_a_negative_nonnegative_target(monkeypatch):
    # the nonnegative search of a non-minimal profile with target -4 has no
    # labeling, so an empty, untruncated result would claim a complete
    # search; the refusal, like an invalid profile's, comes before any block
    blocks = []
    monkeypatch.setattr(search, "_search_blocks", lambda *args: blocks.append(args))
    profile = FixedPointProfile(4, (2, 2))
    with pytest.raises(ProfileError, match="^nonnegative mode refused: .* target -4;"):
        classify(profile, SearchOptions())
    with pytest.raises(ProfileError):
        classify(FixedPointProfile(3, (0, 1, 1, 3)), SearchOptions())
    assert blocks == []
    monkeypatch.undo()
    assert classify(profile, SearchOptions(bound_d=1)).graphs_examined == 3


def test_every_option_changes_the_fingerprint():
    other = {"bound_d": 2, "divisor_c": 3, "dim8_strict": True, "witness_bound": 11,
             "max_labelings": 1000}
    assert sorted(other) == sorted(f.name for f in dataclasses.fields(SearchOptions))
    base = SearchOptions()
    key = run_fingerprint(minimal_profile(2), base)
    for name, value in other.items():
        changed = dataclasses.replace(base, **{name: value})
        assert run_fingerprint(minimal_profile(2), changed) != key, name


def test_search_graph_audit_counts():
    fams, counts = search_graph(TRIANGLE, minimal_profile(2), SearchOptions())
    assert counts["labelings"] >= 1 and fams
    assert sorted(counts) == ["labelings"]


def reference_graph_audit(profile, opts):
    """The audit's per-graph records as classify built them from (graph,
    divisor) blocks: every branch streamed under its own budget, the
    labelings summed per graph, a family counted where its key is first
    seen, a graph truncated when any of its branches was."""
    audit, seen = {}, set()
    graphs = enumerate_multigraphs(profile, mode=opts.pair_mode, dedup="reversal")
    for gi, graph in enumerate(graphs):
        rec = audit[gi] = {"labelings": 0, "families": 0}
        for c in divisor_branches(profile, opts):
            budget = [opts.max_labelings] if opts.max_labelings is not None else None
            for lab in stream_labelings(graph, profile, opts, divisor=c, budget=budget):
                rec["labelings"] += 1
                if solve_weights(graph, lab) is not None and (graph.edges, lab) not in seen:
                    seen.add((graph.edges, lab))
                    rec["families"] += 1
            if budget is not None and budget[0] < 0:
                rec["truncated"] = True
    return audit


@pytest.mark.parametrize("profile, opts", [
    (minimal_profile(2), SearchOptions()),
    (minimal_profile(3), SearchOptions()),
    (S2XS2, SearchOptions()),
    (S2XS2, SearchOptions(bound_d=2)),
    # every d6 graph has a branch cut short by 300 nodes and one that is not
    (minimal_profile(3), SearchOptions(max_labelings=300)),
], ids=["d4", "d6", "s2xs2", "s2xs2_bounded2", "d6_budget300"])
def test_graph_audit_matches_the_per_branch_reference(profile, opts, tmp_path):
    ck = tmp_path / "ck.json"
    result = classify(profile, opts, checkpoint=str(ck))
    assert result.audit["graphs"] == reference_graph_audit(profile, opts)
    blocks = json.loads(ck.read_text())["blocks"]
    assert sorted(blocks, key=int) == [str(gi) for gi in range(result.graphs_examined)]


def test_component_checker_is_built_once_per_graph():
    # d6 has 7 graphs and 4 divisor branches: every branch after a graph's
    # first reuses its polynomials
    _component_checker.cache_clear()
    classify(minimal_profile(3), SearchOptions())
    info = _component_checker.cache_info()
    assert (info.misses, info.hits) == (7, 21)


def test_import_loads_no_pool_machinery():
    src = os.path.dirname(os.path.dirname(circleweights.__file__))
    code = ("import sys; sys.path.insert(0, %r); import circleweights; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_classify_deterministic():
    a = classify(minimal_profile(2), SearchOptions())
    b = classify(minimal_profile(2), SearchOptions())
    assert [f.to_json() for f in a.families] == [f.to_json() for f in b.families]


def test_write_atomic_replaces_the_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    search.write_atomic(str(path), "new\n")
    assert path.read_text() == "new\n"
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    with pytest.raises(TypeError):
        search.write_atomic(str(path), b"not text")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.json"]
