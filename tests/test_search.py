import itertools
import os
import subprocess
import sys

import pytest

import circleweights
from circleweights.core import FixedPointProfile, minimal_profile
from circleweights.fixtures import cp, grassmannian, s2xs2, v5, v22
from circleweights.graphs import Multigraph, enumerate_multigraphs, integral_multigraphs
from circleweights.linalg import (
    RationalMatrix,
    graph_matrix,
    int_determinant,
    positive_integer_nullvector,
    positive_kernel_exists,
)
from circleweights.search import (
    SearchOptions,
    _component_checker,
    classify,
    divisor_branches,
    enumerate_magnitude_labelings,
    lemma_filters,
    magnitude_sum,
    minimal_divisors,
    search_graph,
    solve_weights,
    stream_labelings,
    vet_instance,
)

S2XS2 = FixedPointProfile(2, (0, 1, 1, 2))
TRIANGLE = Multigraph(2, (0, 1, 2), ((0, 1), (0, 2), (1, 2)))
SQUARE = Multigraph(2, (0, 1, 1, 2), ((0, 1), (0, 2), (1, 3), (2, 3)))


def test_magnitude_sums():
    assert magnitude_sum(S2XS2) == 8
    assert magnitude_sum(minimal_profile(2)) == 9
    assert magnitude_sum(minimal_profile(3)) == 24
    assert magnitude_sum(minimal_profile(4)) == 50


def test_minimal_divisors():
    assert minimal_divisors(2) == [3, 1]
    assert minimal_divisors(3) == [4, 3, 2, 1]
    assert minimal_divisors(4) == [5, 2, 1]


def test_labelings_triangle():
    opts = SearchOptions()
    labs = list(enumerate_magnitude_labelings(TRIANGLE, minimal_profile(2), opts))
    assert (3, 3, 3) in labs
    for lab in labs:
        assert sum(lab) == 9
        assert all(m >= 1 for m in lab)


def test_labelings_square_count():
    # non-minimal profile: nonneg parts allowed, C(11,3) = 165 compositions,
    # of which C(7,3) = 35 are strictly positive
    opts = SearchOptions(use_divisors=False, force_unit_edges=False)
    labs = list(enumerate_magnitude_labelings(SQUARE, S2XS2, opts))
    assert len(labs) == 165
    assert len([l for l in labs if all(m >= 1 for m in l)]) == 35
    assert (2, 2, 2, 2) in labs


def test_labelings_unique_for_k5_divisor5():
    k5 = Multigraph(4, tuple(range(5)), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    opts = SearchOptions(divisor_c=5)
    labs = list(enumerate_magnitude_labelings(k5, minimal_profile(4), opts))
    assert labs == [tuple([5] * 10)]


def test_labelings_follow_dim8_strict():
    # dimension 8 under the strict restriction searches only the branches 5 and 1
    strict = SearchOptions(dim8_strict=True)
    assert divisor_branches(minimal_profile(4), strict) == [5, 1]
    k5 = Multigraph(4, tuple(range(5)), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    labs = enumerate_magnitude_labelings(k5, minimal_profile(4), SearchOptions(dim8_strict=True,
                                                                                divisor_c=2))
    assert list(labs) == []


def test_labelings_respect_cycles():
    g = Multigraph(2, (0, 1, 1, 2), ((0, 2), (0, 2), (1, 1)))
    opts = SearchOptions(use_divisors=False, force_unit_edges=False)
    for lab in enumerate_magnitude_labelings(g, S2XS2, opts):
        assert lab[2] == 0  # cycle edge carries magnitude 0
        assert lab[0] + lab[1] == 8


def component_matrix(graph, magnitudes, comp):
    """A(Gamma) - diag(m) restricted to one connected component."""
    amat = graph_matrix(graph.edges).rows
    return [[int(amat[h][k]) - (magnitudes[h] if h == k else 0) for k in comp] for h in comp]


def test_solve_triangle():
    fam = solve_weights(TRIANGLE, (3, 3, 3))
    assert fam is not None
    sub = RationalMatrix(component_matrix(TRIANGLE, (3, 3, 3), fam.components[0]))
    assert positive_integer_nullvector(sub, search_bound=3) == (1, 2, 1)
    for v in fam.comp_kernels[0].basis:
        assert v[1] == v[0] + v[2]  # w(e02) = w(e01) + w(e12)


def test_solve_square():
    # edge order after sorting: (0,1), (0,2), (1,3), (2,3); the kernel pairs
    # opposite sides of the square
    fam = solve_weights(SQUARE, (2, 2, 2, 2))
    assert fam is not None
    sub = RationalMatrix(component_matrix(SQUARE, (2, 2, 2, 2), fam.components[0]))
    assert positive_integer_nullvector(sub, search_bound=3) == (1, 1, 1, 1)
    for v in fam.comp_kernels[0].basis:
        assert v[0] == v[3] and v[1] == v[2]


def test_solve_rejects_nonsingular():
    assert solve_weights(TRIANGLE, (4, 4, 1)) is None


def singular_with_positive_kernel(graph, labeling):
    """The decision solve_weights makes, by determinant and a separate
    positivity test on every component."""
    for comp in graph.components():
        sub = component_matrix(graph, labeling, comp)
        if int_determinant(sub) != 0 or not positive_kernel_exists(RationalMatrix(sub)):
            return False
    return True


def test_solve_weights_matches_determinant_and_positivity():
    # every labeling of the dimension-4 graphs, without pruning ...
    cases = []
    for profile, opts in ((minimal_profile(2), SearchOptions()),
                          (minimal_profile(2), SearchOptions(use_divisors=False)),
                          (S2XS2, SearchOptions(use_divisors=False, force_unit_edges=False))):
        for graph in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal"):
            for c in divisor_branches(profile, opts):
                cases += [(graph, lab) for lab in stream_labelings(graph, profile, opts, divisor=c)]
    # ... and the labelings the dimension-6 search streams
    d6 = []
    profile, opts = minimal_profile(3), SearchOptions()
    for graph in enumerate_multigraphs(profile, mode="nonneg", dedup="reversal"):
        for c in divisor_branches(profile, opts):
            d6 += [(graph, lab) for lab in stream_labelings(
                graph, profile, opts, divisor=c, component_check=_component_checker(graph))]
    assert len(d6) == 92
    verdicts = set()
    for graph, lab in cases + d6:
        want = singular_with_positive_kernel(graph, lab)
        assert (solve_weights(graph, lab) is not None) == want, (graph.edges, lab)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_witness_instances_reproduce_magnitudes():
    from circleweights.graphs import magnitudes_from_weights

    fam = solve_weights(TRIANGLE, (3, 3, 3))
    vecs = list(fam.witness_weight_vectors(4, 2))
    assert vecs
    for vec in vecs:
        wg = fam.instance_from_vector(vec)
        assert magnitudes_from_weights(wg.weight_system(), wg) == (3, 3, 3)


def test_lemma_filters_v5_passes():
    ws = v5()
    g = integral_multigraphs(ws)[0]
    report = lemma_filters(ws, g, False)
    assert all(v is None for v in report.values())


# a 10-edge positive multigraph and a divisor-2 magnitude labeling whose
# witness instance has first Chern constant 2; must be rejected when the
# dimension-8 restriction (constant in {1,5}) is on
DIM8_C2_GRAPH = Multigraph(
    4,
    (0, 1, 2, 3, 4),
    ((0, 1), (0, 2), (0, 2), (0, 3), (1, 3), (1, 3), (1, 4), (2, 4), (2, 4), (3, 4)),
)
DIM8_C2_LABELING = (2, 2, 6, 6, 2, 8, 14, 4, 4, 2)


def test_dim8_strict_rejects_constant_two():
    fam = solve_weights(DIM8_C2_GRAPH, DIM8_C2_LABELING)
    assert fam is not None
    inst = fam.witness_instances(6, 2)[0]
    g = integral_multigraphs(inst)[0]
    plain = lemma_filters(inst, g, False)
    strict = lemma_filters(inst, g, True)
    assert plain["dim8_strict"] is None
    assert strict["dim8_strict"] is not None
    assert vet_instance(inst, SearchOptions(dim8_strict=True)) is not None


def test_vet_fixtures_pass():
    opts = SearchOptions()
    for ws in [cp((2, 1, 0)), grassmannian((2, 1)), v5(), v22()]:
        assert vet_instance(ws, opts) is None, ws.points
    assert vet_instance(cp((4, 3, 2, 1, 0)), SearchOptions(dim8_strict=True)) is None


def test_vet_rejects_scaled_weights():
    from circleweights.core import WeightSystem

    ws = WeightSystem(2, ((2, 4), (-2, 2), (-4, -2)))
    assert vet_instance(ws, SearchOptions()) is not None


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


def test_search_graph_audit_counts():
    fams, counts = search_graph(TRIANGLE, minimal_profile(2), SearchOptions(), divisor=3)
    assert counts["labelings"] >= 1
    assert len(fams) == counts["families"]


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
