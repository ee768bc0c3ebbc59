"""Acceptance gate: one test per top-level classification claim.

Each test prints a single PASS line on success (run with -s or -v to see
them); failures mean the package no longer reproduces the classification.
"""

import time
from fractions import Fraction as F

from circleweights.core import FixedPointProfile, minimal_profile
from circleweights.fixtures import cp, grassmannian, s2xs2, v5, v22
from circleweights.graphs import enumerate_multigraphs, enumerate_pairings, magnitudes_from_weights
from circleweights.hattori import (
    cp_check,
    derive_levels,
    dim8_solver,
    exp_r_values,
    r_values_at_one,
)
from circleweights.linalg import kernel_lattice_points, nullspace, positive_kernel_exists
from circleweights.localization import (
    abbv_sum,
    chern_battery,
    in_index_order,
    minimal_chern_constants,
    zero_multidegrees,
)
from circleweights.search import SearchOptions, classify, magnitude_sum

S2XS2_PROFILE = FixedPointProfile(2, (0, 1, 1, 2))


def _report(name):
    print("ACCEPTANCE %s: PASS" % name)


def _projective(fam, k0):
    """Every instance of ``fam`` has levels at k0 = n + 1, and at each point
    its weights are the level differences of CP^n."""
    assert fam.instances
    for inst in fam.instances:
        levels = derive_levels(inst, k0)
        assert levels is not None and cp_check(inst, levels), inst.points


def test_1_dimension_4():
    t0 = time.time()
    res = classify(minimal_profile(2), SearchOptions())
    assert len(res.families) == 1
    fam = res.families[0]
    assert fam.graph.edges == ((0, 1), (0, 2), (1, 2))
    assert fam.magnitudes == (3, 3, 3)
    # the null-space relation w(e02) = w(e01) + w(e12)
    for v in fam.comp_kernels[0].basis:
        assert v[1] == v[0] + v[2]
    assert cp((2, 1, 0)) in fam.instances
    _projective(fam, 3)
    assert time.time() - t0 < 1.0
    _report("1 (dimension 4: unique projective family, w02 = w01 + w12)")


def test_2_dimension_6():
    t0 = time.time()
    graphs = enumerate_multigraphs(minimal_profile(3), mode="nonneg", dedup="reversal")
    assert len(graphs) == 7
    res = classify(minimal_profile(3), SearchOptions())
    assert len(res.families) == 4
    by_mag = {fam.magnitudes: fam for fam in res.families}
    assert cp((3, 2, 1, 0)) in by_mag[(4,) * 6].instances
    _projective(by_mag[(4,) * 6], 4)
    assert grassmannian((2, 1)) in by_mag[(3, 3, 6, 6, 3, 3)].instances
    assert by_mag[(2, 6, 4, 8, 2, 2)].instances == [v5()]
    assert by_mag[(1, 6, 4, 10, 2, 1)].instances == [v22()]
    assert time.time() - t0 < 60.0
    _report("2 (dimension 6: 7 graph classes; families CP3, Gr, V5, V22 exactly)")


def test_3_dimension_8():
    graphs = enumerate_multigraphs(minimal_profile(4), mode="nonneg", dedup="reversal")
    assert len(graphs) == 75
    # full divisor-5 branch: the unique surviving family is projective
    res5 = classify(minimal_profile(4), SearchOptions(dim8_strict=True, divisor_c=5))
    assert len(res5.families) == 1
    fam = res5.families[0]
    assert fam.magnitudes == (5,) * 10
    assert len(fam.graph.edges) == 10 and not fam.graph.cycles()
    assert cp((4, 3, 2, 1, 0)) in fam.instances
    for inst in fam.instances:
        assert minimal_chern_constants(inst)[1] == 5
    _projective(fam, 5)
    # divisor-2 branch: excluded outright under the dimension-8 restriction
    res2 = classify(minimal_profile(4), SearchOptions(dim8_strict=True, divisor_c=2))
    assert len(res2.families) == 0
    # node-budgeted prefix of the (long-running) divisor-1 branch: a real
    # sample of labelings is produced and vetted, and no instance with a
    # first Chern constant outside {1, 5} survives
    res1 = classify(
        minimal_profile(4),
        SearchOptions(dim8_strict=True, divisor_c=1, max_labelings=100_000),
    )
    assert sum(g["labelings"] for g in res1.audit["graphs"].values()) > 0
    assert res1.audit["instances"] > 0
    for fam in res1.families:
        for inst in fam.instances:
            assert minimal_chern_constants(inst)[1] in (1, 5)
    _report("3 (dimension 8: 75 graphs; unique projective family on the divisor-5 "
            "branch; divisor-2 branch empty; sampled divisor-1 prefix consistent)")


def test_4_magnitude_sum_invariant():
    assert magnitude_sum(S2XS2_PROFILE) == 8
    assert magnitude_sum(minimal_profile(2)) == 9
    assert magnitude_sum(minimal_profile(3)) == 24
    assert magnitude_sum(minimal_profile(4)) == 50
    targets = {2: 9, 3: 24, 4: 50}
    for ws in [cp((2, 1, 0)), cp((3, 2, 1, 0)), grassmannian((2, 1)), v5(), v22(),
               cp((4, 3, 2, 1, 0)), s2xs2(2, 3), s2xs2(3, 4)]:
        # the S2xS2-type fixtures have 4 points in dimension 4: target 8
        target = 8 if (ws.n == 2 and ws.num_points == 4) else targets[ws.n]
        for g in enumerate_pairings(ws, mode="all"):
            assert sum(magnitudes_from_weights(ws, g)) == target
    _report("4 (magnitude sums 8/9/24/50, invariant over every pairing)")


def test_5_localization_battery():
    fixtures = [cp((2, 1, 0)), cp((3, 2, 1, 0)), cp((4, 3, 2, 1, 0)),
                grassmannian((2, 1)), v5(), v22(), s2xs2(2, 3), s2xs2(3, 4), s2xs2(4, 5)]
    for ws in fixtures:
        for md in zero_multidegrees(ws.n):
            assert abbv_sum(ws, md) == 0
        assert abbv_sum(ws, (ws.n,)) == ws.num_points
        report = chern_battery(ws)
        assert report.ok
        if in_index_order(ws):
            assert all(c > 0 and c.denominator == 1 for c in minimal_chern_constants(ws))
            assert minimal_chern_constants(ws.reversed()) == minimal_chern_constants(ws)
    # perturbation sensitivity: the {-1,1,3} single-weight change at the
    # index-1 point of the degree-5 Fano system breaks degree-0 vanishing
    from circleweights.core import WeightSystem

    perturbed = WeightSystem(3, ((1, 2, 3), (-1, 1, 3), (-4, -1, 1), (-3, -2, -1)))
    assert abbv_sum(perturbed, ()) == F(-1, 12)
    _report("5 (localization battery on all fixtures; perturbations detected)")


def test_6_hattori_suite():
    cases = [(cp((2, 1, 0)), 3), (cp((3, 2, 1, 0)), 4), (cp((4, 3, 2, 1, 0)), 5),
             (grassmannian((2, 1)), 3), (v5(), 2), (v22(), 1)]
    for ws, k0 in cases:
        rvals = r_values_at_one(ws, derive_levels(ws, k0))
        assert rvals[0] == 1
    cp4 = cp((4, 3, 2, 1, 0))
    rvals = r_values_at_one(cp4, derive_levels(cp4, 5))
    assert rvals[0] == 1 and all(v == 0 for v in rvals[1:])
    assert sum(rvals) == 1
    gr = grassmannian((2, 1))
    assert sum(r_values_at_one(gr, derive_levels(gr, 3))) == 2
    assert dim8_solver(5) == [(1, F(10))]
    assert dim8_solver(2) == []
    assert sorted(l for l, _ in dim8_solver(1, lmax=60)) == [15, 25, 40, 60]
    assert exp_r_values(5, 1, F(10)) == [0, 0, 0, 0]
    _report("6 (index suite: Todd genus 1, volumes 1/2, quartic solutions, "
            "closed forms vanish at (5,1,10))")


def test_7_oracle_equivalence():
    # graph enumeration vs brute force (raw counts 2 and 9)
    from test_graphs import _brute_force_graphs

    for n, raw in ((2, 2), (3, 9)):
        prof = minimal_profile(n)
        got = {g.edges for g in enumerate_multigraphs(prof, mode="nonneg", dedup="none")}
        assert got == _brute_force_graphs(prof, "nonneg")
        assert len(got) == raw
    # positive kernel vectors vs exhaustive search: the lattice points and
    # the positivity decision that classify uses
    import itertools
    import random

    rng = random.Random(5)
    for _ in range(20):
        cols = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        brute = [v for v in itertools.product(range(1, 21), repeat=cols)
                 if all(sum(r[k] * v[k] for k in range(cols)) == 0 for r in rows)]
        assert kernel_lattice_points(nullspace(rows), 20) == brute
        if brute:
            assert positive_kernel_exists(rows)
    # index computation vs direct rational evaluation
    from test_hattori import test_projective_space_indices_match_oracle

    test_projective_space_indices_match_oracle()
    _report("7 (oracle equivalence: enumeration, positive kernel vectors, index sums)")
