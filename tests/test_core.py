import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from circleweights import core
from circleweights.core import (
    BalanceViolation,
    FixedPointProfile,
    ProfileError,
    RangeViolation,
    WeightSystem,
    minimal_profile,
    validate_profile,
    weight_system_checks,
)
from circleweights.fixtures import cp, v5


def test_s2xs2_profile_valid():
    p = FixedPointProfile(2, (0, 1, 1, 2))
    validate_profile(p)
    assert p.counts == (1, 2, 1)
    assert not p.is_minimal


def test_minimal_profile_valid():
    p = FixedPointProfile(4, (0, 1, 2, 3, 4))
    validate_profile(p)
    assert p.is_minimal
    assert minimal_profile(4) == p


def test_unbalanced_profile_rejected():
    with pytest.raises(BalanceViolation):
        validate_profile(FixedPointProfile(3, (0, 1, 1, 3)))


def test_out_of_range_index_rejected():
    with pytest.raises(RangeViolation):
        validate_profile(FixedPointProfile(2, (0, 3, 1, 2)))


def test_palindromic_counts_minimal():
    for n in (2, 3, 4, 5):
        p = minimal_profile(n)
        assert p.counts == tuple(reversed(p.counts))
        assert sum(p.lambdas) * 2 == p.num_points * n


@given(st.integers(1, 6), st.integers(0, 30))
def test_balance_equation_is_enforced(n, seed):
    # any lambda sequence failing the balance or palindromy condition must raise
    import random

    rng = random.Random(seed)
    lams = tuple(rng.randint(0, n) for _ in range(n + 1))
    prof = FixedPointProfile(n, lams)
    counts = prof.counts
    if 2 * sum(lams) != (n + 1) * n or counts != counts[::-1]:
        with pytest.raises(BalanceViolation):
            validate_profile(prof)
    else:
        validate_profile(prof)


def test_v5_structural_checks_pass():
    assert weight_system_checks(v5()) == []


def test_noneffective_scaling_fails_gcd():
    ws = WeightSystem(2, ((2, 4), (-2, 2), (-4, -2)))
    failures = weight_system_checks(ws)
    assert any("gcd" in f for f in failures)


def test_pairing_mismatch_detected():
    ws = WeightSystem(2, ((1, 2), (-1, 1), (-2, -2)))
    failures = weight_system_checks(ws)
    assert any("pair" in f for f in failures)


def test_weight_system_json_roundtrip():
    ws = v5()
    again = WeightSystem.from_json(json.loads(json.dumps(ws.to_json())))
    assert again == ws


def test_reversed_profile():
    p = FixedPointProfile(2, (0, 1, 1, 2))
    assert sorted(p.reversed().lambdas) == sorted(2 - l for l in p.lambdas)


def test_cp_weight_sums_decrease():
    ws = cp((4, 3, 2, 1, 0))
    sums = list(ws.weight_sums())
    assert sums == sorted(sums, reverse=True)
    assert len(set(sums)) == len(sums)


def reference_weight_system_checks(ws):
    """weight_system_checks before it made one pass over each point: a
    gcd loop per point, and sorted positive and negated negative weights."""
    failures = []
    for i, p in enumerate(ws.points):
        if len(p) != ws.n:
            failures.append("point %d carries %d weights, expected %d" % (i, len(p), ws.n))
        if any(w == 0 for w in p):
            failures.append("point %d has a zero weight" % i)
        g = 0
        for w in p:
            g = gcd(g, abs(w))
        if g != 1:
            failures.append("weights at point %d have gcd %d (action not effective)" % (i, g))
    pos = sorted(w for p in ws.points for w in p if w > 0)
    neg = sorted(-w for p in ws.points for w in p if w < 0)
    if pos != neg:
        failures.append("positive weights %s do not pair with negative weights" % pos)
    try:
        validate_profile(ws.profile)
    except ProfileError as exc:
        failures.append(str(exc))
    return failures


@st.composite
def weight_systems(draw):
    """Weight systems of 0 to 4 weights per point on 2 to 5 points: paired
    ones, built from random weighted edges (so the counts per point and the
    profile vary), some scaled by a common factor, and unpaired ones."""
    n = draw(st.integers(0, 4))
    npts = draw(st.integers(2, 5))
    if draw(st.booleans()):
        pts = [draw(st.lists(st.integers(-6, 6), max_size=4)) for _ in range(npts)]
    else:
        pts = [[] for _ in range(npts)]
        scale = draw(st.sampled_from([1, 1, 2, 3]))
        for _ in range(draw(st.integers(0, 2 * npts))):
            i, j = draw(st.integers(0, npts - 1)), draw(st.integers(0, npts - 1))
            w = scale * draw(st.integers(0, 5))
            pts[i].append(w)
            pts[j].append(-w)
    return WeightSystem(n, tuple(map(tuple, pts)))


@settings(max_examples=400, deadline=None)
@given(weight_systems())
@example(WeightSystem(2, ((0, 1), (-1, 1), (-1, -1))))  # a zero weight
@example(WeightSystem(2, ((1, 2, 3), (-1, 1), (-3, -2, -1))))  # a wrong weight count
@example(WeightSystem(2, ((2, 4), (-2, 2), (-4, -2))))  # gcd above 1
@example(WeightSystem(2, ((1, 2), (-1, 1), (-2, -2))))  # unpaired weights
@example(WeightSystem(2, ((1, 2), (-1, 2), (-2, 1), (-1, -2), (-2, -1))))  # unbalanced profile
def test_weight_system_checks_match_the_reference(ws):
    assert weight_system_checks(ws) == reference_weight_system_checks(ws)


def test_the_reference_examples_fail_as_named():
    # each @example above trips its own check, in either implementation
    cases = {
        "zero weight": WeightSystem(2, ((0, 1), (-1, 1), (-1, -1))),
        "carries 3 weights": WeightSystem(2, ((1, 2, 3), (-1, 1), (-3, -2, -1))),
        "gcd 2": WeightSystem(2, ((2, 4), (-2, 2), (-4, -2))),
        "do not pair": WeightSystem(2, ((1, 2), (-1, 1), (-2, -2))),
        "sum of indices": WeightSystem(2, ((1, 2), (-1, 2), (-2, 1), (-1, -2), (-2, -1))),
    }
    for phrase, ws in cases.items():
        assert any(phrase in f for f in weight_system_checks(ws)), (phrase, ws.points)


def test_profile_failures_are_decided_once_per_profile():
    # weight_system_checks reads each profile's failure from a memo: systems
    # repeated and interleaved get the failures of the uncached reference,
    # and each distinct profile is validated once
    systems = [
        v5(),
        cp((3, 2, 1, 0)),  # the same profile as v5
        WeightSystem(2, ((1, 2), (-1, 2), (-2, 1), (-1, -2), (-2, -1))),  # unbalanced
        WeightSystem(2, ((1, 2), (-1, -2, -3), (-2, 1))),  # an index above n
        WeightSystem(1, ((1,),)),  # one fixed point
        WeightSystem(2, ((1, 2), (-1, 2), (-2, 1), (-1, -2))),  # S^2 x S^2 profile
    ]
    core._profile_failure.cache_clear()
    for _ in range(3):
        for ws in systems:
            assert weight_system_checks(ws) == reference_weight_system_checks(ws), ws.points
    info = core._profile_failure.cache_info()
    assert info.misses == 5 and info.hits == 3 * len(systems) - 5
    for ws, phrase in zip(systems[2:5], ("sum of indices", "out of range", "at least two")):
        assert any(phrase in f for f in weight_system_checks(ws)), (phrase, ws.points)
