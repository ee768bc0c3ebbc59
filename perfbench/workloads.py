"""The benchmark's workloads.

Each workload builds its inputs from a seed, runs one pass through the
public circleweights API, and checks the pass against golden results.
The library is only ever called through module attributes
(``search.classify``, ``search.vet_instance``), so that the traced run can
wrap the names the pipeline looks up.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from circleweights import SearchOptions, WeightSystem, fixtures, minimal_profile, search
from circleweights.fixtures import IneffectiveParameters

HERE = Path(__file__).resolve().parent


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


# ---------------------------------------------------------------------------
# classify workloads
# ---------------------------------------------------------------------------

class ClassifyWorkload:
    """One complete ``classify`` run on a fixed profile; the seed is unused
    because the paper's profiles have no free parameters."""

    def __init__(self, name: str, n: int, opts: SearchOptions):
        self.name = name
        self.n = n
        self.opts = opts

    def build(self, seed: int):
        return minimal_profile(self.n), self.opts

    def run(self, inputs) -> dict:
        profile, opts = inputs
        return summarize_classification(search.classify(profile, opts))

    def problems(self, inputs, summary: dict, seed: int, golden: dict) -> List[str]:
        want = golden[self.name]
        return ["%s: got %s, golden %s" % (key, summary.get(key), want[key])
                for key in want if summary.get(key) != want[key]]


def summarize_classification(result) -> dict:
    """The parts of a ClassificationResult that a correct run must
    reproduce exactly: families, audit counts and truncation."""
    audit = result.audit
    families = sorted(
        [list(f.magnitudes), [list(e) for e in f.graph.edges], len(f.instances)]
        for f in result.families
    )
    return {
        "graphs": result.graphs_examined,
        "labelings": sum(g["labelings"] for g in audit["graphs"].values()),
        "truncated_graphs": sum(1 for g in audit["graphs"].values() if g.get("truncated")),
        "instances": audit["instances"],
        "passing": audit["passing"],
        "rejections": dict(sorted(audit["rejections"].items())),
        "families": families,
    }


# ---------------------------------------------------------------------------
# vet_stream: seeded weight systems, one vet_instance call each
# ---------------------------------------------------------------------------

VET_OPTIONS = SearchOptions()

# (fixture, generator count k, systems per stream, range of the largest
# generator weight).  The count of each kind is fixed so that every seed
# costs about the same; the seed draws the weights.  Dimension-10
# Grassmannians keep their largest weight at 6 because their index battery
# cost grows steeply and unevenly with the weights (about 0.3 s at 6, up to
# 1.5 s at 30), which would make the pass time depend on the seed.
FIXTURE_SLOTS = [
    ("cp", 3, 8, (13, 30)),            # CP^2, dimension 4
    ("cp", 4, 8, (13, 30)),            # CP^3, dimension 6
    ("cp", 5, 12, (16, 20)),           # CP^4, dimension 8
    ("grassmannian", 2, 8, (13, 30)),  # dimension 6
    ("grassmannian", 3, 4, (6, 6)),    # dimension 10
    ("v5", 0, 1, None),
    ("v22", 0, 1, None),
]

# Perturbations applied to the fixture copies, in rotation.
PERTURBATIONS = ("unpaired", "shift", "swap")

# Instances that classify rejects late (pairing or localization) on the
# dimension-6 and divisor-5 dimension-8 runs; each stream draws a few.
NEAR_MISSES_PER_STREAM = {"localization": 2, "no_admissible_pairing": 6}


def _fixture(rng: random.Random, kind: str, k: int, span) -> WeightSystem:
    while True:
        try:
            if kind == "cp":
                top = rng.randint(*span)
                xi = [top] + sorted(rng.sample(range(1, top), k - 2), reverse=True) + [0]
                return fixtures.cp(xi)
            if kind == "grassmannian":
                top = rng.randint(*span)
                xi = [top] + sorted(rng.sample(range(1, top), k - 1), reverse=True)
                return fixtures.grassmannian(xi)
            return getattr(fixtures, kind)()
        except IneffectiveParameters:
            continue


def degree0_localization(ws: WeightSystem) -> Fraction:
    """sum over fixed points of 1 / (product of weights): zero for every
    genuine action in positive dimension.  Computed here, independently of
    the library, to certify that a perturbed copy must be rejected."""
    total = Fraction(0)
    for p in ws.points:
        e = 1
        for w in p:
            e *= w
        total += Fraction(1, e)
    return total


def _perturb(rng: random.Random, ws: WeightSystem, how: str) -> WeightSystem:
    """A copy of ``ws`` that no correct vetter may accept.  'unpaired'
    moves one weight by one, so the weights no longer pair up.  'shift'
    moves a matched pair +w/-w together and 'swap' exchanges two weights of
    equal sign between points; both keep the pairing, and are redrawn until
    the degree-0 localization sum is nonzero."""
    for _ in range(100):
        pts = [list(p) for p in ws.points]
        if how == "unpaired":
            i = rng.randrange(len(pts))
            a = rng.randrange(len(pts[i]))
            pts[i][a] += 1 if pts[i][a] != -1 else -1
        elif how == "shift":
            i, a = rng.choice([(i, a) for i, p in enumerate(pts) for a, w in enumerate(p) if w > 0])
            w = pts[i][a]
            j, b = rng.choice([(j, b) for j, p in enumerate(pts) for b, x in enumerate(p) if x == -w])
            d = rng.choice([d for d in (-2, -1, 1, 2) if w + d > 0])
            pts[i][a], pts[j][b] = w + d, -(w + d)
        else:
            i, j = rng.sample(range(len(pts)), 2)
            a, b = rng.randrange(len(pts[i])), rng.randrange(len(pts[j]))
            if (pts[i][a] > 0) != (pts[j][b] > 0) or pts[i][a] == pts[j][b]:
                continue
            pts[i][a], pts[j][b] = pts[j][b], pts[i][a]
        out = WeightSystem(ws.n, tuple(tuple(p) for p in pts))
        if how == "unpaired" or degree0_localization(out) != 0:
            return out
    return _perturb(rng, ws, "unpaired")


def _near_misses() -> Dict[str, List[WeightSystem]]:
    data = json.loads((HERE / "near_misses.json").read_text())
    return {verdict: [WeightSystem(len(pts[0]), tuple(map(tuple, pts))) for pts in systems]
            for verdict, systems in data.items()}


def vet_stream(seed: int) -> List[Tuple[WeightSystem, str]]:
    """The seeded stream: (system, origin) pairs in shuffled order.  Origin
    is 'fixture' for an unperturbed reference system, 'perturbed:<how>' for
    a perturbed copy and 'near_miss:<verdict>' for a stored late rejection."""
    rng = random.Random(seed)
    out: List[Tuple[WeightSystem, str]] = []
    turn = 0
    for kind, k, count, span in FIXTURE_SLOTS:
        for _ in range(count):
            ws = _fixture(rng, kind, k, span)
            how = PERTURBATIONS[turn % len(PERTURBATIONS)]
            turn += 1
            out.append((ws, "fixture"))
            out.append((_perturb(rng, ws, how), "perturbed:" + how))
    for verdict, systems in _near_misses().items():
        for ws in rng.sample(systems, NEAR_MISSES_PER_STREAM[verdict]):
            out.append((ws, "near_miss:" + verdict))
    rng.shuffle(out)
    return out


def verdict_histogram(verdicts) -> Dict[str, int]:
    return dict(sorted(Counter("pass" if v is None else v for v in verdicts).items()))


class VetStreamWorkload:
    """One ``vet_instance`` call per system of the seeded stream.  ``limit``
    keeps only the first systems, for smoke tests; the golden histograms
    are those of whole streams."""

    name = "vet_stream"

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit

    def build(self, seed: int):
        return vet_stream(seed)[:self.limit]

    def run(self, inputs) -> dict:
        verdicts: List[Optional[str]] = []
        latencies: List[float] = []
        for ws, _ in inputs:
            t0 = perf_counter()
            verdicts.append(search.vet_instance(ws, VET_OPTIONS))
            latencies.append(perf_counter() - t0)
        return {"verdicts": verdicts, "latencies": latencies,
                "histogram": verdict_histogram(verdicts)}

    def problems(self, inputs, summary: dict, seed: int, golden: dict) -> List[str]:
        out = []
        for (ws, origin), verdict in zip(inputs, summary["verdicts"]):
            if (origin == "fixture") != (verdict is None):
                out.append("%s system %s got verdict %s" % (origin, list(ws.points), verdict))
        want = golden[self.name]["histograms"].get(str(seed))
        if want is not None and summary["histogram"] != want:
            out.append("histogram %s, golden %s" % (summary["histogram"], want))
        return out


WORKLOADS = {
    w.name: w for w in (
        ClassifyWorkload("d6_full", 3, SearchOptions()),
        ClassifyWorkload("d8_c1_budget", 4, SearchOptions(
            dim8_strict=True, divisor_c=1, max_labelings=50_000)),
        VetStreamWorkload(),
    )
}
