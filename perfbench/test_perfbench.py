"""Smoke tests of the benchmark harness, on inputs small enough to run in
seconds:  python3 -m pytest perfbench"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from circleweights import SearchOptions  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
D4 = workloads.ClassifyWorkload("d4_full", 2, SearchOptions())
D4_GOLDEN = {"d4_full": {
    "graphs": 2, "labelings": 5, "truncated_graphs": 0, "instances": 112, "passing": 45,
    "rejections": {"structural": 67}, "families": [[[3, 3, 3], [[0, 1], [0, 2], [1, 2]], 45]],
}}
VET5 = workloads.VetStreamWorkload(limit=5)
NO_HISTOGRAMS = {"vet_stream": {"histograms": {}}}


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_untraced_reports_every_end_to_end_metric(tmp_path):
    for workload, golden in ((D4, D4_GOLDEN), (VET5, NO_HISTOGRAMS)):
        values, passes, _ = run.measure(workload, 1, 0.5, False, golden, tmp_path)
        assert passes.attempted >= 1 and passes.failed == 0, passes.problems
        assert names("end_to_end") - {"setup_s"} <= set(values)
        assert all(values[n] > 0 for n in names("end_to_end") - {"setup_s"})


def test_traced_reports_every_layer_metric(tmp_path):
    traced = {}
    for workload, golden in ((D4, D4_GOLDEN), (VET5, NO_HISTOGRAMS)):
        values, passes, record = run.measure(workload, 1, 0.5, True, golden, tmp_path)
        assert passes.failed == 0, passes.problems
        assert names("per_layer") <= set(values)
        assert (tmp_path / ("spans_%s_seed1.tsv.gz" % workload.name)).exists()
        # self times partition the traced pass, up to the harness's own code
        assert sum(record["module_self_s"].values()) <= values["trace.wall_s"]
        traced[workload.name] = values
    d4 = traced["d4_full"]
    assert d4["graphs.classes"] == 2 and d4["search.labelings"] == 5
    assert d4["search.vet_pass_ratio"] > 0 and d4["hattori.rvalues_calls"] > 0


def test_wrong_golden_fails_every_pass(tmp_path):
    wrong = {"d4_full": dict(D4_GOLDEN["d4_full"], passing=44)}
    _, passes, _ = run.measure(D4, 1, 0.5, False, wrong, tmp_path)
    assert passes.attempted >= 1 and passes.failed == passes.attempted
    wrong = {"vet_stream": {"histograms": {"1": {"pass": 999}}}}
    _, passes, _ = run.measure(VET5, 1, 0.5, False, wrong, tmp_path)
    assert passes.failed == passes.attempted


def test_vet_stream_is_seeded():
    first, again, second = (workloads.vet_stream(s) for s in (1, 1, 2))
    assert first == again and first != second
    for stream in (first, second):
        origins = [origin for _, origin in stream]
        assert origins.count("fixture") == sum(o.startswith("perturbed:") for o in origins)
        for ws, origin in stream:
            if origin.startswith("perturbed:") and origin != "perturbed:unpaired":
                assert workloads.degree0_localization(ws) != 0


def test_both_seeds_pass_the_checks():
    for seed in (1, 2):
        inputs = workloads.vet_stream(seed)[:12]
        summary = VET5.run(inputs)
        assert VET5.problems(inputs, summary, seed, NO_HISTOGRAMS) == []


def test_setup_runs_in_a_fresh_interpreter():
    times = run.measure_setup("vet_stream", 1, samples=1)
    assert len(times) == 1 and 0 < times[0] < 60


def test_probed_pass_takes_its_probes_out():
    timer = hostspeed.ProbedPass(interval=0.05)
    t0 = time.perf_counter()
    with timer:
        while time.perf_counter() - t0 < 0.4:
            pass
    elapsed = time.perf_counter() - t0
    assert len(timer.probes) >= 4 and len(timer.inside) == len(timer.probes) - 2
    assert 0 < timer.wall <= elapsed - sum(d for _, d in timer.inside) + 1e-9
    assert timer.scaled == timer.wall * hostspeed.REF_PROBE_S / timer.probe_s
