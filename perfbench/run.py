"""The circleweights benchmark.

    python3 perfbench/run.py --workload d6_full --seed 1 --seconds 20 --trace 0

Runs one workload (see perfbench/workloads.py) from the root of a checkout.
With ``--trace 0`` it repeats untraced passes for ``--seconds`` and reports
the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it runs
untraced passes for half the time, then one traced pass, and reports the
per-layer metrics and the tracing overhead.  Untraced passes are timed
with host-speed probes (perfbench/hostspeed.py), and their end-to-end time
is reported scaled to a reference host speed.  Every pass is checked against
perfbench/golden.json.  Readable lines go first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each run also writes its full record, and the spans of a traced
pass, under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import circleweights
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r})
print(time.perf_counter() - t0)
"""


def code_hash() -> str:
    """sha256 over the names and contents of src/circleweights/*.py."""
    h = hashlib.sha256()
    for path in sorted((SRC / "circleweights").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "code_sha256": code_hash()}


def measure_setup(name: str, seed: int, samples: int = SETUP_SAMPLES) -> list:
    """Seconds to import circleweights and build the workload's inputs, each
    in a fresh interpreter, after one untimed start that fills the bytecode
    cache (written even where the environment turns bytecode files off, as
    an installed package has them)."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for i in range(samples + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


class Passes:
    """Outcomes of the passes of one run."""

    def __init__(self):
        self.walls = []
        self.scaled = []
        self.probes = []
        self.failed = 0
        self.problems = []
        self.summaries = []

    @property
    def attempted(self) -> int:
        return len(self.walls)

    def run_one(self, workload, inputs, seed, golden, probed: bool = True) -> None:
        """One timed pass, with host-speed probes unless ``probed`` is
        false; a pass that raises or disagrees with the golden result counts
        as failed."""
        timer = hostspeed.ProbedPass() if probed else None
        t0 = time.perf_counter()
        try:
            with timer or nullcontext():
                summary = workload.run(inputs)
            wall = time.perf_counter() - t0
            problems = workload.problems(inputs, summary, seed, golden)
        except Exception:  # a failing pass is a result, not the end of the run
            wall = time.perf_counter() - t0
            summary, problems = None, [traceback.format_exc()]
        if timer:
            wall = timer.wall
            self.scaled.append(timer.scaled)
            self.probes.append(timer.probe_s)
        self.walls.append(wall)
        self.summaries.append(summary)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def repeat(self, workload, inputs, seed, golden, seconds: float) -> None:
        """Passes until the next one would end after ``seconds``; at least one."""
        start = time.perf_counter()
        while True:
            self.run_one(workload, inputs, seed, golden)
            if time.perf_counter() - start + self.walls[-1] > seconds:
                return


def stats_line(name: str, values: list, unit: str) -> str:
    return "%s: median %.4g %s of %d" % (name, median(values), unit, len(values))


def vet_latency_report(summaries: list) -> dict:
    """Per-call vet_instance latency over the untraced vet_stream passes,
    kept apart for systems that pass the whole battery and for rejected
    ones: a mixed median would sit on the boundary between the groups."""
    groups = {"vet_pass_ms": [], "vet_reject_ms": []}
    for summary in summaries:
        for t, verdict in zip(summary["latencies"], summary["verdicts"]):
            groups["vet_pass_ms" if verdict is None else "vet_reject_ms"].append(1000 * t)
    out = {}
    for key, vals in groups.items():
        if vals:
            out[key + "_p50"] = median(vals)
            out[key + "_n"] = len(vals)
        if len(vals) >= 2:
            out[key + "_p95"] = quantiles(vals, n=20)[-1]
    return out


def measure(workload, seed: int, seconds: float, trace: bool, golden: dict, out_dir: Path):
    """Run the passes of one benchmark run and return (metric values,
    Passes, record).  Untraced: passes for ``seconds``.  Traced: untraced
    passes for half of ``seconds``, then one traced pass whose spans are
    written to ``out_dir``."""
    import tracer as tracing

    inputs = workload.build(seed)
    passes = Passes()
    values = {}
    record = {}
    if trace:
        passes.repeat(workload, inputs, seed, golden, seconds / 2)
        untraced = median(passes.walls)
        tr = tracing.Tracer()
        tr.current_pass = passes.attempted
        cpu0 = time.process_time()
        with tr.installed():
            passes.run_one(workload, inputs, seed, golden, probed=False)
        cpu = time.process_time() - cpu0
        traced = passes.walls[-1]
        agg = tr.aggregate()
        values.update(tracing.layer_metrics(agg))
        values.update({"process.cpu_s": cpu, "trace.wall_s": traced,
                       "trace.overhead_s": traced - untraced, "trace.spans": len(tr),
                       "host.wall_s": untraced,
                       "host.probe_ms": 1000 * median(passes.probes)})
        modules = tracing.module_self_times(agg)
        record.update({"module_self_s": modules, "untraced_walls_s": passes.walls[:-1]})
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / ("spans_%s_seed%d.tsv.gz" % (workload.name, seed))
        tr.write(spans_path)
        print("spans: %d written to %s" % (len(tr), spans_path))
        print("traced pass %.3f s, untraced median %.3f s (n=%d), overhead %.3f s"
              % (traced, untraced, len(passes.walls) - 1, traced - untraced))
        for mod, secs in sorted(modules.items(), key=lambda kv: -kv[1]):
            print("self time %-13s %8.3f s  %5.1f%%" % (mod, secs, 100 * secs / traced))
    else:
        passes.repeat(workload, inputs, seed, golden, seconds)
        values.update({
            "norm_wall_s": median(passes.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        print(stats_line("raw wall", passes.walls, "s"))
        print(stats_line("mean probe", [1000 * p for p in passes.probes], "ms"))
        print(stats_line("norm_wall_s", passes.scaled, "s"))
        if workload.name == "vet_stream":
            vet = vet_latency_report([s for s in passes.summaries if s is not None])
            record["vet_latency"] = vet
            for key, val in vet.items():
                print("%s = %s" % (key, val if key.endswith("_n") else "%.4f ms" % val))
    return values, passes, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circleweights" / "__init__.py").is_file():
        print("perfbench: no circleweights sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment()
    out_dir = BENCH / "out"

    setup = measure_setup(args.workload, args.seed)
    print(stats_line("setup_s", setup, "s"))
    values, passes, record = measure(workloads.WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace), workloads.load_golden(),
                                     out_dir)
    values["setup_s"] = median(setup)
    failed_frac = passes.failed / passes.attempted
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "setup_s_samples": setup,
                   "walls_s": passes.walls, "norm_walls_s": passes.scaled,
                   "probes_s": passes.probes, "attempted": passes.attempted,
                   "failed": passes.failed, "failed_frac": failed_frac,
                   "problems": passes.problems})
    summary = passes.summaries[-1]
    if summary is not None:
        record["result"] = {k: v for k, v in summary.items() if k not in ("verdicts", "latencies")}
        print("result: %s" % json.dumps(record["result"], sort_keys=True))
    for problem in passes.problems[:20]:
        print("MISMATCH: %s" % problem)
    print("failed_frac = %s (%d of %d passes)" % (failed_frac, passes.failed, passes.attempted))
    print("seed %d, python %s, nproc %s, code sha256 %s"
          % (args.seed, env["python"], env["nproc"], env["code_sha256"][:16]))

    missing = sorted(set(metric_units) - set(values))
    if missing:
        print("perfbench: no value for metrics %s" % ", ".join(missing), file=sys.stderr)
        return 3
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()}
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    record["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("result_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
