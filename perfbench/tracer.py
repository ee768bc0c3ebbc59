"""Span tracing from outside the library.

``Tracer.installed()`` replaces the names that ``circleweights.search``
looks up at call time (and two methods, on their classes) with wrappers
that record one span per call: name, start, end, parent span and pass id.
Spans stay in memory; ``write`` saves them when the run ends and
``layer_metrics`` derives the per-layer figures, self times included.
"""

from __future__ import annotations

import gzip
from array import array
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from circleweights import search
from circleweights.laurent import LaurentPolynomial

# Wrapped name -> (module it belongs to, summary of the return value kept
# with the span, or None).
SEARCH_NAMES: Dict[str, tuple] = {
    "classify": ("search", None),
    "search_graph": ("search", lambda out: bool(out[1].get("truncated"))),
    "solve_weights": ("search", lambda fam: fam is not None),
    "vet_instance": ("search", lambda verdict: verdict),
    "enumerate_multigraphs": ("graphs", len),
    "integral_multigraphs": ("graphs", None),
    "int_determinant": ("linalg", lambda det: det == 0),
    "positive_kernel_exists": ("linalg", None),
    "kernel_lattice_points": ("linalg", None),
    "chern_battery": ("localization", None),
    "r_values_at_one": ("hattori", None),
    "weight_system_checks": ("core", None),
}
METHODS = {
    (search.WeightFamily, "witness_instances"): ("search", len),
    (LaurentPolynomial, "divexact"): ("laurent", None),
}

# Verdicts vet_instance can return, in the order it tries the filters.
VERDICTS = (
    "structural", "monotone_sums", "chern_constants", "dim8_strict",
    "no_admissible_pairing", "localization", "index_levels", "index_laurent",
    "index_integrality", "index_todd", "index_vanishing", "index_symmetry",
    "index_volume",
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_id: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.pass_id = array("l")
        self.info: List[object] = []
        self.stack = [-1]
        self.current_pass = 0

    def _wrap(self, name: str, fn: Callable, summary: Optional[Callable]) -> Callable:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        pass_id, info, stack = self.pass_id, self.info, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            pass_id.append(tracer.current_pass)
            info.append(None)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if summary is not None:
                info[idx] = summary(out)
            return out

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for name, (_, summary) in SEARCH_NAMES.items():
                saved.append((search, name, getattr(search, name)))
                setattr(search, name, self._wrap(name, getattr(search, name), summary))
            for (cls, name), (_, summary) in METHODS.items():
                saved.append((cls, name, cls.__dict__[name]))
                setattr(cls, name, self._wrap(cls.__name__ + "." + name,
                                              cls.__dict__[name], summary))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One header line, then one tab-separated line per span:
        name, start and end (seconds from the first span), parent, pass."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tpass\n")
            for i in range(len(self)):
                out.write("%s\t%.7f\t%.7f\t%d\t%d\n" % (
                    self.names[self.span_name[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i], self.pass_id[i]))

    def aggregate(self) -> Dict[str, dict]:
        """Per wrapped name: calls, inclusive and self seconds, the span
        durations and the recorded return-value summaries (with the parent
        name).  A span's self time is its duration minus its children's."""
        n = len(self)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl": 0.0, "self": 0.0, "durations": [], "info": []}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["incl"] += dur
            rec["self"] += dur - child[i]
            rec["durations"].append(dur)
            p = self.parent[i]
            rec["info"].append((self.info[i], self.names[self.span_name[p]] if p >= 0 else None))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Dict[str, dict]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    def rec(name):
        return agg.get(name, {"calls": 0, "incl": 0.0, "self": 0.0, "durations": [], "info": []})

    block, solve, wit, vet = (rec(n) for n in (
        "search_graph", "solve_weights", "WeightFamily.witness_instances", "vet_instance"))
    det, rvals = rec("int_determinant"), rec("r_values_at_one")
    streamed = [ok for ok, parent in solve["info"] if parent == "search_graph"]
    verdicts = [v for v, _ in vet["info"]]
    m: Dict[str, float] = {
        "search.block_s": block["incl"],
        "search.stream_self_s": block["self"],
        "search.labelings": len(streamed),
        "search.truncated_blocks": sum(1 for t, _ in block["info"] if t),
        "search.solve_calls": solve["calls"],
        "search.solve_s": solve["incl"],
        "search.solve_self_s": solve["self"],
        "search.family_yield": _ratio(sum(streamed), len(streamed)),
        "search.instantiate_s": wit["incl"],
        "search.instantiate_self_s": wit["self"],
        "search.instances": sum(k for k, _ in wit["info"]),
        "search.vet_calls": vet["calls"],
        "search.vet_s": vet["incl"],
        "search.vet_self_s": vet["self"],
        "search.vet_pass_ratio": _ratio(verdicts.count(None), len(verdicts)),
        "search.classify_self_s": rec("classify")["self"],
    }
    for verdict in VERDICTS:
        picked = [d for d, (v, _) in zip(vet["durations"], vet["info"]) if v == verdict]
        m["search.reject.%s" % verdict] = len(picked)
        m["search.reject_s.%s" % verdict] = sum(picked)
    m.update({
        "linalg.det_calls": det["calls"],
        "linalg.det_s": det["self"],
        "linalg.det_singular_ratio": _ratio(sum(1 for s, _ in det["info"] if s), det["calls"]),
        "linalg.poskernel_calls": rec("positive_kernel_exists")["calls"],
        "linalg.poskernel_s": rec("positive_kernel_exists")["self"],
        "linalg.lattice_calls": rec("kernel_lattice_points")["calls"],
        "linalg.lattice_s": rec("kernel_lattice_points")["self"],
        "hattori.rvalues_calls": rvals["calls"],
        "hattori.rvalues_s": rvals["self"],
        "hattori.rvalues_ms_p50": 1000 * median(rvals["durations"]) if rvals["calls"] else 0.0,
        "laurent.divexact_calls": rec("LaurentPolynomial.divexact")["calls"],
        "laurent.divexact_s": rec("LaurentPolynomial.divexact")["self"],
        "localization.battery_calls": rec("chern_battery")["calls"],
        "localization.battery_s": rec("chern_battery")["self"],
        "graphs.enumerate_s": rec("enumerate_multigraphs")["self"],
        "graphs.classes": sum(k for k, _ in rec("enumerate_multigraphs")["info"]),
        "graphs.pairings_calls": rec("integral_multigraphs")["calls"],
        "graphs.pairings_s": rec("integral_multigraphs")["self"],
        "core.checks_s": rec("weight_system_checks")["self"],
    })
    return m


def module_self_times(agg: Dict[str, dict]) -> Dict[str, float]:
    """Self seconds summed by the module each wrapped name belongs to."""
    owner = {name: mod for name, (mod, _) in SEARCH_NAMES.items()}
    owner.update({cls.__name__ + "." + name: mod for (cls, name), (mod, _) in METHODS.items()})
    out: Dict[str, float] = {}
    for name, rec in agg.items():
        out[owner[name]] = out.get(owner[name], 0.0) + rec["self"]
    return out
