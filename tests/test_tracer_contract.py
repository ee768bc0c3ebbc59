"""The benchmark's tracer wraps names that ``circleweights.search`` looks up
at call time.  A refactor that stops calling one of them through ``search``
would silently zero a per-layer metric, so every wrapped name must record a
span on a small classify run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import METHODS, SEARCH_NAMES, Tracer  # noqa: E402

from circleweights import search  # noqa: E402
from circleweights.core import minimal_profile  # noqa: E402


def test_every_traced_name_records_a_span_on_d4():
    tracer = Tracer()
    with tracer.installed():
        search.classify(minimal_profile(2), search.SearchOptions())
    calls = {name: rec["calls"] for name, rec in tracer.aggregate().items()}
    wrapped = list(SEARCH_NAMES) + [cls.__name__ + "." + name for cls, name in METHODS]
    assert len(wrapped) == 14
    assert [name for name in wrapped if not calls.get(name)] == []
