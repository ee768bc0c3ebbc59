"""The CLI JSON of three classify runs, byte for byte.

The files under ``tests/golden/`` were written before stage 4 (vetting and
regrouping) was refactored, as
``json.dumps(cli._result_json(classify(...)), indent=1, sort_keys=True)``.
Any change to the families, the audit counts or the rejection counts of
these runs shows here.
"""

import json
from pathlib import Path

import pytest

from circleweights.cli import _result_json
from circleweights.core import minimal_profile
from circleweights.search import SearchOptions, classify

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, n, opts", [
    ("d4", 2, SearchOptions()),
    ("d6", 3, SearchOptions()),
    ("d8_c5", 4, SearchOptions(dim8_strict=True, divisor_c=5)),
])
def test_classify_reproduces_golden_json(name, n, opts):
    payload = json.dumps(_result_json(classify(minimal_profile(n), opts)), indent=1,
                         sort_keys=True)
    assert payload == (GOLDEN / ("%s.json" % name)).read_text()
