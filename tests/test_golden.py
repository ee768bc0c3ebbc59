"""The CLI JSON of five classify runs, byte for byte.

The files under ``tests/golden/`` hold
``json.dumps(classify(...).to_json(), indent=1, sort_keys=True)``.
The d4, d6 and d8_c5 runs were first written before stage 4 (vetting and
regrouping) was refactored, the two S^2 x S^2 runs (a non-minimal profile,
nonnegative and bounded) before the labeling bounds became one rule; all
five were rewritten when the options record lost ``mode`` and
``cycle_bound``, with every other byte unchanged.  Any change to the
families, the audit counts or the rejection counts of these runs shows here.
"""

import json
from pathlib import Path

import pytest

from circleweights.core import FixedPointProfile, minimal_profile
from circleweights.search import SearchOptions, classify

GOLDEN = Path(__file__).parent / "golden"


S2XS2 = FixedPointProfile(2, (0, 1, 1, 2))


@pytest.mark.parametrize("name, n, opts", [
    ("d4", 2, SearchOptions()),
    ("d6", 3, SearchOptions()),
    ("d8_c5", 4, SearchOptions(dim8_strict=True, divisor_c=5)),
    ("s2xs2", S2XS2, SearchOptions()),
    ("s2xs2_bounded2", S2XS2, SearchOptions(bound_d=2)),
])
def test_classify_reproduces_golden_json(name, n, opts):
    profile = n if isinstance(n, FixedPointProfile) else minimal_profile(n)
    payload = json.dumps(classify(profile, opts).to_json(), indent=1, sort_keys=True)
    assert payload == (GOLDEN / ("%s.json" % name)).read_text()
