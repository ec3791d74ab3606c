"""Every identity's report, except its runtime, equals the recorded golden set.

The golden files are written by `tests/golden/record.py`; see its docstring
for the size and for when to re-record.  Strings, booleans, integers, keys,
list lengths and the config hash must match exactly; floats must match to
|a - b| <= RTOL * max(|a|, |b|) + ATOL, the drift rule that
`perfbench/workloads.py` applies to its reference (solver-based residuals
carry about 1e-6 relative CG error, quantities at the rounding floor sit
below ATOL).
"""

import importlib.util
import json
import math
import os

import pytest

from vekua_lab import harness

RTOL = 1e-6
ATOL = 1e-10

_spec = importlib.util.spec_from_file_location(
    "golden_record", os.path.join(os.path.dirname(__file__), "golden", "record.py")
)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def mismatches(got, want, path=""):
    """Paths at which `got` differs from `want` under the golden rule."""
    where = [path or "/"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return where
        return [p for key in want for p in mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return where
        return [p for k, (g, w) in enumerate(zip(got, want))
                for p in mismatches(g, w, f"{path}/{k}")]
    if type(got) is not type(want):
        return where
    if not isinstance(want, float):
        return [] if got == want else where
    if math.isnan(want) or math.isnan(got):
        return [] if math.isnan(want) and math.isnan(got) else where
    return [] if abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL else where


def test_mismatch_rule():
    want = {"a": [1.0, 2, "x", True], "b": {"c": 0.0}}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    assert mismatches({"a": [1.0 + 1e-9, 2, "x", True], "b": {"c": 5e-11}}, want) == []
    assert mismatches({"a": [1.001, 2, "x", True], "b": {"c": 0.0}}, want) == ["/a/0"]
    assert mismatches({"a": [1.0, 3, "x", False], "b": {"c": 0.0}}, want) == ["/a/1", "/a/3"]
    assert mismatches({"a": [1.0], "b": {}}, want) == ["/a", "/b"]


@pytest.mark.parametrize("identity", list(harness.IDENTITIES))
def test_report_matches_golden(identity):
    with open(record.golden_path(identity)) as fh:
        want = json.load(fh)
    got = record.golden_report(identity)
    assert got["provenance"]["config_hash"] == want["provenance"]["config_hash"]
    assert mismatches(got, want) == []
