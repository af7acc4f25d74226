"""Shape test of the benchmark itself (not in the tier-1 ``testpaths``).

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Each workload is run once with ``--quick`` (2 % of the iterations): the
numbers mean nothing, the names, units, counts and spans must be right.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric_and_a_nested_trace(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "NOT comparable" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float))
        if entry["unit"] == "count":
            assert float(entry["value"]).is_integer(), (name, entry["value"])

    with open(os.path.join(HERE, "out", f"{workload}.result.json")) as handle:
        assert json.load(handle)["comparable"] is False
    with open(os.path.join(HERE, "out", f"{workload}.trace.json")) as handle:
        trace = json.load(handle)
    assert trace["workload"] == workload and len(trace["ranks"]) >= 2
    for spans in trace["ranks"].values():
        assert spans
        for name, start, end, parent, _rank, _iteration in spans:
            assert start <= end
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2], name
