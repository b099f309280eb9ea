"""The benchmark's result line, as a traced run of each workload prints it.

Besides the two gated workloads, this runs `picard-fd-1d` and `hyst-csv`,
which take the Picard sweeps, the difference-quotient study and the
whole-signal stop loop through the CLI; each run checks its own output.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", ["control-1d", "grid-2d", "picard-fd-1d", "hyst-csv"])
def test_traced_run_ends_with_a_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the result is the last line: nothing printed after it, no bare NaN
    # or Infinity (json.dumps writes non-finite floats unquoted)
    *_, last, after = proc.stdout.split("\n")
    assert after == ""
    result = json.loads(last, parse_constant=refuse)
    assert result["correct"] is True
    assert result["failed"] == 0
    # a traced name that is gone from the package turns its metric null
    # while the run still succeeds: every gated per-layer metric is a number
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    for name in names:
        assert name in result["metrics"], name
        value = result["metrics"][name]["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
