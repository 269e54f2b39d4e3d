"""``BENCH_trajectory.json``, the committed record of benchmark deltas, against ``BENCHMARK.json``.

Each record gives one change's parent and change medians of one metric on
one workload.  A record whose workload or metric the benchmark does not
define could not be reproduced by running it, so every name must be one
that ``BENCHMARK.json`` declares, with the unit it declares.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {
    "pr", "commit", "kind", "claim", "workload", "metric",
    "parent_median", "change_median", "unit", "source", "pairs", "quartiles",
}


def read_json(name: str):
    with open(ROOT / name, encoding="utf-8") as fh:
        return json.load(fh)


def test_trajectory_records_name_benchmark_workloads_and_metrics():
    benchmark = read_json("BENCHMARK.json")
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    units = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    records = read_json("BENCH_trajectory.json")["records"]
    assert records
    for record in records:
        assert set(record) == FIELDS, record
        assert record["workload"] in workloads, record
        assert record["metric"] in units, record
        assert record["unit"] == units[record["metric"]], record
        assert record["parent_median"] > 0 and record["change_median"] > 0, record
