"""Fast self-test of the benchmark itself (about ten seconds; not part of the pytest suite).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

- the span arithmetic (self time, nested inclusive time, counts) on synthetic spans;
- every workload, untraced and traced, at tiny sizes: all checks pass and
  every metric of BENCHMARK.json is reported; the traced mc runs count
  ``analyze`` calls;
- that a corrupted ``summary.json``, a short or inconsistent ``shots.csv``,
  a failing z-score and a drifted analytic value are each reported as failures;
- that without a cheshire source tree the benchmark exits nonzero and prints no result.

Exits 1 and lists the failed checks if any fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import call_count, inclusive_seconds, self_times  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "run": 0}


def test_span_arithmetic() -> None:
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, 0),
        span(2, "b", 2.0, 5.0, 0),  # overlaps its sibling: covered once
        span(3, "c", 9.0, 12.0, 0),  # runs past its parent: clipped
        span(4, "d", 1.5, 2.5, 1),  # grandchild: not subtracted from the root
        span(5, "a", 6.0, 7.0, 0),
        span(6, "a", 6.2, 6.4, 5),  # nested inside a same-name span
    ]
    own = self_times(spans)
    check(abs(own[0] - 4.0) < 1e-12, f"root self time 10 - |[1,5] u [6,7] u [9,10]| = 4, got {own[0]}")
    check(abs(own[1] - 1.0) < 1e-12, f"child self time 2 - 1 = 1, got {own[1]}")
    check(abs(own[3] - 3.0) < 1e-12, f"leaf self time is its duration, got {own[3]}")
    check(abs(inclusive_seconds(spans, "a") - 3.0) < 1e-12, "nested same-name span counted once")
    check(call_count(spans, "a") == 3, "call count counts every span")
    check(abs(own[5] - 0.8) < 1e-12 and abs(own[6] - 0.2) < 1e-12, "a same-name child is still a child")


def test_workloads(root: Path, out: Path) -> None:
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        names = {metric["name"]: metric["unit"] for metric in benchmark[key]}
        for workload in benchmark["workloads"]:
            name = workload["name"]
            full = run.run_workload(root, name, seed=7, seconds=0.1, trace=trace, shots=2000, stride=32,
                                    out=out / f"{name}-trace{int(trace)}")
            result = full["result"]
            problems = [p for record in full["processes"] for p in record["problems"]]
            check(result["correct"] and result["failed"] == 0, f"{name} trace={int(trace)} passes: {problems}")
            got = {metric: row["unit"] for metric, row in result["metrics"].items()}
            check(got == names, f"{name} trace={int(trace)} reports exactly the {key} metrics with their units")
            if trace and name.startswith("mc-"):
                calls = result["metrics"]["montecarlo.analyze.calls"]["value"]
                check(calls >= 1, f"{name} traced run counts analyze calls ({calls} per CLI run)")


def test_failures_detected(root: Path, out: Path) -> None:
    shots = 3000
    good = out / "cli-run"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, "-m", "cheshire.cli", "--preset", "which-path", "--shots", str(shots),
         "--seed", "5", "--out-dir", str(good)],
        check=True, env=env, cwd=root,
    )
    problems, facts = run.check_mc(good, shots, "vertical")
    check(not problems and facts["d1_count"] > 0, f"an intact CLI run passes the checks: {problems}")

    def corrupted(edit) -> list[str]:
        bad = out / "cli-run-bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        edit(bad)
        return run.check_mc(bad, shots, "vertical")[0]

    def truncate_summary(d: Path) -> None:
        text = (d / "summary.json").read_text(encoding="utf-8")
        (d / "summary.json").write_text(text[: len(text) // 2], encoding="utf-8")

    def shorten_csv(d: Path) -> None:
        lines = (d / "shots.csv").read_text(encoding="ascii").splitlines(keepends=True)
        (d / "shots.csv").write_text("".join(lines[:-1]), encoding="ascii")

    def drop_readout(d: Path) -> None:
        lines = (d / "shots.csv").read_text(encoding="ascii").splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if ",D1," in line)
        lines[i] = lines[i].split(",D1,")[0] + ",D1,,\n"
        (d / "shots.csv").write_text("".join(lines), encoding="ascii")

    def shift_mean(d: Path) -> None:
        summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
        summary["estimated"]["means"]["vertical"] += 1.0
        (d / "summary.json").write_text(json.dumps(summary), encoding="utf-8")

    def shift_rate(d: Path) -> None:
        summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
        summary["estimated"]["post_rate"] += 0.1
        (d / "summary.json").write_text(json.dumps(summary), encoding="utf-8")

    check(bool(corrupted(truncate_summary)), "a corrupted summary.json is a failure")
    check(bool(corrupted(shorten_csv)), "a short shots.csv is a failure")
    check(bool(corrupted(drop_readout)), "a D1 row without readout is a failure")
    check(bool(corrupted(shift_mean)), "a mean 5+ standard errors off is a failure")
    check(bool(corrupted(shift_rate)), "a post_rate 5+ standard errors off is a failure")

    reference = run.load_reference()
    points = run.scan_points(reference, "analytic-scan", 1, 0, stride=64)
    report = {"points": []}
    for preset, _, index in points:
        table = reference["couplings"][preset]
        want = {**table["shared"], **table["points"][index]}
        report["points"].append({"density_sum": want.pop("density_sum"), "expected": want})
    check(not run.check_scan(report, points, reference), "the reference matches itself")
    report["points"][0]["expected"]["success_probability"] *= 1 + 1e-9
    check(bool(run.check_scan(report, points, reference)), "an analytic value off by 1e-9 relative is a failure")


def test_no_source(root: Path, out: Path) -> None:
    bare = out / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-which-path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/cheshire: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")


def main() -> int:
    root = Path.cwd()
    out = root / ".perfbench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    test_span_arithmetic()
    test_failures_detected(root, out)
    test_no_source(root, out)
    test_workloads(root, out)
    print(f"{len(FAILURES)} failed" if FAILURES else "all benchmark self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
