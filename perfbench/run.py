"""cheshire benchmark: closed-loop client driving one workload process at a time.

Run from the root of a source checkout (the program is imported from
``src``; nothing is installed):

    python3 perfbench/run.py --workload mc-weak-cheshire --seed 1 --seconds 40 --trace 0

For ``--seconds`` the client starts one ``worker.py`` process after another
(a closed loop with one client), each with a CLI seed or a scan order derived
from ``--seed``, and checks every process's outputs.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones:
it alternates untraced and traced processes, takes the layer metrics from
the traced ones and the tracing overhead from the ratio of the two.  Each
metric is the median over the run's processes; the human-readable lines
also give quartiles and the count.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count worker
processes (failed_share = failed / attempted), ``metrics`` maps each metric
to its value and unit.  Times are in reference-host seconds: each
process's measured seconds times ``CAL_REF_S`` over the duration of the
calibration loop that brackets its work (see ``worker.calibrate``); the
report keeps the measured values too.  The exit code is 1 when any check
failed, 2 when there is no cheshire source to run.  A full report, with provenance, goes to
``.perfbench_out/``.  See perfbench/README.md for workloads and predictions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import call_count, inclusive_seconds, load_spans, self_times  # noqa: E402

WORKLOADS = {
    "mc-weak-cheshire": {"kind": "mc", "preset": "weak-cheshire", "headline": "horizontal"},
    "mc-which-path": {"kind": "mc", "preset": "which-path", "headline": "vertical"},
    "analytic-scan": {"kind": "scan"},
}
#: Shots per CLI run of the mc workloads.
MC_SHOTS = 20_000
#: Relative standard error that ``time_to_result_s`` projects to on mc workloads.
PRECISION = 0.01
#: A z-score at or beyond this fails the run.
Z_LIMIT = 5.0
#: Analytic outputs must match the recorded reference to this relative tolerance.
REL_TOL = 1e-12
ABS_TOL = 1e-15
#: The density sum goes through more floating-point sums; looser, still far below any real change.
DENSITY_REL_TOL = 1e-9
MIN_PROCESSES = 4
#: Duration of one ``worker.calibrate`` on the reference host (2.0 GHz Xeon, median conditions).
CAL_REF_S = 0.020
DEADLINE_S = 170.0
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"throughput": "1/s", "time_to_result_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.parse_config.s": "s",
    "cli.build_experiment.s": "s",
    "cli.expected_summary.self_s": "s",
    "cli.write_shots_csv.s": "s",
    "cli.write_shots_csv.us_per_row": "us/row",
    "cli.shots_csv.bytes": "bytes",
    "cli.main.self_s": "s",
    "montecarlo.analyze.calls": "count",
    "montecarlo.analyze.s": "s",
    "montecarlo.sample_shots.self_s": "s",
    "montecarlo.sample_shots.us_per_shot": "us/shot",
    "montecarlo.d1_shots": "count",
    "montecarlo.estimate.s": "s",
    "pointer.couple.calls": "count",
    "pointer.couple.s": "s",
    "pointer.postselect_pointer.s": "s",
    "pointer.mixture_moments.s": "s",
    "pointer.mixture_density.s": "s",
    "pointer.mixture_density.us_per_point": "us/point",
    "postselect.weak_value.calls": "count",
    "postselect.weak_value.s": "s",
    "postselect.abl_distribution.s": "s",
    "optics.detector_projectors.calls": "count",
    "optics.detector_projectors.s": "s",
    "optics.postselected_state.s": "s",
    "qstate.canonical_observables.calls": "count",
    "qstate.canonical_states.s": "s",
    "qstate.canonical_observables.s": "s",
    "qstate.validate_spectral.calls": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
#: Uncalibrated figures of the untraced processes, reported for reference only.
MEASURED_UNITS = {"work_s": "s", "setup_s": "s", "calibration_s": "s"}
#: Public cli functions that only orchestrate; their self time is part of ``cli.main.self_s``.
CLI_ORCHESTRATION = ("cli.main", "cli.run_preset", "cli.estimated_summary")


def derive_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_reference() -> dict:
    with open(HERE / "reference_scan.json", encoding="utf-8") as fh:
        return json.load(fh)


def scan_points(reference: dict, workload: str, seed: int, index: int, stride: int = 1) -> list:
    """Every ``stride``-th reference point of each coupling, in an order derived from the seed."""
    points = [
        [preset, ratio, i]
        for preset, table in reference["couplings"].items()
        for i, ratio in enumerate(table["g_over_s"])
        if i % stride == 0
    ]
    random.Random(derive_seed(workload, seed, index)).shuffle(points)
    return points


# ---------------------------------------------------------------- checks


def _z(observed: float, expected: float, stderr: float) -> float:
    if stderr > 0:
        return (observed - expected) / stderr
    return 0.0 if observed == expected else math.inf


def check_mc(out_dir: Path, shots: int, headline: str) -> tuple[list[str], dict]:
    """Problems found in one CLI run's outputs, and the facts the metrics need."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        expected, estimated = summary["expected"], summary["estimated"]
        p = float(expected["success_probability"])
        d1 = int(estimated["d1_count"])
        problems = []
        z = _z(float(estimated["post_rate"]), p, math.sqrt(p * (1 - p) / shots))
        if not abs(z) < Z_LIMIT:
            problems.append(f"post_rate z={z:.2f} against success_probability")
        for axis, mean in expected["pointer_mean"].items():
            se = math.sqrt(float(expected["pointer_variance"][axis]) / d1)
            z = _z(float(estimated["means"][axis]), float(mean), se)
            if not abs(z) < Z_LIMIT:
                problems.append(f"{axis} mean z={z:.2f} against pointer_mean")
        facts = {
            "d1_count": d1,
            "expected_mean": float(expected["pointer_mean"][headline]),
            "stderr": float(estimated["standard_errors"][headline]),
        }
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"summary.json unusable: {exc!r}"], {}
    csv_path = out_dir / "shots.csv"
    try:
        data = csv_path.read_bytes()
        rows = list(csv.reader(data.decode("ascii").splitlines()))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return problems + [f"shots.csv unreadable: {exc!r}"], facts
    facts["csv_sha256"] = hashlib.sha256(data).hexdigest()
    facts["csv_bytes"] = len(data)
    if len(rows) != shots + 1:
        problems.append(f"shots.csv has {len(rows)} lines, want {shots + 1}")
    if rows[:1] != [["shot_id", "detector", "x", "y"]]:
        problems.append("shots.csv header differs from shot_id,detector,x,y")
    with_readout = 0
    for shot_id, row in enumerate(rows[1:]):
        if len(row) != 4 or row[0] != str(shot_id):
            problems.append(f"shots.csv row {shot_id + 1} malformed: {row!r}")
            break
        has_readout = bool(row[2] or row[3])
        if has_readout != (row[1] == "D1"):
            problems.append(f"shots.csv row {shot_id + 1}: readout present iff D1 violated")
            break
        with_readout += has_readout
    if with_readout != d1:
        problems.append(f"shots.csv has {with_readout} readout rows, summary d1_count {d1}")
    return problems, facts


def _close(got, want, rel: float, path: str, problems: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _close(got[key], want[key], rel, f"{path}.{key}", problems)
    elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if not abs(got - want) <= rel * max(abs(got), abs(want)) + ABS_TOL:
            problems.append(f"{path}: {got!r} != reference {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} != reference {want!r}")


def check_scan(report: dict, points: list, reference: dict) -> list[str]:
    problems: list[str] = []
    results = report.get("points", [])
    if len(results) != len(points):
        return [f"{len(results)} scan results for {len(points)} points"]
    for (preset, _, index), result in zip(points, results):
        table = reference["couplings"][preset]
        want = {**table["shared"], **table["points"][index]}
        density = want.pop("density_sum")
        _close(result["expected"], want, REL_TOL, f"{preset}[{index}].expected", problems)
        _close(result["density_sum"], density, DENSITY_REL_TOL, f"{preset}[{index}].density_sum", problems)
    return problems


# ---------------------------------------------------------------- processes


def run_process(root: Path, work: Path, spec: dict, timeout: float) -> tuple[dict | None, str]:
    """Run one worker; returns its report (None on failure) and its stderr."""
    spec_path = work / f"spec-{spec['run_id']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(Path(spec["report"]).read_text(encoding="utf-8")), proc.stderr
    except (OSError, ValueError) as exc:
        return None, f"worker report unreadable: {exc!r}"


def host_factor(report: dict) -> float:
    """Converts a process's measured seconds to reference-host seconds."""
    return CAL_REF_S / report["calibration_s"]


def layer_metrics(spans: list[dict], report: dict, facts: dict, shots: int) -> dict[str, float]:
    """Per-layer figures of one traced process; ``shots`` is 0 on the scan, which draws none."""
    metrics = _layer_metrics(spans, report, facts, shots)
    factor = host_factor(report)
    for name, unit in LAYER_UNITS.items():
        if name in metrics and (unit == "s" or unit.startswith("us/")):
            metrics[name] *= factor
    return metrics


def _layer_metrics(spans: list[dict], report: dict, facts: dict, shots: int) -> dict[str, float]:
    own = self_times(spans)
    seconds = lambda name: inclusive_seconds(spans, name)  # noqa: E731
    calls = lambda name: call_count(spans, name)  # noqa: E731
    self_s = lambda *names: sum(own[span["id"]] for span in spans if span["name"] in names)  # noqa: E731
    csv_s = seconds("cli.write_shots_csv")
    sampler_s = self_s("montecarlo.sample_shots")
    grid_points = report.get("grid_points", 0)
    density_s = seconds("pointer.mixture_density")
    return {
        "cli.parse_config.s": seconds("cli.parse_config"),
        "cli.build_experiment.s": seconds("cli.build_experiment"),
        "cli.expected_summary.self_s": self_s("cli.expected_summary"),
        "cli.write_shots_csv.s": csv_s,
        "cli.write_shots_csv.us_per_row": 1e6 * csv_s / shots if shots else 0.0,
        "cli.shots_csv.bytes": facts.get("csv_bytes", 0),
        "cli.main.self_s": self_s(*CLI_ORCHESTRATION),
        "montecarlo.analyze.calls": calls("montecarlo.analyze"),
        "montecarlo.analyze.s": seconds("montecarlo.analyze"),
        "montecarlo.sample_shots.self_s": sampler_s,
        "montecarlo.sample_shots.us_per_shot": 1e6 * sampler_s / shots if shots else 0.0,
        "montecarlo.d1_shots": facts.get("d1_count", 0),
        "montecarlo.estimate.s": seconds("montecarlo.estimate"),
        "pointer.couple.calls": calls("pointer.couple"),
        "pointer.couple.s": seconds("pointer.couple"),
        "pointer.postselect_pointer.s": seconds("pointer.postselect_pointer"),
        "pointer.mixture_moments.s": seconds("pointer.mixture_moments"),
        "pointer.mixture_density.s": density_s,
        "pointer.mixture_density.us_per_point": 1e6 * density_s / grid_points if grid_points else 0.0,
        "postselect.weak_value.calls": calls("postselect.weak_value"),
        "postselect.weak_value.s": seconds("postselect.weak_value"),
        "postselect.abl_distribution.s": seconds("postselect.abl_distribution"),
        "optics.detector_projectors.calls": calls("optics.detector_projectors"),
        "optics.detector_projectors.s": seconds("optics.detector_projectors"),
        "optics.postselected_state.s": seconds("optics.postselected_state"),
        "qstate.canonical_observables.calls": calls("qstate.canonical_observables"),
        "qstate.canonical_states.s": seconds("qstate.canonical_states"),
        "qstate.canonical_observables.s": seconds("qstate.canonical_observables"),
        "qstate.validate_spectral.calls": calls("qstate.validate_spectral"),
        "trace.spans": len(spans),
    }


def end_to_end(report: dict, facts: dict, kind: str, units: int) -> dict[str, float]:
    factor = host_factor(report)
    wall = report["work_s"] * factor
    if kind == "mc":
        # Wall time scales with shots, stderr with 1/sqrt(shots): project to PRECISION.
        time_to_result = wall * (facts["stderr"] / (PRECISION * abs(facts["expected_mean"]))) ** 2
    else:
        time_to_result = wall
    return {
        "throughput": units / wall,
        "time_to_result_s": time_to_result,
        "setup_s": report["setup_s"] * factor,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, versions: dict) -> dict:
    commit = None
    if (root / ".git").exists():  # the benchmark may run from an exported tree
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "cheshire").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "worker_env": BLAS_ENV,
    }


def summarize(samples: list[dict[str, float]], units: dict[str, str]) -> dict[str, dict]:
    table = {}
    for name, unit in units.items():
        values = [float(sample[name]) for sample in samples if name in sample]
        if not values:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        table[name] = {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
    return table


def run_workload(
    root: Path, workload: str, seed: int, seconds: float, trace: bool,
    shots: int = MC_SHOTS, stride: int = 1, out: Path | None = None,
) -> dict:
    """Run one benchmark run and return its full report (``result`` is the printed line)."""
    spec_w = WORKLOADS[workload]
    kind = spec_w["kind"]
    work = out or root / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = load_reference() if kind == "scan" else None
    begin = time.perf_counter()
    plain, traced, measured, overhead, processes = [], [], [], {"plain": [], "traced": []}, []
    versions: dict = {}
    index = 0
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - begin
        typical = statistics.median(durations) if durations else 0.0
        if (index >= MIN_PROCESSES and elapsed + typical > seconds) or elapsed > DEADLINE_S - 5:
            break
        is_traced = trace and index % 2 == 1
        child = {"run_id": index, "kind": kind, "trace": is_traced,
                 "report": str(work / f"report-{index}.json"), "spans": str(work / f"spans-{index}.jsonl")}
        out_dir = work / f"run-{index}"
        if kind == "mc":
            cli_seed = derive_seed(workload, seed, index)
            child["argv"] = ["--preset", spec_w["preset"], "--shots", str(shots),
                             "--seed", str(cli_seed), "--out-dir", str(out_dir)]
            record = {"index": index, "traced": is_traced, "cli_seed": cli_seed}
            units = shots
        else:
            points = scan_points(reference, workload, seed, index, stride)
            child["points"] = [p[:2] for p in points]
            record = {"index": index, "traced": is_traced}
            units = len(child["points"])
        started = time.perf_counter()
        report, stderr = run_process(root, work, child, DEADLINE_S - elapsed)
        durations.append(time.perf_counter() - started)
        if report is None:
            problems, facts = [stderr], {}
        elif kind == "mc":
            problems, facts = check_mc(out_dir, shots, spec_w["headline"])
            if report["exit_code"] != 0:
                problems.insert(0, f"cheshire exit code {report['exit_code']}: {stderr.strip()}")
        else:
            problems, facts = check_scan(report, points, reference), {}
        shutil.rmtree(out_dir, ignore_errors=True)
        record["problems"] = problems
        record["shots_csv_sha256"] = facts.get("csv_sha256")
        processes.append(record)
        index += 1
        if problems:
            continue
        versions = report["versions"]
        record["measured"] = {key: report[key] for key in ("work_s", "setup_s", "calibration_s")}
        overhead["traced" if is_traced else "plain"].append(report["work_s"] * host_factor(report))
        if is_traced:
            spans = load_spans(Path(child["spans"]))
            Path(child["spans"]).unlink()
            traced.append(layer_metrics(spans, report, facts, shots if kind == "mc" else 0))
        else:
            plain.append(end_to_end(report, facts, kind, units))
            record["metrics"] = plain[-1]
            measured.append(record["measured"])
    failed = sum(1 for record in processes if record["problems"])
    if trace:
        if overhead["plain"] and overhead["traced"]:
            ratio = statistics.median(overhead["traced"]) / statistics.median(overhead["plain"])
            for sample in traced:
                sample["trace.overhead_ratio"] = ratio
        table = summarize(traced, LAYER_UNITS)
    else:
        table = summarize(plain, END_TO_END_UNITS)
    result = {
        "correct": failed == 0,
        "attempted": len(processes),
        "failed": failed,
        "metrics": {name: {"value": row["value"], "unit": row["unit"]} for name, row in table.items()},
    }
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "shots_per_process": shots if kind == "mc" else None,
        "provenance": {
            **provenance(root, versions),
            "calibration_ref_s": CAL_REF_S,
            "shots_csv_sha256": [r["shots_csv_sha256"] for r in processes if r["shots_csv_sha256"]],
        },
        "failed_share": failed / len(processes),
        "table": table, "measured": summarize(measured, MEASURED_UNITS),
        "processes": processes, "result": result,
    }
    (work / "report.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    return full


#: What ``throughput`` and ``time_to_result_s`` mean per workload kind, for the printed table.
_ALIASES = {
    "mc": {"throughput": "shots_per_s", "time_to_result_s": "time_to_1pct_s"},
    "scan": {"throughput": "points_per_s", "time_to_result_s": "scan_s"},
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shots", type=int, default=MC_SHOTS,
                        help=f"shots per CLI run on mc workloads (default {MC_SHOTS})")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cheshire" / "cli.py").is_file():
        print(f"perfbench: no cheshire source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    full = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace), args.shots)
    aliases = _ALIASES[WORKLOADS[args.workload]["kind"]]
    for name, row in full["table"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{args.workload:18s} {label:44s} {row['value']:.6g} {row['unit']}"
              f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
    for name, row in full["measured"].items():
        print(f"{args.workload:18s} {'measured.' + name:44s} {row['value']:.6g} {row['unit']}"
              f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
    print(f"{args.workload:18s} failed_share {full['failed_share']:.6g} "
          f"({full['result']['failed']}/{full['result']['attempted']} processes)")
    for record in full["processes"]:
        for problem in record["problems"]:
            print(f"FAILED process {record['index']}: {problem}")
    print("provenance " + json.dumps(full["provenance"], sort_keys=True))
    print(json.dumps(full["result"]))
    return 0 if full["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
