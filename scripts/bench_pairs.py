"""Compare two source trees on one benchmark workload by alternating pairs of runs.

Usage: ``python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [--pairs 10] [--seconds 40]``

Each tree is a checkout with ``perfbench/`` and the package under
``src/``.  Pair ``k`` (from 1) runs ``python3 perfbench/run.py --workload
W --seed k --seconds S --trace 0`` in each tree, the parent first on odd
pairs and the change first on even ones, so drift in the host's speed
falls on both sides alike.  Before the first pair the script deletes the
``__pycache__`` directories under each tree's ``src/`` and ``perfbench/``,
and every run gets ``PYTHONDONTWRITEBYTECODE=1``, so none is written
again: both trees compile their own sources in every process, as on a host
that writes no bytecode, while the standard library and numpy load from
their installed caches.  The script prints each pair's end-to-end metrics,
then per metric each side's median and quartiles, the number of pairs the
change won (had a strictly better value, in the direction
``BENCHMARK.json`` gives for the metric), the change's median relative to
the parent's, signed so that positive is better, and the metric's verdict
(``verdict``): a resolved gain (larger than the parent's interquartile
range and than a tenth of the metric's ``bound``), unresolved, within the
metric's ``bound`` or beyond it.  Exits 0 when every run was correct, 1
as soon as a run fails or reports a failed process, and 2 on wrong
arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
#: Fewest pairs that can resolve a gain.
MIN_PAIRS = 10
#: What each ``verdict`` prints.
VERDICTS = {
    "gain": "gain resolved",
    "unresolved": "unresolved (the parent's spread is wider than the bound)",
    "within": "within the bound",
    "BEYOND": "BEYOND the bound",
}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in ``tree``; returns its end-to-end metric values, or exits 1 if it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {}
    if result.returncode or not report.get("correct") or report.get("failed"):
        sys.stderr.write(result.stdout + result.stderr)
        sys.exit(f"{tree}: {workload} at seed {seed} failed (exit {result.returncode})")
    return {name: row["value"] for name, row in report["metrics"].items()}


def drop_bytecode_caches(tree: Path) -> None:
    """Delete the ``__pycache__`` directories that ``tree``'s runs would import from."""
    for cache in [*(tree / "src").rglob("__pycache__"), *(tree / "perfbench").rglob("__pycache__")]:
        shutil.rmtree(cache)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as perfbench summarises its processes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value is strictly better, ``better`` being ``"higher"`` or ``"lower"``."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How one metric's pairs read: ``"gain"``, ``"unresolved"``, ``"within"`` or ``"BEYOND"``.

    ``parent[k]`` and ``change[k]`` are pair k's values, ``better`` is
    ``"higher"`` or ``"lower"``, and ``bound`` is the fraction of the
    parent's median by which the change's median may be worse.  The rules
    are tried in this order:

    - ``"gain"``: at least ``MIN_PAIRS`` pairs were run, the change won at
      least 9 of every 10 (a tie is a win for neither side), and its median
      is better than the parent's by more than the parent's interquartile
      range and by more than a tenth of ``bound`` of the parent's median,
      so that a difference below the metric's own noise floor does not
      read as a gain however tight the parent's runs are.  Only this
      verdict supports a claimed gain.
    - ``"unresolved"``: the parent's interquartile range is wider than
      ``bound`` of its median, so the runs cannot tell whether the change
      is within the bound; unless every change run is better than every
      parent run.
    - ``"within"``: the change's median is worse than the parent's by at
      most ``bound`` of it; ``"BEYOND"``: by more.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - parent_median)
    floor = max(q3 - q1, bound / 10 * abs(parent_median))
    if len(parent) >= MIN_PAIRS and 10 * change_wins(parent, change, better) >= 9 * len(parent) and gain > floor:
        return "gain"
    if q3 - q1 > bound * abs(parent_median) and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "within" if gain >= -bound * abs(parent_median) else "BEYOND"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in metrics}
    bound = {metric["name"]: metric["bound"] for metric in metrics}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        drop_bytecode_caches(tree)
    samples: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            samples[side].append(run_once(trees[side], args.workload, pair, args.seconds))
        cells = "  ".join(
            f"{name} {samples['parent'][-1][name]:.6g} -> {samples['change'][-1][name]:.6g}" for name in better
        )
        print(f"pair {pair} ({order[0]} first): {cells}", flush=True)
    for name, direction in better.items():
        values = {side: [sample[name] for sample in samples[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = change_wins(values["parent"], values["change"], direction)
        cells, medians = [], {}
        for side in SIDES:
            q1, medians[side], q3 = quartiles(values[side])
            cells.append(f"{side} {medians[side]:.6g} [q1 {q1:.6g}, q3 {q3:.6g}]")
        summary = "  ".join(cells)
        gain = sign * (medians["change"] - medians["parent"]) / abs(medians["parent"])
        reading = verdict(values["parent"], values["change"], direction, bound[name])
        print(
            f"{args.workload} {name} ({direction} is better): {summary}  change won {wins} of {args.pairs}"
            f"  median {gain:+.1%}, bound {bound[name]:.0%}: {VERDICTS[reading]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
