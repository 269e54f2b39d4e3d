"""Median import time of ``cheshire.cli`` per module, from fresh interpreters, in one tree or two.

Usage: ``python3 scripts/import_cost.py TREE [OTHER_TREE] [--runs 5]``

Runs ``python -X importtime -c "import cheshire.cli"`` ``--runs`` times in
``TREE``, with ``TREE/src`` first on PYTHONPATH and the rest of the caller's
environment as it is: with ``PYTHONDONTWRITEBYTECODE`` set, every run
compiles the sources afresh, and without it only the first run of a changed
tree does.  Prints the median self and cumulative import time in µs of every
``cheshire`` module, then of ``dataclasses``, ``argparse``, ``json`` and
``numpy`` ("not loaded" where no run imported it), and of the total, the sum
of every module's self time.  With ``OTHER_TREE`` the two trees alternate
run by run, ``TREE`` first, so drift in the host's speed falls on both
alike, and each module's row holds both trees' medians and the second's
minus the first's.  This is the per-layer view of perfbench's
``setup_s``: perfbench's tracer sees only the work phase.  Exits 1 when an
import fails and 2 on wrong arguments.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Modules outside the package whose import cost is reported.
OTHERS = ("dataclasses", "argparse", "json", "numpy")


def import_times(tree: Path) -> dict[str, tuple[int, int]]:
    """Self and cumulative µs of each module one fresh ``import cheshire.cli`` in ``tree`` loads."""
    path = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-X", "importtime", "-c", "import cheshire.cli"]
    result = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode:
        sys.stderr.write(result.stderr)
        sys.exit(f"{tree}: import cheshire.cli failed (exit {result.returncode})")
    times = {}
    for line in result.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, name = line.removeprefix("import time:").split("|")
        if self_us.strip().isdigit():  # not the header
            times[name.strip()] = (int(self_us), int(cumulative_us))
    return times


def _medians(runs: list[dict[str, tuple[int, int]]], name: str) -> tuple[float, float] | None:
    """Median self and cumulative µs of module ``name`` over the runs that loaded it, or None."""
    loaded = [run[name] for run in runs if name in run]
    if not loaded:
        return None
    return statistics.median(self for self, _ in loaded), statistics.median(cumulative for _, cumulative in loaded)


def _with_delta(values: list[float]) -> list[float]:
    """One value per tree, followed for two trees by the second minus the first."""
    return values if len(values) == 1 else [*values, values[1] - values[0]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE", help="source tree with the package under src/")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    if len(trees) > 2 or args.runs < 1 or not all((tree / "src" / "cheshire").is_dir() for tree in trees):
        parser.error("give one or two trees, each holding src/cheshire, and --runs of at least 1")
    runs: list[list[dict[str, tuple[int, int]]]] = [[] for _ in trees]
    for _ in range(args.runs):
        for tree, tree_runs in zip(trees, runs):
            tree_runs.append(import_times(tree))
    every_run = [run for tree_runs in runs for run in tree_runs]
    package = sorted({name for run in every_run for name in run if name.split(".")[0] == "cheshire"})
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    print(f"median of {args.runs} fresh interpreters per tree, PYTHONDONTWRITEBYTECODE={bytecode!r}")
    for k, tree in enumerate(trees):
        print(f"tree {k + 1}: {tree}")
    columns = ["self µs", "cumulative µs"]
    if len(trees) == 2:
        columns = [f"{column} {side}" for column in ("self µs", "cumul. µs") for side in ("1", "2", "Δ")]
    print(f"{'module':<24}" + "".join(f"{column:>15}" for column in columns))
    for name in [*package, *OTHERS]:
        medians = [_medians(tree_runs, name) for tree_runs in runs]
        if None in medians:
            loaded = ", ".join(f"tree {k + 1}" for k, median in enumerate(medians) if median is not None)
            print(f"{name:<24}{'not loaded':>15}" + (f" (loaded in {loaded})" if loaded else ""))
            continue
        cells = [cell for i in range(2) for cell in _with_delta([median[i] for median in medians])]
        print(f"{name:<24}" + "".join(f"{cell:>15.0f}" for cell in cells))
    totals = [statistics.median(sum(self for self, _ in run.values()) for run in tree_runs) for tree_runs in runs]
    print(f"{'total':<24}" + "".join(f"{total:>15.0f}" for total in _with_delta(totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
