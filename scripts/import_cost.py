"""Median import time of ``cheshire.cli`` per module, from fresh interpreters.

Usage: ``python3 scripts/import_cost.py TREE [--runs 5]``

Runs ``python -X importtime -c "import cheshire.cli"`` ``--runs`` times in
``TREE``, with ``TREE/src`` first on PYTHONPATH and the rest of the caller's
environment as it is: with ``PYTHONDONTWRITEBYTECODE`` set, every run
compiles the sources afresh, and without it only the first run of a changed
tree does.  Prints the median self and cumulative import time in µs of every
``cheshire`` module, then of ``dataclasses``, ``argparse``, ``json`` and
``numpy`` ("not loaded" where no run imported it), and of the total, the sum
of every module's self time.  This is the per-layer view of perfbench's
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


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="source tree with the package under src/")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.runs < 1 or not (tree / "src" / "cheshire").is_dir():
        parser.error("--runs must be at least 1, and the tree must hold src/cheshire")
    runs = [import_times(tree) for _ in range(args.runs)]
    package = sorted({name for run in runs for name in run if name.split(".")[0] == "cheshire"})
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    print(f"median of {args.runs} fresh interpreters, PYTHONDONTWRITEBYTECODE={bytecode!r}")
    print(f"{'module':<24}{'self µs':>10}{'cumulative µs':>15}")
    for name in [*package, *OTHERS]:
        loaded = [run[name] for run in runs if name in run]
        if not loaded:
            print(f"{name:<24}{'not loaded':>10}")
            continue
        self_us = statistics.median(self for self, _ in loaded)
        cumulative_us = statistics.median(cumulative for _, cumulative in loaded)
        print(f"{name:<24}{self_us:>10.0f}{cumulative_us:>15.0f}")
    total = statistics.median(sum(self for self, _ in run.values()) for run in runs)
    print(f"{'total':<24}{total:>10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
