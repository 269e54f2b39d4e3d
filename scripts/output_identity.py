"""Check that two source trees write the same ``shots.csv`` and ``summary.json`` files.

Usage: ``python3 scripts/output_identity.py PARENT_TREE CHANGE_TREE``

Each tree is a checkout with the package under ``src/``.  Every preset
(``sweep`` included) runs at seeds 0, 1 and 2**64 - 1 with 50,000 shots, a
single chunk, and weak-cheshire at seed 1 with 140,001 shots, three chunks
with the last one partial, so a chunk boundary is compared too.  Which-path
and weak-cheshire also run at seed 1 with 20,000 shots at pointer widths
``--s`` 1e-3, 1e12 and 1e-120, so the readouts take every path of the CSV
float formatter: fractions with leading zeros, 13-digit integer parts and
``repr`` for every readout.  That is 59 output files in each tree.  Both
trees write to the same relative ``--out-dir`` in their own scratch
directory, so even the ``out_dir`` values in the summaries agree, and the
files are compared byte for byte.
Exits 0 when all files are identical, 1 when any differs or is missing or
a run fails, and 2 on wrong arguments.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("weak-cheshire", "which-path", "smile-only", "joint-strong", "sweep")
SEEDS = (0, 1, 2**64 - 1)
SHOTS = 50_000
WIDTHS = ("1e-3", "1e12", "1e-120")
#: (preset, seed, shots, width or None for the default) of every run.
RUNS = (
    *((preset, seed, SHOTS, None) for preset in PRESETS for seed in SEEDS),
    ("weak-cheshire", 1, 140_001, None),
    *((preset, 1, 20_000, s) for preset in ("which-path", "weak-cheshire") for s in WIDTHS),
)


def run_all(tree: Path, work: Path) -> None:
    """Run every entry of ``RUNS`` with the package in ``tree``, writing under ``work``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for preset, seed, shots, s in RUNS:
        name = f"{preset}-{seed}-{shots}" + (f"-s{s}" if s else "")
        argv = ["--preset", preset, "--seed", str(seed), "--shots", str(shots), "--out-dir", name]
        if s:
            argv += ["--s", s]
        result = subprocess.run([sys.executable, "-m", "cheshire.cli", *argv], cwd=work, env=env)
        if result.returncode:
            sys.exit(f"{tree}: {name} exited {result.returncode}")


def same(files: list[Path]) -> bool:
    return all(path.is_file() for path in files) and files[0].read_bytes() == files[1].read_bytes()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    with tempfile.TemporaryDirectory() as scratch:
        works = [Path(scratch) / name for name in ("parent", "change")]
        for tree, work in zip(trees, works):
            work.mkdir()
            run_all(tree, work)
        names = sorted({path.relative_to(work) for work in works for path in work.rglob("*") if path.is_file()})
        differ = [name for name in names if not same([work / name for work in works])]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(names) - len(differ)} of {len(names)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
