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
directory, so even the ``out_dir`` values in the summaries agree.

Each kind of file has its own rule:

- ``shots.csv`` is compared byte for byte when both trees have the same
  ``STREAM_VERSION`` (in ``src/cheshire/montecarlo.py``).  A new stream
  changes the records on purpose, so otherwise the script skips them and
  says so.
- ``summary.json`` is compared byte for byte when both files have the same
  ``diagnostics.summary_version``; a summary without that key is version
  0.  Across versions, every leaf of the parent's summary (a value that is
  not a non-empty JSON object, at its key path) must appear in the
  change's with identical JSON text, and the script prints each leaf the
  change added.

Exits 0 when every compared file passes its rule, 1 when any fails or is
missing or a run fails, and 2 on wrong arguments.
"""

from __future__ import annotations

import json
import os
import re
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


def stream_version(tree: Path) -> int:
    """``STREAM_VERSION`` of the package in ``tree``, 0 if it has none."""
    source = (tree / "src" / "cheshire" / "montecarlo.py").read_text(encoding="utf-8")
    match = re.search(r"^STREAM_VERSION = (\d+)$", source, re.M)
    return int(match.group(1)) if match else 0


def leaves(value, path: tuple[str, ...] = ()) -> dict[tuple[str, ...], str]:
    """The JSON text of every leaf of ``value`` by key path: every value that is not a non-empty object."""
    if isinstance(value, dict) and value:
        found: dict[tuple[str, ...], str] = {}
        for key, item in value.items():
            found.update(leaves(item, (*path, key)))
        return found
    return {path: json.dumps(value)}


def compare_leaves(parent: dict, change: dict) -> tuple[list[str], list[str]]:
    """The parent leaves that ``change`` lost or altered, as messages, and the names of the leaves it added."""
    old, new = leaves(parent), leaves(change)
    lost = [
        f"{'.'.join(path)}: {text} -> {new[path]}" if path in new else f"{'.'.join(path)}: removed"
        for path, text in old.items()
        if new.get(path) != text
    ]
    return lost, [".".join(path) for path in new if path not in old]


def summary_version(summary: dict) -> int:
    return summary.get("diagnostics", {}).get("summary_version", 0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in argv]
    streams = [stream_version(tree) for tree in trees]
    with tempfile.TemporaryDirectory() as scratch:
        works = [Path(scratch) / name for name in ("parent", "change")]
        for tree, work in zip(trees, works):
            work.mkdir()
            run_all(tree, work)
        names = sorted({path.relative_to(work) for work in works for path in work.rglob("*") if path.is_file()})
        identical, kept, skipped, differ = 0, 0, 0, []
        added: dict[str, int] = {}  # added leaf -> summaries that added it
        for name in names:
            files = [work / name for work in works]
            if name.name == "shots.csv" and streams[0] != streams[1]:
                skipped += 1
                continue
            if not all(path.is_file() for path in files):
                differ.append(f"{name}: missing from the {'parent' if files[1].is_file() else 'change'}")
                continue
            data = [path.read_bytes() for path in files]
            if data[0] == data[1]:
                identical += 1
                continue
            summaries = [json.loads(text) for text in data] if name.name == "summary.json" else None
            if summaries is None or summary_version(summaries[0]) == summary_version(summaries[1]):
                differ.append(f"{name}: differs")
                continue
            lost, new = compare_leaves(*summaries)
            kept += not lost
            differ += [f"{name}: {message}" for message in lost]
            for leaf in new:
                added[leaf] = added.get(leaf, 0) + 1
    if skipped:
        print(f"skipped {skipped} shots.csv files: STREAM_VERSION is {streams[0]} in the parent, {streams[1]} in the change")
    for leaf, count in added.items():
        print(f"added leaf: {leaf} (in {count} summaries)")
    for line in differ:
        print(f"differs: {line}")
    compared = len(names) - skipped
    summary = f"{identical} of {compared} compared files identical"
    print(summary + (f"; {kept} summaries of another summary version keep every parent leaf" if kept else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
