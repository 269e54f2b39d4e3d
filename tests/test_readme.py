"""The README's quick starts, run against the package as documented."""

import json
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

from cheshire import Axis, cli, sample_shots

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    mean = namespace["mixture_moments"](namespace["mixture"])[Axis.HORIZONTAL].mean
    assert mean == pytest.approx(0.01, rel=1e-3)
    assert namespace["success"] == pytest.approx(0.25, abs=1e-3)


def keys(value) -> set[str]:
    """Every dict key at any depth of a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*(keys(item) for item in value.values()))
    if isinstance(value, list):
        return set().union(*(keys(item) for item in value))
    return set()


def test_readme_cli_quick_start_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (CLI)") :]
    commands = re.findall(r"```sh\n(cheshire .*?)\n```", section)
    assert len(commands) == 1
    argv = shlex.split(commands[0])[1:]
    argv[argv.index("--out-dir") + 1] = str(tmp_path)
    assert cli.main(argv) == 0
    assert (tmp_path / "shots.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    # The names the README gives summary.json's keys, between the file's
    # name and the z-score threshold, all appear in the summary.
    described = section[section.index("`out/summary.json`") : section.index("|z| of 5")]
    named = set(re.findall(r"`([a-z][a-z0-9_]*)`", described))
    assert named <= keys(summary), named - keys(summary)
    # and every top-level key and every key of estimated, diagnostics, the
    # sampler and the checks is named
    diagnostics = summary["diagnostics"]
    for block in (summary, summary["estimated"], diagnostics, diagnostics["sampler"], diagnostics["checks"]):
        assert set(block) <= named, set(block) - named


#: The seeds whose traced peaks the README's figures bound, fixed before
#: the figures were measured: each figure is the largest over them.
PEAK_SEEDS = (0, 1, 2)
#: How the README names that seed set in both peak sentences.
PEAK_SEEDS_TEXT = r"the largest of seeds 0, 1 and 2, after a warm-up call"


def test_readme_sampler_peaks_hold():
    # The traced sample_shots peak a shot at 65,536 shots is at most the
    # README's whole-byte figure for each preset and each seed of the set.
    # tracemalloc counts the numpy arrays' bytes, so the peak does not
    # depend on the host's memory.
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(rf"traced at 65,536 shots \({PEAK_SEEDS_TEXT}\), (.*?), and 1e6", text).group(1)
    figures = {preset: int(figure) for figure, preset in re.findall(r"(\d+) (?:bytes a shot )?on ([a-z-]+)", sentence)}
    assert set(figures) == set(cli.PRESETS), figures
    n = 65_536
    for preset, figure in figures.items():
        experiment = cli.build_experiment(cli.parse_config(["--preset", preset]))
        sample_shots(experiment, 1000, seed=0)  # builds the analysis and the envelope
        for seed in PEAK_SEEDS:
            tracemalloc.start()
            try:
                sample_shots(experiment, n, seed=seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert round(peak / n) <= figure, (preset, seed, peak / n, figure)


def test_readme_writer_peaks_hold():
    # The traced write_shots_csv peak on a 65,536-shot chunk is at most the
    # README's figure in MB for each preset and each seed of the set, as the
    # sampler's peaks are pinned above.
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(rf"chunk \({PEAK_SEEDS_TEXT}\), the writer (.*?)\. It read", text).group(1)
    figures = {preset: float(mb) for mb, preset in re.findall(r"(\d+\.\d+) (?:MB )?on ([a-z-]+)", sentence)}
    assert set(figures) == set(cli.PRESETS), figures
    for preset, figure in figures.items():
        experiment = cli.build_experiment(cli.parse_config(["--preset", preset]))
        for seed in PEAK_SEEDS:
            batch = sample_shots(experiment, cli._CHUNK_SHOTS, seed=seed)
            with open(os.devnull, "wb") as fh:
                cli.write_shots_csv(fh, sample_shots(experiment, 1000, seed=0), experiment)  # warm-up
                tracemalloc.start()
                try:
                    cli.write_shots_csv(fh, batch, experiment)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= figure * 1e6, (preset, seed, peak / 1e6, figure)
