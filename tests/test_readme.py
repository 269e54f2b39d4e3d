"""The README's quick starts, run against the package as documented."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cheshire import Axis, cli

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
