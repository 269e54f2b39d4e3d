"""``scripts/output_identity.py``'s rules for summaries of two summary versions, on small dict pairs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_identity.py"
spec = importlib.util.spec_from_file_location("output_identity", SCRIPT)
output_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_identity)

PARENT = {
    "config": {"shots": 400, "out_dir": "run"},
    "estimated": {"means": {"vertical": 0.1, "horizontal": None}, "points": [{"g_over_s": 0.1}]},
    "diagnostics": {"stream_version": 4, "versions": {"numpy": "2.4.6"}, "checks": {}},
}


def with_leaf(summary: dict, path: tuple[str, ...], value) -> dict:
    """A copy of ``summary`` with the leaf at ``path`` set to ``value``."""
    copy = json.loads(json.dumps(summary))
    block = copy
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return copy


def test_identical_summaries_keep_every_leaf_and_add_none():
    assert output_identity.compare_leaves(PARENT, PARENT) == ([], [])


def test_a_changed_value_fails():
    for path, value in [
        (("estimated", "means", "vertical"), 0.10000000000000002),
        (("estimated", "means", "horizontal"), 0.0),
        (("estimated", "points"), [{"g_over_s": 0.1, "out_dir": "a"}]),
        (("diagnostics", "versions", "numpy"), "2.4.7"),
        (("diagnostics", "checks"), {"post_rate_z": 0.5}),
    ]:
        lost, _ = output_identity.compare_leaves(PARENT, with_leaf(PARENT, path, value))
        assert len(lost) == 1 and lost[0].startswith(".".join(path) + ": "), lost
    # The JSON text is compared, so an int and an equal float differ too.
    lost, _ = output_identity.compare_leaves(PARENT, with_leaf(PARENT, ("config", "shots"), 400.0))
    assert lost == ["config.shots: 400 -> 400.0"]


def test_a_removed_key_fails():
    change = json.loads(json.dumps(PARENT))
    del change["config"]["shots"]
    lost, added = output_identity.compare_leaves(PARENT, change)
    assert (lost, added) == (["config.shots: removed"], [])
    lost, _ = output_identity.compare_leaves(PARENT, {key: PARENT[key] for key in ("config", "estimated")})
    assert sorted(lost) == ["diagnostics.checks: removed", "diagnostics.stream_version: removed",
                            "diagnostics.versions.numpy: removed"]


def test_an_added_key_passes_and_is_listed():
    change = with_leaf(PARENT, ("diagnostics", "summary_version"), 1)
    change = with_leaf(change, ("diagnostics", "versions", "numpy_dispatch"), ["X86_V3"])
    lost, added = output_identity.compare_leaves(PARENT, change)
    assert lost == []
    assert sorted(added) == ["diagnostics.summary_version", "diagnostics.versions.numpy_dispatch"]


def test_a_summary_without_a_version_reads_as_version_0():
    assert output_identity.summary_version(PARENT) == 0
    assert output_identity.summary_version({"config": {}}) == 0
    assert output_identity.summary_version(with_leaf(PARENT, ("diagnostics", "summary_version"), 1)) == 1


def test_stream_version_is_read_from_the_tree(tmp_path):
    package = tmp_path / "src" / "cheshire"
    package.mkdir(parents=True)
    (package / "montecarlo.py").write_text('"""Sampler."""\n\nSTREAM_VERSION = 4\n', encoding="utf-8")
    assert output_identity.stream_version(tmp_path) == 4
    (package / "montecarlo.py").write_text('"""Sampler."""\n', encoding="utf-8")
    assert output_identity.stream_version(tmp_path) == 0
