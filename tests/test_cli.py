import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cheshire import Axis, analyze, sample_shots
from cheshire import cli, montecarlo, pointer
from cheshire.cli import (
    ExperimentConfig,
    UsageError,
    build_experiment,
    expected_summary,
    main,
    parse_config,
    run_preset,
)


def read_summary(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def config_argv(config_file: Path, values: dict) -> list[str]:
    """Arguments that read ``values`` from the JSON config file ``config_file``."""
    config_file.write_text(json.dumps(values))
    return ["--config", str(config_file)]


# --- config parsing ----------------------------------------------------------


def test_flags_are_echoed_exactly(tmp_path):
    config = parse_config(
        ["--preset", "weak-cheshire", "--shots", "1000", "--seed", "7", "--out-dir", str(tmp_path)]
    )
    assert config.preset == "weak-cheshire"
    assert config.shots == 1000
    assert config.seed == 7
    assert config.out_dir == tmp_path
    # weak preset defaults: couplings at 0.01 * width
    assert config.s == 1.0
    assert config.g_vertical == pytest.approx(0.01)
    assert config.g_horizontal == pytest.approx(0.01)


def test_defaults():
    config = parse_config([])
    assert config.preset == "weak-cheshire"
    assert config.shots == 100_000
    assert config.seed == 0
    assert config.s == 1.0


def test_joint_strong_defaults_to_strong_coupling():
    config = parse_config(["--preset", "joint-strong", "--s", "2.0"])
    assert config.g_vertical == pytest.approx(20.0)
    assert config.g_horizontal == pytest.approx(20.0)


def test_flags_override_config_file(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"shots": 500, "seed": 4}))
    config = parse_config(["--config", str(config_file), "--shots", "900"])
    assert config.shots == 900  # flag wins
    assert config.seed == 4  # file value survives


def test_unknown_config_key_rejected(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"shotz": 500}))
    with pytest.raises(UsageError, match="shotz"):
        parse_config(["--config", str(config_file)])


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--s", "-1"], "s"),
        (["--s", "0"], "s"),
        (["--shots", "0"], "shots"),
        (["--g-vertical", "-0.5"], "g_vertical"),
        (["--preset", "bogus"], "preset"),
        (["--seed", "-1"], "seed"),
        (["--seed", str(2**64)], "seed"),
        (["--g-vertical", "inf"], "g_vertical"),
        (["--g-vertical", "nan"], "g_vertical"),
        (["--s", "inf"], "s"),
        (["--s", "1e-170"], "s"),
        (["--s", "1e200"], "s"),
        # config-file values
        ({"out_dir": 5}, "out_dir"),
        ({"shots": 2.5}, "shots"),
        ({"shots": True}, "shots"),
        ({"seed": "x"}, "seed"),
        ({"s": "wide"}, "s"),
        ({"g_horizontal": float("inf")}, "g_horizontal"),
        # couplings above the largest width
        (["--g-vertical", "1e200"], "g_vertical"),
        (["--g-horizontal", "1.1e150"], "g_horizontal"),
        ({"g_vertical": 1e151}, "g_vertical"),
    ],
)
def test_invalid_values_name_the_key(tmp_path, argv, key):
    if isinstance(argv, dict):
        argv = config_argv(tmp_path / "run.json", argv)
    with pytest.raises(UsageError, match=f"^{key}:"):
        parse_config(argv)


def test_integral_float_shots_accepted(tmp_path):
    assert parse_config(config_argv(tmp_path / "run.json", {"shots": 3000.0})).shots == 3000


def test_width_range_edges_accepted():
    assert parse_config(["--s", "1e-150"]).s == 1e-150
    assert parse_config(["--s", "1e150"]).s == 1e150
    config = parse_config(["--g-vertical", "1e150", "--g-horizontal", "1e150"])
    assert config.g_vertical == config.g_horizontal == 1e150


def test_seed_range_edges_accepted():
    assert parse_config(["--seed", "0"]).seed == 0
    assert parse_config(["--seed", str(2**64 - 1)]).seed == 2**64 - 1


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["--s", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "s" in err
    assert main(["--preset", "nope"]) == 2
    assert main(["--no-such-flag"]) == 2
    assert main(["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    for argv, key in (
        (["--g-vertical", "inf"], "g_vertical"),
        (["--g-vertical", "nan"], "g_vertical"),
        (["--s", "inf"], "s"),
        (["--s", "1e-170"], "s"),
        (["--s", "1e200"], "s"),
        (["--g-vertical", "1e200"], "g_vertical"),
        (["--g-horizontal", "1.1e150"], "g_horizontal"),
        (config_argv(tmp_path / "a.json", {"out_dir": 5}), "out_dir"),
        (config_argv(tmp_path / "b.json", {"shots": 2.5}), "shots"),
        (config_argv(tmp_path / "c.json", {"shots": True}), "shots"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"cheshire: {key}:")


# --- running presets ---------------------------------------------------------


def run_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        preset="weak-cheshire",
        g_vertical=0.01,
        g_horizontal=0.01,
        s=1.0,
        shots=1500,
        seed=3,
        out_dir=tmp_path,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_writes_csv_and_summary(tmp_path):
    config = run_config(tmp_path / "run")
    assert run_preset(config) == 0
    summary = read_summary(config.out_dir / "summary.json")
    assert list(summary) == ["config", "expected", "estimated", "diagnostics"]
    assert summary["config"] == config.as_dict()
    wv = summary["expected"]["weak_values"]
    assert wv["photon_in_arm1"] == {"re": pytest.approx(1.0), "im": pytest.approx(0.0)}
    assert wv["photon_in_arm2"] == {"re": pytest.approx(0.0), "im": pytest.approx(0.0)}
    assert wv["angular_momentum_arm1"] == {"re": pytest.approx(0.0), "im": pytest.approx(0.0)}
    assert wv["angular_momentum_arm2"] == {"re": pytest.approx(1.0), "im": pytest.approx(0.0)}
    assert summary["estimated"]["post_rate"] == pytest.approx(0.25, abs=0.05)
    assert summary["diagnostics"]["g_over_s"] == {"vertical": 0.01, "horizontal": 0.01}
    assert summary["diagnostics"]["branch_count"] == 3
    assert summary["diagnostics"]["stream_version"] == 2
    assert set(summary["diagnostics"]["versions"]) == {"cheshire", "numpy", "python"}
    assert summary["diagnostics"]["versions"]["numpy"] == np.__version__


@pytest.mark.parametrize("preset, acceptance", [("weak-cheshire", 0.400), ("which-path", 1.0)])
def test_summary_reports_sampler_acceptance(tmp_path, preset, acceptance):
    config = run_config(tmp_path, preset=preset, shots=4000)
    assert run_preset(config) == 0
    summary = read_summary(config.out_dir / "summary.json")
    sampler = summary["diagnostics"]["sampler"]
    assert sampler["accepted"] == summary["estimated"]["d1_count"]
    assert sampler["observed_acceptance"] == sampler["accepted"] / sampler["attempts"]
    expected = sampler["expected_acceptance"]
    assert expected == pytest.approx(acceptance, abs=5e-4)
    sigma = math.sqrt(expected * (1 - expected) / sampler["attempts"])
    assert abs(sampler["observed_acceptance"] - expected) <= 5 * sigma + 1e-12


def test_single_run_analyzes_once(tmp_path, monkeypatch):
    calls = []
    grams = []
    overlap_matrix = pointer._overlap_matrix

    def counting_analyze(experiment):
        calls.append(experiment)
        return analyze(experiment)

    def counting_overlaps(displacements, widths):
        grams.append(displacements)
        return overlap_matrix(displacements, widths)

    monkeypatch.setattr(cli, "analyze", counting_analyze)
    monkeypatch.setattr(montecarlo, "analyze", counting_analyze)
    monkeypatch.setattr(pointer, "_overlap_matrix", counting_overlaps)
    assert main(["--preset", "weak-cheshire", "--shots", "300", "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    # One Gram matrix for the detector probabilities, one for the mixture.
    assert len(grams) <= 2


def test_extreme_coupling_over_width_runs_quietly(tmp_path, capsys):
    # g/s = 1e160 overflows the Gaussian exponents; exp(-inf) = 0 is exact.
    argv = ["--g-vertical", "1e10", "--s", "1e-150", "--shots", "2000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_expected_summary_accepts_a_precomputed_analysis():
    config = run_config(Path("."))
    experiment = build_experiment(config)
    assert expected_summary(config, experiment) == expected_summary(
        config, experiment, analysis=analyze(experiment)
    )


def test_expected_summary_is_scale_free_at_the_smallest_width():
    # At equal g/s only lengths depend on the width: pointer means scale
    # with s and variances with s**2.  1e-150 is the smallest accepted width.
    def summary(s):
        config = run_config(Path("."), g_vertical=0.01 * s, g_horizontal=0.01 * s, s=s)
        return expected_summary(config, build_experiment(config))

    unit, tiny = summary(1.0), summary(1e-150)
    assert tiny["weak_values"] == unit["weak_values"]
    assert tiny["abl"] == unit["abl"]

    def close(value, reference):
        return value == pytest.approx(reference, rel=1e-12, abs=0)

    assert close(tiny["success_probability"], unit["success_probability"])
    for axis in ("vertical", "horizontal"):
        assert close(tiny["pointer_mean_over_coupling"][axis], unit["pointer_mean_over_coupling"][axis])
        assert close(tiny["pointer_mean"][axis] / 1e-150, unit["pointer_mean"][axis])
        assert close(tiny["pointer_variance"][axis] / 1e-150**2, unit["pointer_variance"][axis])


def test_csv_round_trips_the_records(tmp_path):
    config = run_config(tmp_path)
    run_preset(config)
    experiment = build_experiment(config)
    batch = sample_shots(experiment, config.shots, config.seed)
    with open(config.out_dir / "shots.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["shot_id", "detector", "x", "y"]
    assert len(rows) == config.shots + 1
    for row, shot_id, code, readout in zip(
        rows[1:], batch.shot_id.tolist(), batch.detector.tolist(), batch.readout.tolist()
    ):
        assert int(row[0]) == shot_id
        assert row[1] == f"D{code}"
        if code == 1:
            # vertical pointer first in the preset, horizontal second
            assert row[3] == repr(readout[0])
            assert row[2] == repr(readout[1])
        else:
            assert row[2] == "" and row[3] == ""


def test_csv_bytes_match_the_csv_module(tmp_path, monkeypatch):
    # The byte format of shots.csv: csv.writer rows of str(shot_id), the
    # detector name and repr of each Python float readout, x horizontal and
    # y vertical, for every column layout and across chunk boundaries.
    chunks = (7, cli._CSV_CHUNK)
    for preset in ("weak-cheshire", "which-path", "smile-only", "joint-strong"):
        config = run_config(tmp_path, preset=preset, shots=600)
        experiment = build_experiment(config)
        batch = sample_shots(experiment, config.shots, config.seed, first_shot=2**40 - 300)
        assert (batch.detector == 1).any()
        with open(tmp_path / "reference.csv", "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["shot_id", "detector", "x", "y"])
            for shot_id, code, readout in zip(
                batch.shot_id.tolist(), batch.detector.tolist(), batch.readout.tolist()
            ):
                by_axis = dict(zip(experiment.axes(), readout)) if code == 1 else {}
                fields = [
                    repr(by_axis[axis]) if axis in by_axis else ""
                    for axis in (Axis.HORIZONTAL, Axis.VERTICAL)
                ]
                writer.writerow([shot_id, f"D{code}", *fields])
        reference = (tmp_path / "reference.csv").read_bytes()
        for chunk in chunks:
            monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
            cli.write_shots_csv(tmp_path / "shots.csv", batch, experiment)
            assert (tmp_path / "shots.csv").read_bytes() == reference, (preset, chunk)


def test_single_axis_preset_leaves_other_column_empty(tmp_path):
    config = run_config(tmp_path, preset="which-path", shots=800)
    run_preset(config)
    with open(config.out_dir / "shots.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))[1:]
    d1_rows = [row for row in rows if row[1] == "D1"]
    assert d1_rows, "expected some post-selected shots"
    assert all(row[2] == "" for row in rows)  # no horizontal pointer
    assert all(row[3] != "" for row in d1_rows)


def test_identical_configs_give_byte_identical_csv(tmp_path):
    first = run_config(tmp_path / "a")
    second = run_config(tmp_path / "b")
    run_preset(first)
    run_preset(second)
    assert (first.out_dir / "shots.csv").read_bytes() == (second.out_dir / "shots.csv").read_bytes()


def test_joint_strong_reports_trimodal_masses(tmp_path):
    config = run_config(tmp_path, preset="joint-strong", g_vertical=10.0, g_horizontal=10.0, shots=1200)
    assert run_preset(config) == 0
    summary = read_summary(config.out_dir / "summary.json")
    lobes = summary["expected"]["abl"]["angular_momentum_arm2"]
    assert lobes["1"] == pytest.approx(1 / 6, abs=1e-12)
    assert lobes["-1"] == pytest.approx(1 / 6, abs=1e-12)
    assert lobes["0"] == pytest.approx(2 / 3, abs=1e-12)
    assert summary["diagnostics"]["g_over_s"] == {"vertical": 10.0, "horizontal": 10.0}


def test_sweep_writes_points_and_convergence(tmp_path):
    exit_code = main(
        ["--preset", "sweep", "--shots", "400", "--seed", "1", "--out-dir", str(tmp_path)]
    )
    assert exit_code == 0
    for ratio in ("0.1", "0.01", "0.001"):
        point_dir = tmp_path / f"g_over_s_{ratio}"
        assert (point_dir / "shots.csv").exists()
        point_summary = read_summary(point_dir / "summary.json")
        assert point_summary["config"]["preset"] == "weak-cheshire"
        assert point_summary["config"]["g_vertical"] == pytest.approx(float(ratio))
    summary = read_summary(tmp_path / "summary.json")
    assert summary["config"]["preset"] == "sweep"
    for axis in ("vertical", "horizontal"):
        for ratio in summary["expected"]["weak_limit_error_ratio_per_decade"][axis]:
            assert 50 < ratio < 200


def test_runtime_failures_exit_1(tmp_path, capsys):
    # far too few shots for an estimate
    assert main(["--shots", "1", "--out-dir", str(tmp_path / "tiny")]) == 1
    assert "cheshire:" in capsys.readouterr().err
    # unwritable output location (parent is a file)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--shots", "50", "--out-dir", str(blocker / "sub")]) == 1


def test_low_acceptance_exits_1(tmp_path, monkeypatch, capsys):
    # weak-cheshire accepts 0.4 of its readout proposals; a floor above
    # that stands in for a near-null post-selection.
    monkeypatch.setattr(montecarlo, "MIN_ACCEPTANCE", 0.5)
    assert main(["--shots", "200", "--out-dir", str(tmp_path / "low")]) == 1
    err = capsys.readouterr().err
    assert "cheshire:" in err and "acceptance" in err
    assert not (tmp_path / "low" / "shots.csv").exists()


def test_main_happy_path(tmp_path):
    out = tmp_path / "ok"
    assert main(["--preset", "smile-only", "--shots", "600", "--seed", "2", "--out-dir", str(out)]) == 0
    summary = read_summary(out / "summary.json")
    assert summary["config"]["shots"] == 600
    assert "angular_momentum_arm2" in summary["expected"]["abl"]
    assert "photon_in_arm1" not in summary["expected"]["abl"]
