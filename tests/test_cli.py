import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cheshire
from cheshire import Axis, ShotBatch, analyze, sample_shots, sequential_distribution
from cheshire import cli, montecarlo, pointer
from cheshire.cli import (
    PRESETS,
    ExperimentConfig,
    UsageError,
    build_experiment,
    expected_summary,
    main,
    parse_config,
    run_preset,
)
from oracles import ks_normal
from oracles import weak_limit_error as oracle_weak_limit_error


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


def test_unreadable_config_files_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"out_dir": "\xff"}')
    for path, message in (
        (missing, f"config: cannot read {missing}: "),
        (invalid, f"config: cannot read {invalid}: "),
        (array, "config: file must contain a JSON object"),
        (latin1, f"config: cannot read {latin1}: "),
    ):
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"cheshire: {message}")
    assert not (tmp_path / "out").exists()


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
        # shot ids must fit in int64
        (["--shots", str(2**63)], "shots"),
        (["--shots", str(2**63 + 1)], "shots"),
        # nonzero couplings below the smallest width
        (["--g-vertical", "1e-151"], "g_vertical"),
        ({"g_horizontal": 5e-324}, "g_horizontal"),
        # numbers written as JSON strings
        ({"shots": "100"}, "shots"),
        ({"seed": " 7 "}, "seed"),
        ({"s": "0.5"}, "s"),
        ({"g_vertical": "0.01"}, "g_vertical"),
        # JSON values of the wrong type
        ({"s": [1.0]}, "s"),
        ({"shots": None}, "shots"),
        ({"seed": {}}, "seed"),
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
    config = parse_config(["--g-vertical", "1e-150", "--g-horizontal", "1e-150"])
    assert config.g_vertical == config.g_horizontal == 1e-150


def test_seed_range_edges_accepted():
    assert parse_config(["--seed", "0"]).seed == 0
    assert parse_config(["--seed", str(2**64 - 1)]).seed == 2**64 - 1


def test_largest_shot_count_accepted():
    assert parse_config(["--shots", str(2**63 - 1)]).shots == 2**63 - 1


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
        (["--shots", "9223372036854775809"], "shots"),
        (["--g-vertical", "1e-151"], "g_vertical"),
        (["--preset", "which-path", "--g-vertical", "5e-324"], "g_vertical"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"cheshire: {key}:")


@pytest.mark.parametrize("key", ["s", "g_vertical", "g_horizontal"])
def test_oversized_config_numbers_exit_2(tmp_path, capsys, key):
    # A JSON integer beyond the float range is a usage error, not an OverflowError.
    out_dir = tmp_path / "out"
    assert main([*config_argv(tmp_path / "big.json", {key: 10**400}), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"cheshire: {key}:")
    # Past Python's 4300-digit limit json.load itself refuses the integer
    # (Pythons without the limit parse it, and it overflows as above).
    huge = tmp_path / "huge.json"
    huge.write_text(f'{{"{key}": {"1" * 5000}}}')
    assert main(["--config", str(huge), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith((f"cheshire: config: cannot read {huge}: ", f"cheshire: {key}:"))
    assert not out_dir.exists()


def test_default_coupling_error_names_the_preset_default(capsys):
    # joint-strong couples at 10 * s by default, so its widths end at 1e149;
    # the error says the coupling came from that default, not from a flag.
    assert parse_config(["--preset", "joint-strong", "--s", "1e149"]).g_vertical == 1e150
    assert main(["--preset", "joint-strong", "--s", "1e150"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cheshire: g_vertical: the joint-strong default coupling 10 * s")
    assert "s <= 1e+149" in err
    config = parse_config(["--preset", "joint-strong", "--s", "1e150", "--g-vertical", "1", "--g-horizontal", "1"])
    assert config.s == 1e150


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
    assert summary["diagnostics"]["stream_version"] == 4
    assert set(summary["diagnostics"]["versions"]) == {"cheshire", "numpy", "python"}
    assert summary["diagnostics"]["versions"]["numpy"] == np.__version__


#: The readout envelope each preset's mixture gets at its own coupling/width.
PRESET_ENVELOPES = {
    "weak-cheshire": "centre",
    "smile-only": "centre",
    "which-path": "midpoint",
    "joint-strong": "midpoint",
}


@pytest.mark.parametrize(
    "preset, acceptance",
    [("weak-cheshire", 0.976), ("smile-only", 0.990), ("which-path", 1.0), ("joint-strong", 1.0)],
)
def test_summary_reports_sampler_acceptance(tmp_path, preset, acceptance):
    assert main(["--preset", preset, "--shots", "4000", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    summary = read_summary(tmp_path / "summary.json")
    sampler = summary["diagnostics"]["sampler"]
    assert sampler["envelope"] == PRESET_ENVELOPES[preset]
    assert sampler["accepted"] == summary["estimated"]["d1_count"]
    assert sampler["observed_acceptance"] == sampler["accepted"] / sampler["attempts"]
    expected = sampler["expected_acceptance"]
    assert expected == pytest.approx(acceptance, abs=5e-4)
    sigma = math.sqrt(expected * (1 - expected) / sampler["attempts"])
    assert abs(sampler["observed_acceptance"] - expected) <= 5 * sigma + 1e-12


@pytest.mark.parametrize("preset", [*PRESETS, "sweep"])
def test_summary_checks_are_within_5_sigma(tmp_path, preset):
    shots = 4000
    assert main(["--preset", preset, "--shots", str(shots), "--seed", "17", "--out-dir", str(tmp_path)]) == 0
    runs = sorted(tmp_path.glob("g_over_s_*")) if preset == "sweep" else [tmp_path]
    assert runs
    for run in runs:
        summary = read_summary(run / "summary.json")
        expected, estimated = summary["expected"], summary["estimated"]
        checks = summary["diagnostics"]["checks"]
        p = expected["success_probability"]
        assert checks["post_rate_z"] == pytest.approx(
            (estimated["post_rate"] - p) / math.sqrt(p * (1 - p) / shots), rel=1e-12
        )
        assert abs(checks["post_rate_z"]) < 5
        assert set(checks["mean_z"]) == set(expected["pointer_mean"])
        for axis, z in checks["mean_z"].items():
            stderr = math.sqrt(expected["pointer_variance"][axis] / estimated["d1_count"])
            deviation = estimated["means"][axis] - expected["pointer_mean"][axis]
            assert z == pytest.approx(deviation / stderr, rel=1e-12)
            assert abs(z) < 5


def test_estimates_match_numpy_over_the_runs_own_csv(tmp_path):
    # Two chunks: the estimated block against numpy's reductions of the D1
    # rows that the same run wrote to shots.csv.
    shots = 70_000
    assert cli._CHUNK_SHOTS < shots <= 2 * cli._CHUNK_SHOTS
    assert main(["--shots", str(shots), "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    estimated = read_summary(tmp_path / "summary.json")["estimated"]
    assert list(estimated) == ["post_rate", "d1_count", "means", "standard_errors", "mean_over_coupling"]
    with open(tmp_path / "shots.csv", newline="", encoding="ascii") as fh:
        d1 = [row for row in csv.DictReader(fh) if row["detector"] == "D1"]
    assert estimated["d1_count"] == len(d1)
    assert estimated["post_rate"] == len(d1) / shots
    for axis, column in (("vertical", "y"), ("horizontal", "x")):
        values = np.array([float(row[column]) for row in d1])
        stderr = np.std(values, ddof=1) / math.sqrt(len(d1))
        assert estimated["means"][axis] == pytest.approx(np.mean(values), rel=1e-12, abs=0)
        assert estimated["standard_errors"][axis] == pytest.approx(stderr, rel=1e-12, abs=0)


def test_single_run_analyzes_once(tmp_path, monkeypatch):
    calls = []
    grams = []
    compute = montecarlo._analyze
    overlap_matrix = pointer._overlap_matrix

    def counting_analyze(experiment):
        calls.append(experiment)
        return compute(experiment)

    def counting_overlaps(displacements, widths):
        grams.append(displacements)
        return overlap_matrix(displacements, widths)

    monkeypatch.setattr(montecarlo, "_analyze", counting_analyze)
    monkeypatch.setattr(pointer, "_overlap_matrix", counting_overlaps)
    monkeypatch.setattr(montecarlo, "_overlap_matrix", counting_overlaps)
    assert main(["--preset", "weak-cheshire", "--shots", "300", "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    # One Gram matrix serves the detector probabilities and the mixture.
    assert len(grams) == 1


def reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which JSON does not allow")


@pytest.mark.parametrize("preset", [*PRESETS, "sweep"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--s", "1e-150"],
        ["--s", "1e149"],
        ["--s", "1e150", "--g-vertical", "1e-150", "--g-horizontal", "1e-150"],
        ["--s", "1e-150", "--g-vertical", "1e150", "--g-horizontal", "1e150"],
        ["--s", "1e150", "--g-vertical", "1e150", "--g-horizontal", "1e150"],
    ],
)
def test_summaries_at_the_range_edges_are_strict_json(tmp_path, preset, argv):
    # A subnormal coupling once gave mean_over_coupling -Infinity.
    assert main(["--preset", preset, "--shots", "3000", "--out-dir", str(tmp_path), *argv]) == 0
    summaries = list(tmp_path.rglob("summary.json"))
    assert len(summaries) == (4 if preset == "sweep" else 1)
    for path in summaries:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)


def test_extreme_coupling_over_width_runs_quietly(tmp_path, capsys):
    # g/s = 1e160 overflows the Gaussian exponents; exp(-inf) = 0 is exact.
    argv = ["--g-vertical", "1e10", "--s", "1e-150", "--shots", "2000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_checks_without_a_standard_error_are_null(tmp_path, capsys):
    # which-path keeps one branch; at g/s = 1e9 its variance g^2 + s^2 - g^2 rounds to 0.
    argv = ["--preset", "which-path", "--g-vertical", "1e9", "--shots", "2000", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    summary = read_summary(tmp_path / "summary.json")
    assert summary["expected"]["pointer_variance"]["vertical"] == 0.0
    assert summary["diagnostics"]["checks"]["mean_z"] == {"vertical": None}
    assert abs(summary["diagnostics"]["checks"]["post_rate_z"]) < 5


@pytest.mark.parametrize(
    "deviation, variance, count",
    [(1.0, 0.0, 10), (1.0, -1e-300, 10), (1.0, math.inf, 10), (1.0, math.nan, 10), (1e300, 1e-300, 1), (0.0, 5e-324, 10)],
)
def test_z_score_is_null_without_a_finite_standard_error(deviation, variance, count):
    assert cli._z_score(deviation, variance, count) is None


def test_expected_summary_reuses_the_memoised_analysis(monkeypatch):
    calls = []
    compute = montecarlo._analyze

    def counting_analyze(experiment):
        calls.append(experiment)
        return compute(experiment)

    monkeypatch.setattr(montecarlo, "_analyze", counting_analyze)
    config = run_config(Path("."))
    experiment = build_experiment(config)
    first = expected_summary(config, experiment)
    analysis = analyze(experiment)
    assert expected_summary(config, experiment) == first
    assert analyze(experiment) is analysis
    assert calls == [experiment]


REFERENCE_SCAN = Path(__file__).resolve().parents[1] / "perfbench" / "reference_scan.json"


def assert_matches_reference(got, want, path="expected"):
    """``got`` equals the recorded ``want`` to 1e-12 relative + 1e-15 absolute, as perfbench checks it."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            assert_matches_reference(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
        assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)) + 1e-15, (path, got, want)
    else:
        assert got == want, path


def test_expected_summary_matches_the_recorded_scan():
    reference = json.loads(REFERENCE_SCAN.read_text(encoding="utf-8"))
    width = reference["width"]
    for preset, table in reference["couplings"].items():
        for index in range(0, len(table["g_over_s"]), 8):
            g = table["g_over_s"][index] * width
            config = ExperimentConfig(
                preset=preset, g_vertical=g, g_horizontal=g, s=width, shots=1, seed=0, out_dir=Path(".")
            )
            want = {**table["shared"], **table["points"][index]}
            del want["density_sum"]
            assert_matches_reference(expected_summary(config, build_experiment(config)), want, f"{preset}[{index}]")


def test_separately_built_experiments_give_bit_equal_summaries():
    for preset in PRESETS:
        config = run_config(Path("."), preset=preset)
        first, second = build_experiment(config), build_experiment(config)
        assert first is not second
        # json text compares floats bit for bit (repr) and keeps key order
        assert json.dumps(expected_summary(config, first)) == json.dumps(expected_summary(config, second))


def test_edited_summary_does_not_change_the_next():
    config = run_config(Path("."))
    summary = expected_summary(config, build_experiment(config))
    pristine = json.dumps(summary)
    summary["weak_values"]["photon_in_arm1"]["re"] = 42.0
    summary["abl"]["photon_in_arm1"].clear()
    summary["weak_values"].clear()
    assert json.dumps(expected_summary(config, build_experiment(config))) == pristine


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
    # One readout row per D1 shot, in shot order.
    assert batch.readout.shape == (np.count_nonzero(batch.detector == 1), 2)
    readouts = iter(batch.readout.tolist())
    assert batch.first_shot == 0
    for shot_id, (row, code) in enumerate(zip(rows[1:], batch.detector.tolist())):
        assert int(row[0]) == shot_id
        assert row[1] == f"D{code}"
        if code == 1:
            # vertical pointer first in the preset, horizontal second
            readout = next(readouts)
            assert row[3] == repr(readout[0])
            assert row[2] == repr(readout[1])
        else:
            assert row[2] == "" and row[3] == ""
    assert next(readouts, None) is None


def csv_reference(batch, experiment) -> bytes:
    """``shots.csv`` of ``batch`` as ``csv.writer`` writes it: str(shot_id), the detector and repr of each readout.

    The D1 shots take the readout rows in order, and every row is used.
    """
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["shot_id", "detector", "x", "y"])
    readouts = iter(batch.readout.tolist())
    for shot_id, code in enumerate(batch.detector.tolist(), start=batch.first_shot):
        by_axis = dict(zip(experiment.axes(), next(readouts))) if code == 1 else {}
        fields = [repr(by_axis[axis]) if axis in by_axis else "" for axis in (Axis.HORIZONTAL, Axis.VERTICAL)]
        writer.writerow([shot_id, f"D{code}", *fields])
    assert next(readouts, None) is None
    return fh.getvalue().encode("ascii")


#: D1 readouts on both sides of the exact window of ``cli._readout_text`` and
#: at its edges: zeros, subnormals, exponent forms, 16-digit integer parts.
EDGE_READOUTS = (
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-05, -9.999999999999999e-05, 1e-4, 0.000123, -0.001,
    0.5, 2.5, -1.0, 100.0, 1234567890123.5, 1e15, -1234567890123456.0, 4503599627370495.5,
    4503599627370496.0, -9007199254740992.0, 9999999999999998.0, 1e16, -1.7976931348623157e308, 1e-300,
)


#: Shots in an edge batch: every other one is D1 and takes one row of ``EDGE_READOUTS``.
EDGE_SHOTS = 2 * len(EDGE_READOUTS)
#: First shots of the edge batches: 0, two below each power of ten from 10
#: to 10**18, so that each change of digit count falls inside a batch and
#: inside a 5-row block; ranges across multiples of 10**4 that are not
#: powers of ten, where the ids' high digits change but not their count,
#: inside a 5-row block (29,998 and 10**12 + 9,998) and on its edge
#: (29,995); and the range that ends at the largest id, 2**63 - 1.
EDGE_FIRST_SHOTS = (
    0, *(10**k - 2 for k in range(1, 19)), 29_998, 29_995, 10**12 + 9_998, 2**63 - EDGE_SHOTS
)


def edge_batch(experiment, first_shot: int) -> ShotBatch:
    """Shots ``first_shot ..``, half of them D1, whose readouts on each axis run through ``EDGE_READOUTS``."""
    readings = np.array(EDGE_READOUTS)
    detector = np.resize(np.array([1, 2, 1, 3], dtype=np.uint8), EDGE_SHOTS)
    readout = np.empty((readings.size, len(experiment.couplings)))
    for axis in range(readout.shape[1]):
        readout[:, axis] = np.roll(readings, 5 * axis)
    return ShotBatch(first_shot=first_shot, detector=detector, readout=readout)


def write_csv(batches, experiment) -> bytes:
    """``shots.csv`` as ``cli.write_shots_csv`` writes ``batches``, one call each, after the header."""
    fh = io.BytesIO()
    fh.write(cli._CSV_HEADER)
    for batch in batches:
        cli.write_shots_csv(fh, batch, experiment)
    return fh.getvalue()


def test_csv_bytes_match_the_csv_module(tmp_path, monkeypatch):
    # The byte format of shots.csv: csv.writer rows of str(shot_id), the
    # detector name and repr of each Python float readout, x horizontal and
    # y vertical, for every column layout, across chunk boundaries and
    # across write blocks inside a chunk: batches one row short of, equal
    # to and one row over a block, and a 600-row batch of 120 blocks.
    # Digit passes of 1 and 3 values and of one D1 row (the axis count) end
    # inside a block, on its edge and on a chunk's edge; the default pass
    # holds a whole batch.
    default_rows, default_values = cli._WRITE_ROWS, cli._PASS_VALUES
    monkeypatch.setattr(cli, "_WRITE_ROWS", 5)
    chunks = (cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1, 7, cli._CHUNK_SHOTS)
    for preset in ("weak-cheshire", "which-path", "smile-only", "joint-strong"):
        config = run_config(tmp_path, preset=preset, shots=600)
        experiment = build_experiment(config)
        batch = sample_shots(experiment, config.shots, config.seed, first_shot=2**40 - 300)
        assert (batch.detector == 1).any()
        reference = csv_reference(batch, experiment)
        for chunk in chunks:
            shards = [
                sample_shots(experiment, min(chunk, config.shots - start), config.seed, first_shot=2**40 - 300 + start)
                for start in range(0, config.shots, chunk)
            ]
            for values in (1, 3, len(experiment.axes()), default_values):
                monkeypatch.setattr(cli, "_PASS_VALUES", values)
                assert write_csv(shards, experiment) == reference, (preset, chunk, values)
    # Hand-built batches of edge readouts, which take the repr path and both
    # ends of the exact window, with shot ids of 1 to 19 digits, and a
    # pointer-free experiment, whose D1 rows are ",D1,,", in blocks of 5
    # rows and of the default size.
    pre, _ = cheshire.canonical_states()
    experiments = [build_experiment(run_config(tmp_path, preset=preset)) for preset in PRESETS]
    experiments.append(cheshire.Experiment(pre=pre, couplings=()))
    for experiment in experiments:
        for first_shot in EDGE_FIRST_SHOTS:
            batch = edge_batch(experiment, first_shot)
            reference = csv_reference(batch, experiment)
            for rows in (5, default_rows):
                monkeypatch.setattr(cli, "_WRITE_ROWS", rows)
                for values in (1, 3, len(experiment.axes()), default_values):
                    monkeypatch.setattr(cli, "_PASS_VALUES", values)
                    assert write_csv([batch], experiment) == reference, (rows, values, experiment.axes(), first_shot)
    assert b"\n0,D1,,\n" in csv_reference(edge_batch(experiment, 0), experiment)  # the pointer-free rows
    assert reference.endswith(b"\n9223372036854775807,D2,,\n")  # the largest id, written exactly


def test_writer_and_estimates_reject_a_record_of_another_experiment():
    # A weak-cheshire batch written against which-path glued its two
    # readouts into one field, the reverse raised a bare reshape error, and
    # a one-axis tally summarised against weak-cheshire returned one axis.
    # Each pair of axis counts now raises before anything is written.  The
    # writer's own batch raises TypeError on a text handle, since shots.csv
    # is written as bytes, and again nothing is written.
    pre, _ = cheshire.canonical_states()
    experiments = [build_experiment(parse_config(["--preset", preset])) for preset in ("weak-cheshire", "which-path")]
    experiments.append(cheshire.Experiment(pre=pre, couplings=()))
    for drawn in experiments:
        batch = sample_shots(drawn, 200, seed=3)
        tally = cheshire.Tally(len(drawn.couplings))
        tally.add(batch)
        assert tally.d1_count >= 2
        text = io.StringIO()
        with pytest.raises(TypeError):
            cli.write_shots_csv(text, batch, drawn)
        assert text.getvalue() == ""
        for other in experiments:
            have, want = len(drawn.couplings), len(other.couplings)
            if have == want:
                continue
            fh = io.BytesIO()
            with pytest.raises(ValueError, match=f"^batch has {have} readout axes, the experiment {want}$"):
                cli.write_shots_csv(fh, batch, other)
            assert fh.getvalue() == b""
            with pytest.raises(ValueError, match=f"^tally has {have} readout axes, the experiment {want}$"):
                cli.estimated_summary(tally, other)


@pytest.mark.parametrize("preset", ["weak-cheshire", "which-path"])
def test_a_20k_shot_run_formats_its_readouts_in_at_most_two_passes(tmp_path, monkeypatch, preset):
    # Each digit pass costs a fixed ~0.1 ms of numpy calls, so a pass covers
    # many write blocks: a 20k-shot run has 10 blocks but 5k (which-path)
    # or 10k (weak-cheshire) readout values.
    calls, readout_text = [], cli._readout_text

    def counted(x):
        calls.append(x.size)
        return readout_text(x)

    monkeypatch.setattr(cli, "_readout_text", counted)
    assert main(["--preset", preset, "--shots", "20000", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    assert 1 <= len(calls) <= 2, calls
    assert max(calls) <= cli._PASS_VALUES


def test_csv_writer_holds_one_block_of_text():
    # Writing a whole chunk holds one pass of digits and one block of rows
    # at a time, not the chunk's text (a chunk formatted at once peaks near
    # 8 MB).
    for preset in ("weak-cheshire", "which-path", "smile-only", "joint-strong"):
        experiment = build_experiment(parse_config(["--preset", preset]))
        batch = sample_shots(experiment, cli._CHUNK_SHOTS, seed=0)
        with open(os.devnull, "wb") as fh:
            tracemalloc.start()
            try:
                cli.write_shots_csv(fh, batch, experiment)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2e6, (preset, peak)


def assert_close(value, reference, path="summary"):
    """Equal JSON values, except that floats need only agree to 1e-12 relative."""
    if isinstance(reference, dict):
        assert list(value) == list(reference), path
        for key in reference:
            assert_close(value[key], reference[key], f"{path}.{key}")
    elif isinstance(reference, list):
        assert len(value) == len(reference), path
        for k, (item, expected) in enumerate(zip(value, reference)):
            assert_close(item, expected, f"{path}[{k}]")
    elif isinstance(reference, float):
        assert value == pytest.approx(reference, rel=1e-12, abs=0), path
    else:
        assert value == reference, path


@pytest.mark.parametrize("preset", [*PRESETS, "sweep"])
def test_chunking_leaves_the_outputs_unchanged(tmp_path, monkeypatch, preset):
    # One 1500-shot chunk against chunks of 7: the same shots.csv bytes, and
    # summaries equal up to the rounding of the merged means and M2.
    argv = ["--preset", preset, "--shots", "1500", "--seed", "9", "--out-dir"]
    one, many = tmp_path / "one", tmp_path / "many"
    assert main([*argv, str(one)]) == 0
    monkeypatch.setattr(cli, "_CHUNK_SHOTS", 7)
    assert main([*argv, str(many)]) == 0
    files = sorted(path.relative_to(one) for path in one.rglob("*"))
    assert files == sorted(path.relative_to(many) for path in many.rglob("*"))
    assert len([path for path in files if path.name == "shots.csv"]) == (3 if preset == "sweep" else 1)
    for path in files:
        if path.name == "shots.csv":
            assert (many / path).read_bytes() == (one / path).read_bytes(), path
        elif path.name == "summary.json":
            text = (many / path).read_text(encoding="utf-8").replace(str(many), str(one))
            assert_close(json.loads(text), read_summary(one / path))


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


def test_joint_strong_abl_tables_are_each_observable_measured_alone(observables, pre_post):
    # joint-strong measures both observables strongly, so its shots follow
    # the joint table; each `abl` table is its observable measured alone.
    config = parse_config(["--preset", "joint-strong"])
    expected = expected_summary(config, build_experiment(config))
    assert expected["abl"]["photon_in_arm1"] == {"1": 1.0, "0": 0.0}
    assert expected["abl"]["angular_momentum_arm2"] == pytest.approx({"1": 1 / 6, "-1": 1 / 6, "0": 2 / 3}, abs=1e-12)
    joint = sequential_distribution(
        [observables["photon_in_arm1"], observables["angular_momentum_arm2"]], *pre_post
    )
    assert joint.outcomes == pytest.approx({(1.0, 0.0): 2 / 3, (0.0, 1.0): 1 / 6, (0.0, -1.0): 1 / 6}, abs=1e-12)
    assert joint.success_probability == pytest.approx(0.375, abs=1e-12)
    assert expected["success_probability"] == pytest.approx(joint.success_probability, abs=1e-12)
    # The vertical pointer reads the joint marginal P(arm 1) = 2/3, not 1.
    assert expected["pointer_mean_over_coupling"]["vertical"] == pytest.approx(2 / 3, abs=1e-9)


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
    # The run builds each point's weak-cheshire experiment; the sweep config itself builds none.
    with pytest.raises(ValueError, match="sweep is an orchestration preset"):
        build_experiment(parse_config(["--preset", "sweep"]))


def test_sweep_weak_limit_error_matches_mpmath_oracle(tmp_path):
    # |mean/g - 1| of the rounded ratio was off by up to 1.4e-9 relative at
    # g/s = 1e-3; the sweep now reports the error to a few ulp.
    assert main(["--preset", "sweep", "--shots", "400", "--out-dir", str(tmp_path)]) == 0
    points = read_summary(tmp_path / "summary.json")["estimated"]["points"]
    for point in points:
        g = point["g_over_s"]
        config = parse_config(["--g-vertical", str(g), "--g-horizontal", str(g)])
        mixture = analyze(build_experiment(config)).mixture
        for k, axis in enumerate(mixture.axes):
            exact = oracle_weak_limit_error(mixture, k, g, 1.0)
            assert point["weak_limit_error"][axis.value] == pytest.approx(exact, rel=1e-14, abs=0)


def test_runtime_failures_exit_1(tmp_path, capsys):
    # far too few shots for an estimate
    assert main(["--shots", "1", "--out-dir", str(tmp_path / "tiny")]) == 1
    assert "cheshire:" in capsys.readouterr().err
    # unwritable output location (parent is a file)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--shots", "50", "--out-dir", str(blocker / "sub")]) == 1


def test_unallocatable_shot_count_exits_1(tmp_path, capsys):
    # 1e15 shots need at least 7 PB of shots.csv: the run is refused at once.
    assert main(["--shots", str(10**15), "--out-dir", str(tmp_path / "huge")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cheshire: cannot write outputs:")
    assert "7000000000000000 bytes" in err
    assert not (tmp_path / "huge").exists()


def assert_no_shots_csv(out_dir: Path) -> None:
    assert not (out_dir / "shots.csv").exists()
    assert not (out_dir / "shots.csv.partial").exists()


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    # The second of two chunks fails to allocate: the run exits 1 and removes its rows.
    calls = []

    def failing_sample_shots(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError()
        return sample_shots(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_shots", failing_sample_shots)
    out_dir = tmp_path / "oom"
    assert main(["--shots", "70000", "--out-dir", str(out_dir)]) == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == "cheshire: out of memory: allocation failed\n"
    assert_no_shots_csv(out_dir)


def test_failed_runs_leave_no_shots_csv(tmp_path, monkeypatch, capsys):
    # Too few D1 shots, a near-null post-selection and too little free space
    # all exit 1; rows go to shots.csv.partial, which a failure removes.
    assert main(["--shots", "1", "--out-dir", str(tmp_path / "tiny")]) == 1
    assert "post-selected shots" in capsys.readouterr().err
    assert_no_shots_csv(tmp_path / "tiny")
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "MIN_ACCEPTANCE", 0.99)
        assert main(["--shots", "200", "--out-dir", str(tmp_path / "low")]) == 1
    assert "acceptance" in capsys.readouterr().err
    assert_no_shots_csv(tmp_path / "low")
    disk_usage = shutil.disk_usage
    with monkeypatch.context() as patch:
        patch.setattr(shutil, "disk_usage", lambda path: disk_usage(path)._replace(free=7 * 1000 - 1))
        assert main(["--shots", "1000", "--out-dir", str(tmp_path / "full")]) == 1
        assert "7000 bytes" in capsys.readouterr().err
        assert not (tmp_path / "full").exists()
        # 7 bytes a row is the floor the check holds a run to
        assert main(["--shots", "999", "--out-dir", str(tmp_path / "fits")]) == 0
        assert (tmp_path / "fits" / "shots.csv").exists()


def test_interrupted_run_leaves_no_shots_csv(tmp_path, monkeypatch):
    # Ctrl-C (or any exception) in a later chunk removes the partial file.
    write = cli.write_shots_csv
    chunks = []

    def interrupt_on_second_chunk(fh, batch, experiment):
        chunks.append(len(batch))
        if len(chunks) == 2:
            raise KeyboardInterrupt
        write(fh, batch, experiment)

    monkeypatch.setattr(cli, "_CHUNK_SHOTS", 50)
    monkeypatch.setattr(cli, "write_shots_csv", interrupt_on_second_chunk)
    with pytest.raises(KeyboardInterrupt):
        main(["--shots", "200", "--out-dir", str(tmp_path / "run")])
    assert chunks == [50, 50]
    assert_no_shots_csv(tmp_path / "run")
    assert not (tmp_path / "run" / "summary.json").exists()


def assert_no_outputs(out_dir: Path) -> None:
    assert_no_shots_csv(out_dir)
    assert not (out_dir / "summary.json").is_file()
    assert not (out_dir / "summary.json.partial").exists()


def test_interrupted_summary_write_leaves_no_outputs(tmp_path, monkeypatch):
    # Ctrl-C while summary.json is written removes shots.csv and the
    # truncated summary, in a single run and in the sweep's aggregate.
    dumps = []

    def interrupt_after_key(obj, fh, **kwargs):
        dumps.append(fh.name)
        if len(dumps) == interrupted_dump:
            fh.write('{"config": ')
            raise KeyboardInterrupt
        json_dump(obj, fh, **kwargs)

    json_dump = json.dump
    monkeypatch.setattr(json, "dump", interrupt_after_key)
    interrupted_dump = 1
    with pytest.raises(KeyboardInterrupt):
        main(["--shots", "200", "--out-dir", str(tmp_path / "run")])
    assert_no_outputs(tmp_path / "run")
    dumps.clear()
    interrupted_dump = 4  # the aggregate, after the three points
    with pytest.raises(KeyboardInterrupt):
        main(["--preset", "sweep", "--shots", "200", "--out-dir", str(tmp_path / "sweep")])
    assert dumps[-1] == str(tmp_path / "sweep" / "summary.json.partial")
    assert not (tmp_path / "sweep" / "summary.json").exists()
    assert not (tmp_path / "sweep" / "summary.json.partial").exists()
    assert (tmp_path / "sweep" / "g_over_s_0.1" / "shots.csv").exists()


def test_unwritable_summary_leaves_no_shots_csv(tmp_path, capsys):
    # A summary.json that is a directory cannot be replaced: the run exits 1
    # and removes the shots.csv it had already renamed.
    out_dir = tmp_path / "run"
    (out_dir / "summary.json").mkdir(parents=True)
    assert main(["--shots", "200", "--out-dir", str(out_dir)]) == 1
    assert "cannot write outputs" in capsys.readouterr().err
    assert_no_outputs(out_dir)
    assert (out_dir / "summary.json").is_dir()


def test_low_acceptance_exits_1(tmp_path, monkeypatch, capsys):
    # weak-cheshire accepts 0.976 of its readout proposals; a floor above
    # that stands in for a near-null post-selection.
    monkeypatch.setattr(montecarlo, "MIN_ACCEPTANCE", 0.99)
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


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter that imports this package, and assert it exits 0."""
    path = [str(Path(cheshire.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def assert_fresh_run_leaves_unloaded(prefix: str, out_dir: Path) -> None:
    """Import the package and CLI in a fresh interpreter, run 500 shots, and assert no module named ``prefix``* loaded."""
    run_fresh(
        "import sys\n"
        "import cheshire, cheshire.cli\n"
        f"code = cheshire.cli.main(['--shots', '500', '--seed', '3', '--out-dir', {str(out_dir)!r}])\n"
        "assert code == 0, code\n"
        f"loaded = sorted(name for name in sys.modules if name.startswith({prefix!r}))\n"
        "assert not loaded, loaded\n"
    )
    assert (out_dir / "shots.csv").exists()


def test_runs_do_not_load_numpy_random(tmp_path):
    # numpy does not import numpy.random itself, and loading it costs a
    # process 13-15 ms and 6.3 MB of RSS (measured), so the package and a
    # CLI run must not pull it in.
    assert_fresh_run_leaves_unloaded("numpy.random", tmp_path / "run")


def test_runs_do_not_load_dataclasses(tmp_path):
    # numpy does not import dataclasses, and importing it plus generating
    # the methods of the package's twelve record classes cost 8-13 ms of
    # set-up (measured), so the package defines its records without it.
    assert_fresh_run_leaves_unloaded("dataclasses", tmp_path / "run")


@pytest.mark.parametrize("preset", ["weak-cheshire", "which-path"])
def test_runs_load_no_module_after_set_up(preset, tmp_path):
    # Set-up is importing the CLI and parsing a config; a run after it
    # imports nothing.  A module first imported by the run is a fixed cost
    # of every run: opening shots.csv with encoding="ascii" imported
    # encodings.ascii, 0.51-0.67 ms of a 3-4 ms 64-shot run (measured).
    out_dir = tmp_path / "run"
    run_fresh(
        "import sys\n"
        "import cheshire.cli\n"
        f"argv = ['--preset', {preset!r}, '--shots', '64', '--seed', '3', '--out-dir', {str(out_dir)!r}]\n"
        "cheshire.cli.parse_config(argv)\n"
        "before = set(sys.modules)\n"
        "code = cheshire.cli.main(argv)\n"
        "assert code == 0, code\n"
        "added = sorted(set(sys.modules) - before)\n"
        "assert not added, added\n"
    )
    assert (out_dir / "shots.csv").exists()


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["weak-cheshire", "which-path", "smile-only", "joint-strong"])
def test_check_z_scores_are_standard_normal_over_seeds(preset):
    # Each z of `checks` should be N(0, 1) over seeds.  The gate is the KS
    # statistic at alpha ~ 0.001 (sqrt(m) D < 1.95), fixed before measuring:
    # a bound on the sample sd would trip on ordinary 400-seed batches.
    config = parse_config(["--preset", preset])
    experiment = build_experiment(config)
    expected = expected_summary(config, experiment)
    zs = {}
    for seed in range(400):
        tally = montecarlo.Tally(len(experiment.couplings))
        tally.add(sample_shots(experiment, 20_000, seed))
        checks = cli._checks(expected, cli.estimated_summary(tally, experiment), tally.n_shots)
        for name, z in [("post_rate", checks["post_rate_z"]), *checks["mean_z"].items()]:
            zs.setdefault(name, []).append(z)
    assert set(zs) == {"post_rate", *(axis.value for axis in experiment.axes())}
    for name, values in zs.items():
        assert None not in values, name
        assert math.sqrt(len(values)) * ks_normal(values) < 1.95, name


@pytest.mark.slow
def test_peak_memory_does_not_grow_with_shots(tmp_path):
    # A run holds one chunk whatever its shot count.  VmHWM is the child's
    # own peak; ru_maxrss would carry over the peak of the spawning pytest.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    script = (
        "import sys\n"
        "import cheshire.cli\n"
        "code = cheshire.cli.main(['--shots', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "assert code == 0, code\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    path = [str(Path(cheshire.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    peaks = {}
    for shots in (100_000, 2_000_000):
        result = subprocess.run(
            [sys.executable, "-c", script, str(shots), str(tmp_path / str(shots))],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        peaks[shots] = int(result.stdout) / 1024  # kB to MB
    assert peaks[2_000_000] - peaks[100_000] < 8, peaks
