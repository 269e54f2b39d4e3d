"""Command-line front end: presets, config handling, CSV/JSON outputs.

``cheshire --preset weak-cheshire --shots 100000 --out-dir out`` runs one
experiment and writes two files into the output directory:

- ``shots.csv`` with header ``shot_id,detector,x,y``; ``x`` is the
  horizontal readout, ``y`` the vertical one, both empty for shots that did
  not reach D1 (and for axes the preset does not couple).  Floats use
  ``repr`` (shortest round-trip form), so identical configs give
  byte-identical files.  A row is the shot id followed by a tail that is a
  constant off D1 and one f-string of the readouts on D1; calling ``repr``
  on each readout is the floor of the writer's cost.
- ``summary.json`` with keys ``config`` (the fully resolved configuration),
  ``expected`` (analytic weak values as {re, im} pairs, conditional outcome
  tables, pointer moments -- never derived from the samples), ``estimated``
  (post_rate, per-axis means and standard errors) and ``diagnostics``
  (g/s per axis, branch count, ``stream_version``, the cheshire, numpy and
  python ``versions`` that byte identity depends on, and the readout
  ``sampler`` attempts, accepted count and expected against observed
  acceptance).

Presets: ``weak-cheshire`` couples a which-path probe (vertical axis) and an
arm-2 angular-momentum probe (horizontal axis), both weak; ``which-path``
and ``smile-only`` couple one of them; ``joint-strong`` runs both at
coupling/width = 10; ``sweep`` repeats weak-cheshire at coupling/width
ratios 0.1, 0.01, 0.001 (one subdirectory each) and aggregates the
convergence of mean/coupling toward the weak values.

Exit codes: 0 success, 1 runtime failure (impossible or near-null
post-selection, too few post-selected shots, I/O), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .montecarlo import (
    STREAM_VERSION,
    Experiment,
    ExperimentAnalysis,
    InsufficientData,
    LowAcceptance,
    ShotBatch,
    SummaryStats,
    analyze,
    estimate,
    readout_acceptance,
    sample_shots,
)
from .pointer import Axis, GaussianPointer, NullPostSelection, mixture_moments
from .postselect import abl_distribution, weak_value
from .qstate import canonical_observables, canonical_states, observable_operator

DEFAULT_PRESET = "weak-cheshire"
DEFAULT_WIDTH = 1.0
DEFAULT_SHOTS = 100_000
DEFAULT_SEED = 0
DEFAULT_OUT_DIR = "out"
SWEEP_RATIOS = (1e-1, 1e-2, 1e-3)
#: Accepted pointer widths s.  Inside this range s**2, 1/s**2 and the
#: two-axis density normalisation 1/(2 pi s**2) are normal float64 numbers.
#: Couplings are capped at its upper end, so squared displacements are finite.
WIDTH_RANGE = (1e-150, 1e150)


class UsageError(Exception):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class _Preset:
    couplings: tuple[tuple[str, Axis], ...]  # (canonical observable name, axis)
    default_ratio: float  # coupling/width when no explicit coupling is given


PRESETS: dict[str, _Preset] = {
    "weak-cheshire": _Preset(
        (("photon_in_arm1", Axis.VERTICAL), ("angular_momentum_arm2", Axis.HORIZONTAL)), 1e-2
    ),
    "which-path": _Preset((("photon_in_arm1", Axis.VERTICAL),), 1e-2),
    "smile-only": _Preset((("angular_momentum_arm2", Axis.HORIZONTAL),), 1e-2),
    "joint-strong": _Preset(
        (("photon_in_arm1", Axis.VERTICAL), ("angular_momentum_arm2", Axis.HORIZONTAL)), 10.0
    ),
}

#: Weak values reported in every summary.
_REPORTED_WEAK_VALUES = (
    "photon_in_arm1",
    "photon_in_arm2",
    "angular_momentum_arm1",
    "angular_momentum_arm2",
)


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    g_vertical: float
    g_horizontal: float
    s: float
    shots: int
    seed: int
    out_dir: Path

    def as_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["out_dir"] = str(self.out_dir)
        return values


#: Config-file keys and flag destinations, in ``summary.json`` order.
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cheshire",
        description="Simulate pre- and post-selected photon experiments with pointer readouts.",
    )
    parser.add_argument("--preset", help=f"experiment preset (default {DEFAULT_PRESET})")
    parser.add_argument("--g-vertical", type=float, help="vertical coupling displacement")
    parser.add_argument("--g-horizontal", type=float, help="horizontal coupling displacement")
    parser.add_argument("--s", type=float, help="pointer width (default 1.0)")
    parser.add_argument("--shots", type=int, help=f"number of photons (default {DEFAULT_SHOTS})")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--out-dir", help=f"output directory (default {DEFAULT_OUT_DIR})")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def parse_config(argv: Sequence[str] | None = None) -> ExperimentConfig:
    """Resolve flags, optional config file, and defaults into a validated config.

    Precedence: flags > config-file values > defaults.  Unknown config-file
    keys and wrongly typed, non-finite or out-of-range values raise
    UsageError naming the offending key.
    """
    args = _build_parser().parse_args(argv)
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config: file must contain a JSON object")
        for key in file_values:
            if key not in _CONFIG_KEYS:
                raise UsageError(f"config: unknown key {key!r}")
        values.update(file_values)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag

    preset = str(values.get("preset", DEFAULT_PRESET))
    if preset != "sweep" and preset not in PRESETS:
        known = ", ".join([*PRESETS, "sweep"])
        raise UsageError(f"preset: unknown preset {preset!r} (choose from {known})")
    s = _number("s", values.get("s", DEFAULT_WIDTH))
    low, high = WIDTH_RANGE
    if not low <= s <= high:
        raise UsageError(f"s: pointer width must lie in [{low:g}, {high:g}], got {s}")
    shots = _integer("shots", values.get("shots", DEFAULT_SHOTS))
    seed = _integer("seed", values.get("seed", DEFAULT_SEED))
    ratio = PRESETS["weak-cheshire" if preset == "sweep" else preset].default_ratio
    g_vertical = _number("g_vertical", values.get("g_vertical", ratio * s))
    g_horizontal = _number("g_horizontal", values.get("g_horizontal", ratio * s))
    out_dir = values.get("out_dir", DEFAULT_OUT_DIR)
    if shots < 1:
        raise UsageError(f"shots: need at least 1 shot, got {shots}")
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed: must be in [0, 2**64), got {seed}")
    for key, g in (("g_vertical", g_vertical), ("g_horizontal", g_horizontal)):
        if not 0 <= g <= high:
            raise UsageError(f"{key}: coupling must lie in [0, {high:g}], got {g}")
    if not isinstance(out_dir, str):
        raise UsageError(f"out_dir: must be a path string, got {out_dir!r}")
    return ExperimentConfig(
        preset=preset,
        g_vertical=g_vertical,
        g_horizontal=g_horizontal,
        s=s,
        shots=shots,
        seed=seed,
        out_dir=Path(out_dir),
    )


def _number(key: str, value) -> float:
    """A finite float config value; booleans and non-numbers are usage errors naming ``key``."""
    if isinstance(value, bool):
        raise UsageError(f"{key}: must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key}: must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise UsageError(f"{key}: must be finite, got {number}")
    return number


def _integer(key: str, value) -> int:
    """An integer config value; booleans and fractional numbers are usage errors naming ``key``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{key}: must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key}: must be an integer, got {value!r}") from None


def build_experiment(config: ExperimentConfig) -> Experiment:
    """Instantiate the preset's couplings from a resolved config."""
    if config.preset == "sweep":
        raise ValueError("sweep is an orchestration preset; build its points instead")
    observables = canonical_observables()
    pre, _ = canonical_states()
    couplings = []
    for name, axis in PRESETS[config.preset].couplings:
        g = config.g_vertical if axis is Axis.VERTICAL else config.g_horizontal
        couplings.append((observables[name], GaussianPointer(width=config.s, coupling=g, axis=axis)))
    return Experiment(pre=pre, couplings=tuple(couplings))


def _complex_pair(value: complex) -> dict[str, float]:
    return {"re": value.real, "im": value.imag}


def _axis_dict(values: dict[Axis, float | None]) -> dict[str, float | None]:
    return {axis.value: value for axis, value in values.items()}


def expected_summary(
    config: ExperimentConfig, experiment: Experiment, *, analysis: ExperimentAnalysis | None = None
) -> dict:
    """Analytic predictions: computed from the state algebra, never from samples.

    ``analysis`` defaults to ``analyze(experiment)``.
    """
    pre, post = canonical_states()
    observables = canonical_observables()
    weak_values = {
        name: _complex_pair(weak_value(observable_operator(observables[name]), pre, post))
        for name in _REPORTED_WEAK_VALUES
    }
    coupled_names = [name for name, _ in PRESETS[config.preset].couplings]
    abl_tables = {
        name: {f"{value:g}": prob for value, prob in abl_distribution(observables[name], pre, post).outcomes.items()}
        for name in coupled_names
    }
    if analysis is None:
        analysis = analyze(experiment)
    moments = mixture_moments(analysis.mixture) if analysis.mixture is not None else {}
    means: dict[Axis, float | None] = {}
    ratios: dict[Axis, float | None] = {}
    variances: dict[Axis, float | None] = {}
    for _, pointer in experiment.couplings:
        m = moments.get(pointer.axis)
        means[pointer.axis] = m.mean if m else None
        variances[pointer.axis] = m.variance if m else None
        ratios[pointer.axis] = (m.mean / pointer.coupling) if m and pointer.coupling > 0 else None
    return {
        "weak_values": weak_values,
        "abl": abl_tables,
        "success_probability": analysis.success_probability,
        "pointer_mean": _axis_dict(means),
        "pointer_variance": _axis_dict(variances),
        "pointer_mean_over_coupling": _axis_dict(ratios),
    }


def estimated_summary(stats: SummaryStats) -> dict:
    return {
        "post_rate": stats.post_rate,
        "d1_count": stats.d1_count,
        "means": {axis.value: est.mean for axis, est in stats.axes.items()},
        "standard_errors": {axis.value: est.stderr for axis, est in stats.axes.items()},
        "mean_over_coupling": {axis.value: est.mean_over_coupling for axis, est in stats.axes.items()},
    }


def _diagnostics(
    experiment: Experiment, analysis: ExperimentAnalysis, stats: SummaryStats, batch: ShotBatch
) -> dict:
    expected = readout_acceptance(analysis.mixture) if analysis.mixture is not None else None
    return {
        "g_over_s": {
            pointer.axis.value: pointer.coupling / pointer.width
            for pointer in experiment.pointers()
        },
        "branch_count": len(analysis.mixture.weights) if analysis.mixture is not None else 0,
        "stream_version": STREAM_VERSION,
        "versions": {
            "cheshire": __version__,
            "numpy": np.__version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
        },
        "sampler": {
            "attempts": batch.attempts,
            "accepted": stats.d1_count,
            "expected_acceptance": expected,
            "observed_acceptance": stats.d1_count / batch.attempts if batch.attempts else None,
        },
    }


#: Rows formatted and written together by write_shots_csv.
_CSV_CHUNK = 1 << 16
#: Row tail after the shot id, per ``ShotBatch.detector`` code; D1 rows of
#: an experiment with pointers get their own tail from ``_d1_tails``.
_ROW_TAILS = np.array([None, ",D1,,\n", ",D2,,\n", ",D3,,\n"], dtype=object)


def _d1_tails(readout: np.ndarray, axes: tuple[Axis, ...]) -> list[str]:
    """Newline-terminated ``,D1,x,y`` row tails of D1 readouts, columns in ``axes`` order.

    ``axes`` holds one or both of the two axes.
    """
    columns = dict(zip(axes, readout.T.tolist()))
    xs, ys = columns.get(Axis.HORIZONTAL), columns.get(Axis.VERTICAL)
    if xs is None:
        return [f",D1,,{y!r}\n" for y in ys]
    if ys is None:
        return [f",D1,{x!r},\n" for x in xs]
    return [f",D1,{x!r},{y!r}\n" for x, y in zip(xs, ys)]


def write_shots_csv(path: Path, batch: ShotBatch, experiment: Experiment) -> None:
    """CSV with one row per shot; x = horizontal readout, y = vertical readout.

    Each row is the shot id in decimal followed by a tail: the constant
    ``,D2,,`` or ``,D3,,`` off D1, and one f-string of the readouts'
    ``repr`` (shortest round-trip form) on D1, so identical batches give
    byte-identical files.  Rows are formatted and written once per
    ``_CSV_CHUNK`` shots.  Float ``repr`` is most of the remaining cost.
    """
    axes = experiment.axes()
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("shot_id,detector,x,y\n")
        for start in range(0, len(batch), _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            detector = batch.detector[rows]
            d1 = np.flatnonzero(detector == 1)
            tails = _ROW_TAILS[detector]
            if axes:
                tails[d1] = _d1_tails(batch.readout[start + d1], axes)
            # One "%d%s" per row, formatted once per chunk: faster than
            # str() on each id followed by a join.
            fields = [None] * (2 * detector.shape[0])
            fields[0::2] = batch.shot_id[rows].tolist()
            fields[1::2] = tails.tolist()
            fh.write(("%d%s" * detector.shape[0]) % tuple(fields))


def _run_single(config: ExperimentConfig) -> dict:
    """Sample one preset, write its files, and return its summary dict."""
    experiment = build_experiment(config)
    analysis = analyze(experiment)
    batch = sample_shots(experiment, config.shots, config.seed, analysis=analysis)
    stats = estimate(batch, experiment)
    summary = {
        "config": config.as_dict(),
        "expected": expected_summary(config, experiment, analysis=analysis),
        "estimated": estimated_summary(stats),
        "diagnostics": _diagnostics(experiment, analysis, stats, batch),
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_shots_csv(config.out_dir / "shots.csv", batch, experiment)
    with open(config.out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _run_sweep(config: ExperimentConfig) -> dict:
    """Weak-cheshire at each sweep ratio, plus a convergence aggregate."""
    points = []
    for ratio in SWEEP_RATIOS:
        point_config = replace(
            config,
            preset="weak-cheshire",
            g_vertical=ratio * config.s,
            g_horizontal=ratio * config.s,
            out_dir=config.out_dir / f"g_over_s_{ratio:g}",
        )
        summary = _run_single(point_config)
        expected_ratio = summary["expected"]["pointer_mean_over_coupling"]
        points.append(
            {
                "g_over_s": ratio,
                "out_dir": str(point_config.out_dir),
                "expected_mean_over_coupling": expected_ratio,
                "estimated_mean_over_coupling": summary["estimated"]["mean_over_coupling"],
                "weak_limit_error": {
                    axis: abs(value - 1.0) if value is not None else None
                    for axis, value in expected_ratio.items()
                },
            }
        )
    error_ratios = {}
    for axis in ("vertical", "horizontal"):
        errors = [point["weak_limit_error"][axis] for point in points]
        error_ratios[axis] = [
            errors[i] / errors[i + 1] if errors[i + 1] else None for i in range(len(errors) - 1)
        ]
    summary = {
        "config": config.as_dict(),
        "expected": {"weak_limit_error_ratio_per_decade": error_ratios},
        "estimated": {"points": points},
        "diagnostics": {"sweep_ratios": list(SWEEP_RATIOS)},
    }
    with open(config.out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def run_preset(config: ExperimentConfig) -> int:
    """Run the configured preset and write its outputs; returns the exit code.

    The sweep preset derives each point's couplings from its ratio and the
    width, ignoring explicit --g-vertical/--g-horizontal values.
    """
    try:
        if config.preset == "sweep":
            _run_sweep(config)
        else:
            _run_single(config)
    except (NullPostSelection, InsufficientData, LowAcceptance) as exc:
        print(f"cheshire: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cheshire: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"cheshire: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help or bad flags
        return int(exc.code or 0)
    return run_preset(config)


if __name__ == "__main__":
    sys.exit(main())
