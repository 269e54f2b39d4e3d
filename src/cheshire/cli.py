"""Command-line front end: presets, config handling, CSV/JSON outputs.

``cheshire --preset weak-cheshire --shots 100000 --out-dir out`` runs one
experiment and writes two files into the output directory.  Every preset
runs through one loop in ``run_preset`` over its points (``_points``): the
config itself, or for ``sweep`` one weak-cheshire config per
``SWEEP_RATIOS`` ratio in the subdirectory ``g_over_s_<ratio>``.  Each point
is sampled and written by ``_run_single``; the sweep then writes its
aggregate (``_sweep_summary``) from the points' (ratio, config, experiment,
summary) records.  A point that fails ends the run: earlier points keep
their files and no aggregate is written.  A single run is one loop over
chunks of ``_CHUNK_SHOTS`` shots: each chunk is sampled, appended
to ``shots.csv`` and folded into a running :class:`~cheshire.montecarlo.Tally`,
so a run holds one chunk in memory whatever its shot count.  The writer
finds the digits of a chunk's D1 readouts in passes of up to 8192 values,
and assembles and writes its rows in blocks of up to 2048.  The pass size
bounds the memory of the digit arithmetic, and the block size bounds the
row text, so neither grows with the chunk.  Shot ids are consecutive, so
a block's ids need no arithmetic: their last four digits are contiguous
slices of a table of 0000 .. 9999, and the digits above them are one
prefix for each run of 10**4 ids.

- ``shots.csv`` with header ``shot_id,detector,x,y``; ``x`` is the
  horizontal readout, ``y`` the vertical one, both empty for shots that did
  not reach D1 (and for axes the preset does not couple).  Floats are
  written as ``repr`` writes them (shortest round-trip form), so identical
  configs give byte-identical files on the same numpy build and CPU
  features.  The readouts themselves depend on numpy's SIMD dispatch: with
  the same numpy and Python, ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
  AVX512_SPR"`` changed 78 of 49,665 D1 rows of a 200k-shot weak-cheshire
  run in their last digit.  The digits come from integer arithmetic in
  numpy (``cheshire._csvtext``) for |x| in [1e-4, 2**52) and from ``repr``
  itself outside it.  The rows are ASCII bytes, written as they are to a
  binary file, so no codec is involved.  Rows go to ``shots.csv.partial``
  and the summary to ``summary.json.partial``; both are renamed once the
  summary is written, so a failed or interrupted run leaves neither file.
  A run whose files could not fit in the free space at ``7`` bytes a row
  (``0,D2,,`` and a newline), counted once over all its points' shots, is
  refused before anything is created, a sweep as a single run.
- ``summary.json`` with keys ``config`` (the fully resolved configuration),
  ``expected`` (analytic weak values as {re, im} pairs, conditional outcome
  tables, pointer moments -- never derived from the samples), ``estimated``
  (post_rate, d1_count, per-axis means, standard errors and
  mean_over_coupling, built from the run's Tally) and ``diagnostics``
  (g/s per axis, branch count, ``stream_version``, ``summary_version``
  (``SUMMARY_VERSION``, the layout of this file), the cheshire, numpy and
  python ``versions`` that byte identity depends on with
  ``numpy_dispatch``, the SIMD targets numpy dispatches to (null where
  numpy does not list them), the readout
  ``sampler``: its ``envelope`` (``midpoint`` or ``centre``), attempts,
  accepted count and expected against observed acceptance, and the
  ``checks`` z-scores of the estimates against their analytic values).

Each ``expected.abl`` table is ``abl_distribution`` of one coupled
observable, as if it were the only strong measurement.  ``joint-strong``
measures both observables strongly, so its shots follow the joint table
``sequential_distribution([photon_in_arm1, angular_momentum_arm2])``,
{(1, 0): 2/3, (0, 1): 1/6, (0, -1): 1/6} at success probability 0.375,
while its ``abl.photon_in_arm1`` still reads {1: 1.0, 0: 0.0}.

Presets: ``weak-cheshire`` couples a which-path probe (vertical axis) and an
arm-2 angular-momentum probe (horizontal axis), both weak; ``which-path``
and ``smile-only`` couple one of them; ``joint-strong`` runs both at
coupling/width = 10; ``sweep`` repeats weak-cheshire at coupling/width
ratios 0.1, 0.01, 0.001 (one subdirectory each) and aggregates the
convergence of mean/coupling toward the weak values (the
``weak_limit_error`` |mean/coupling - Re A_w| per point and axis); its
aggregate ``diagnostics`` hold ``sweep_ratios`` and ``summary_version``.

Exit codes: 0 success, 1 runtime failure (impossible or near-null
post-selection, too few post-selected shots, too little free disk space,
out of memory, I/O), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from functools import cache
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

from . import __version__
from ._csvtext import _consecutive_ascii, _readout_text
from .montecarlo import (
    STREAM_VERSION,
    _D1,
    Experiment,
    InsufficientData,
    LowAcceptance,
    ShotBatch,
    Tally,
    analyze,
    sample_shots,
)
from .optics import Detector
from .pointer import Axis, GaussianPointer, mixture_moments, weak_limit_error
from .postselect import abl_distribution, weak_value
from .qstate import canonical_observables, canonical_states, observable_operator

try:  # numpy's private dispatch tables; other builds may lack or rename them
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    _NUMPY_DISPATCH = None
else:
    #: The dispatched SIMD targets this process runs, which the readouts' last digits depend on.
    _NUMPY_DISPATCH = tuple(name for name in __cpu_dispatch__ if __cpu_features__.get(name))

DEFAULT_PRESET = "weak-cheshire"
DEFAULT_WIDTH = 1.0
DEFAULT_SHOTS = 100_000
DEFAULT_SEED = 0
DEFAULT_OUT_DIR = "out"
SWEEP_RATIOS = (1e-1, 1e-2, 1e-3)
#: Version of the ``summary.json`` layout, written as ``diagnostics.summary_version``.
#: A change that adds, renames or redefines a summary key bumps it; a summary
#: that lacks the key predates it and reads as version 0.
SUMMARY_VERSION = 1
#: Accepted pointer widths s.  Inside this range s**2, 1/s**2 and the
#: two-axis density normalisation 1/(2 pi s**2) are normal float64 numbers.
#: Couplings set explicitly are 0 or lie in it too: the upper end keeps squared
#: displacements finite, and the lower end keeps a readout mean over its
#: coupling finite (a mean of order s over a subnormal coupling overflows).
#: A preset default ratio * s is a fixed fraction of the width, so its mean
#: over coupling stays finite and only the upper end binds it.
WIDTH_RANGE = (1e-150, 1e150)


class UsageError(Exception):
    """Invalid configuration; maps to exit code 2."""


class _Preset(NamedTuple):
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


class ExperimentConfig(NamedTuple):
    preset: str
    g_vertical: float
    g_horizontal: float
    s: float
    shots: int
    seed: int
    out_dir: Path

    def as_dict(self) -> dict:
        values = self._asdict()
        values["out_dir"] = str(self.out_dir)
        return values


#: Config-file keys and flag destinations, in ``summary.json`` order.
_CONFIG_KEYS = ExperimentConfig._fields


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
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, or an integer past the digit limit
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
    couplings = {}
    for key in ("g_vertical", "g_horizontal"):
        if key in values:
            g = _number(key, values[key])
            if not (g == 0 or low <= g <= high):
                raise UsageError(f"{key}: coupling must be 0 or lie in [{low:g}, {high:g}], got {g}")
        else:
            g = ratio * s
            if g > high:
                raise UsageError(
                    f"{key}: the {preset} default coupling {ratio:g} * s = {g:g} exceeds {high:g}; "
                    f"set {key} or use s <= {high / ratio:g}"
                )
        couplings[key] = g
    out_dir = values.get("out_dir", DEFAULT_OUT_DIR)
    if shots < 1:
        raise UsageError(f"shots: need at least 1 shot, got {shots}")
    if shots >= 2**63:
        raise UsageError(f"shots: must be below 2**63, got {shots}")
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed: must be in [0, 2**64), got {seed}")
    if not isinstance(out_dir, str):
        raise UsageError(f"out_dir: must be a path string, got {out_dir!r}")
    return ExperimentConfig(
        preset=preset,
        g_vertical=couplings["g_vertical"],
        g_horizontal=couplings["g_horizontal"],
        s=s,
        shots=shots,
        seed=seed,
        out_dir=Path(out_dir),
    )


def _number(key: str, value) -> float:
    """A finite float config value; booleans, strings and non-numbers are usage errors naming ``key``."""
    if isinstance(value, (bool, str)):
        raise UsageError(f"{key}: must be a number, got {value!r}")
    try:
        number = float(value)
    except TypeError:
        raise UsageError(f"{key}: must be a number, got {value!r}") from None
    except OverflowError:  # an integer too large for a float, as JSON may hold
        raise UsageError(f"{key}: must be finite, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise UsageError(f"{key}: must be finite, got {number}")
    return number


def _integer(key: str, value) -> int:
    """An integer config value; booleans, strings and fractional numbers are usage errors naming ``key``."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{key}: must be an integer, got {value!r}")
    try:
        return int(value)
    except TypeError:
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


@cache
def _constant_blocks(preset: str) -> tuple[dict, dict]:
    """The weak-value and ABL blocks of a preset's summary, which depend on constants only."""
    pre, post = canonical_states()
    observables = canonical_observables()
    weak_values = {
        name: _complex_pair(weak_value(observable_operator(observables[name]), pre, post))
        for name in _REPORTED_WEAK_VALUES
    }
    coupled_names = [name for name, _ in PRESETS[preset].couplings]
    abl_tables = {
        name: {f"{value:g}": prob for value, prob in abl_distribution(observables[name], pre, post).outcomes.items()}
        for name in coupled_names
    }
    return weak_values, abl_tables


def expected_summary(config: ExperimentConfig, experiment: Experiment) -> dict:
    """Analytic predictions: computed from the state algebra, never from samples.

    The weak-value and ABL blocks are computed once per preset and returned
    as new dicts, so a caller that edits a summary cannot change the next.
    """
    weak_values, abl_tables = _constant_blocks(config.preset)
    analysis = analyze(experiment)
    moments = mixture_moments(analysis.mixture) if analysis.mixture is not None else {}
    means, variances, ratios = {}, {}, {}  # axis name -> value, or None
    for _, pointer in experiment.couplings:
        m, axis = moments.get(pointer.axis), pointer.axis.value
        means[axis] = m.mean if m else None
        variances[axis] = m.variance if m else None
        ratios[axis] = (m.mean / pointer.coupling) if m and pointer.coupling > 0 else None
    return {
        "weak_values": {name: dict(pair) for name, pair in weak_values.items()},
        "abl": {name: dict(table) for name, table in abl_tables.items()},
        "success_probability": analysis.detector_probabilities[Detector.D1],
        "pointer_mean": means,
        "pointer_variance": variances,
        "pointer_mean_over_coupling": ratios,
    }


def estimated_summary(tally: Tally, experiment: Experiment) -> dict:
    """Post-selection rate, D1 count and per-axis means, standard errors and mean/coupling of the tallied shots.

    A mean over a zero coupling is None.  Raises ValueError when the tally
    and the experiment have different axis counts or no shots were
    tallied, and InsufficientData when fewer than two D1 readouts exist: a
    standard error needs at least two samples.
    """
    if len(tally.means) != len(experiment.couplings):
        raise ValueError(f"tally has {len(tally.means)} readout axes, the experiment {len(experiment.couplings)}")
    if tally.n_shots == 0:
        raise ValueError("no shots tallied")
    d1_count = tally.d1_count
    if d1_count < 2:
        raise InsufficientData(f"only {d1_count} post-selected shots; need at least 2")
    pointers = experiment.pointers()
    return {
        "post_rate": d1_count / tally.n_shots,
        "d1_count": d1_count,
        "means": {pointer.axis.value: mean for pointer, mean in zip(pointers, tally.means)},
        "standard_errors": {
            pointer.axis.value: math.sqrt(m2 / (d1_count - 1)) / math.sqrt(d1_count)
            for pointer, m2 in zip(pointers, tally.m2)
        },
        "mean_over_coupling": {
            pointer.axis.value: mean / pointer.coupling if pointer.coupling > 0 else None
            for pointer, mean in zip(pointers, tally.means)
        },
    }


def _z_score(deviation: float, variance: float, count: int) -> float | None:
    """deviation / sqrt(variance / count), or None where that is not a finite number.

    A variance that rounding has left at 0 or below (which-path at large
    g/s keeps one branch, whose variance s^2 is lost next to g^2) gives no
    standard error, so the check is left out rather than failing the run.
    """
    stderr = math.sqrt(variance / count) if variance > 0 else 0.0
    if not (math.isfinite(stderr) and stderr > 0):
        return None
    z = deviation / stderr
    return z if math.isfinite(z) else None


def _checks(expected: dict, estimated: dict, shots: int) -> dict:
    """z-scores of the ``estimated`` block against the analytic values, with analytic standard errors.

    ``post_rate`` uses the binomial standard error sqrt(p (1 - p) / shots),
    with p the success probability, and each axis mean
    sqrt(pointer_variance / N_D1).  A z-score is null where its standard
    error is not finite and positive.
    """
    p = expected["success_probability"]
    return {
        "post_rate_z": _z_score(estimated["post_rate"] - p, p * (1.0 - p), shots),
        "mean_z": {
            axis: _z_score(
                mean - expected["pointer_mean"][axis],
                expected["pointer_variance"][axis],
                estimated["d1_count"],
            )
            for axis, mean in estimated["means"].items()
        },
    }


def _diagnostics(experiment: Experiment, tally: Tally, checks: dict) -> dict:
    analysis = analyze(experiment)
    envelope = analysis.envelope
    return {
        "g_over_s": {
            pointer.axis.value: pointer.coupling / pointer.width
            for pointer in experiment.pointers()
        },
        "branch_count": len(analysis.mixture.weights) if analysis.mixture is not None else 0,
        "stream_version": STREAM_VERSION,
        "summary_version": SUMMARY_VERSION,
        "versions": {
            "cheshire": __version__,
            "numpy": np.__version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy_dispatch": _NUMPY_DISPATCH,
        },
        "sampler": {
            "envelope": envelope.name if envelope is not None else None,
            "attempts": tally.attempts,
            "accepted": tally.d1_count,
            "expected_acceptance": envelope.acceptance if envelope is not None else None,
            "observed_acceptance": tally.d1_count / tally.attempts if tally.attempts else None,
        },
        "checks": checks,
    }


#: Shots sampled and tallied together: a run holds one chunk at a time.
_CHUNK_SHOTS = 1 << 16
#: Rows assembled and written together, so the row text held at once is
#: bounded.  Blocks of 1024 rows wrote 20k-shot runs 6-9% slower, and
#: blocks of 4096 no faster: 1-3% slower on which-path and 9-10% on
#: weak-cheshire, whose traced writer peak per chunk they raised from 1.17
#: to 1.29 MB.
_WRITE_ROWS = 1 << 11
#: Readout values formatted together by one ``_readout_text`` pass.  The
#: pass's arrays grow with its values (about 105 traced bytes each), not its
#: rows, so this count bounds the digit arithmetic's memory, as
#: ``_WRITE_ROWS`` bounds the row text's.  A pass costs a fixed ~0.1 ms of
#: numpy calls, so one pass spans many blocks.  At 8192 values a chunk's
#: writer peaks at 1.07-1.17 MB traced, and at 16384 at 1.98-2.13 MB.
_PASS_VALUES = 1 << 13
_CSV_HEADER = b"shot_id,detector,x,y\n"
#: Bytes of the shortest ``shots.csv`` row, ``0,D2,,`` and its newline.
_MIN_ROW_BYTES = 7


def write_shots_csv(fh: BinaryIO, batch: ShotBatch, experiment: Experiment) -> None:
    """Append one CSV row per shot of ``batch`` to the binary file ``fh``; x = horizontal readout, y = vertical.

    A row is ``shot_id,Dk,x,y``: the shot id in decimal, the detector, and
    on D1 each readout's ``repr`` (shortest round-trip form), so identical
    batches give byte-identical rows.  The D1 readouts (``batch.readout``,
    one row per D1 shot) are formatted in passes of at most ``_PASS_VALUES``
    values (one D1 row at least), and a pass's rows run to the next pass's
    first D1 row; one search of the D1 rows per pass finds every block's
    share of them.  A pass's rows are built in blocks of at most
    ``_WRITE_ROWS``, each as one NUL-padded uint8 matrix whose NULs are
    dropped before its ASCII bytes are written as they are, so neither the
    digits nor the text held at once grows with the batch.  In a block,
    the bytes after the id take one assignment of the pass's row suffix,
    whose detector digit the detector codes then raise from ``0``.  The
    shot ids are the batch's range ``first_shot ..``, below 2**63 as
    ``ShotBatch`` requires, and come from ``_consecutive_ascii``: slices of
    the four-digit table and one prefix per run of 10**4 ids, with NUL
    padding only before ids shorter than the block's last.  Raises
    ValueError, before writing anything, unless the batch has one readout
    column per experiment axis; a text handle raises TypeError at the first
    write.
    """
    axes = experiment.axes()
    if batch.readout.shape[1] != len(axes):
        raise ValueError(f"batch has {batch.readout.shape[1]} readout axes, the experiment {len(axes)}")
    columns = [axes.index(axis) if axis in axes else None for axis in (Axis.HORIZONTAL, Axis.VERTICAL)]
    d1 = np.flatnonzero(batch.detector == _D1)
    pass_rows = max(_PASS_VALUES // max(len(axes), 1), 1)
    edges = [0, *d1[pass_rows::pass_rows].tolist(), len(batch)]
    for p, (start, end) in enumerate(zip(edges, edges[1:])):
        first = p * pass_rows  # the pass's first entry of d1 and of the readout rows
        values = batch.readout[first : first + pass_rows]
        readouts = np.empty((len(values), len(axes), 0), dtype=np.uint8)
        if values.size:
            readouts = _readout_text(values.ravel()).reshape(len(values), len(axes), -1)
        readout_width = readouts.shape[2]
        # The bytes after the shot id, with '0' for the detector digit and NULs for the readouts.
        suffix = np.zeros(6 + len(axes) * readout_width, dtype=np.uint8)
        suffix[:3] = tuple(b",D0")
        slots, at = [], 3  # (readout column, first text column after the id) of each readout field
        for column in columns:
            suffix[at] = ord(",")
            at += 1
            if column is not None:
                slots.append((column, at))
                at += readout_width
        suffix[at] = ord("\n")
        blocks = range(start, end, _WRITE_ROWS)
        # Each block's entries of d1, from one search per pass.
        bounds = d1.searchsorted([*blocks, end]).tolist()
        for block, low, high in zip(blocks, bounds, bounds[1:]):
            stop = min(block + _WRITE_ROWS, end)
            id_width = len(str(batch.first_shot + stop - 1))
            text = np.empty((stop - block, id_width + suffix.size), dtype=np.uint8)
            _consecutive_ascii(text[:, :id_width], batch.first_shot + block)
            text[:, id_width:] = suffix
            digit = text[:, id_width + 2]
            np.add(digit, batch.detector[block:stop], out=digit)
            # The readouts are sliced afresh per block: a view kept past the block would
            # hold the pass's digits while the next pass finds its own (0.2 MB a chunk).
            rows = d1[low:high] - block
            for column, at in slots:
                at += id_width
                text[rows, at : at + readout_width] = readouts[low - first : high - first, column]
            fh.write(text.tobytes().translate(None, b"\0"))


def _check_free_space(out_dir: Path, shots: int) -> None:
    """Raise OSError when ``shots`` rows of at least ``_MIN_ROW_BYTES`` cannot fit under ``out_dir``.

    The free space is read at the nearest existing ancestor, since
    ``out_dir`` itself may not exist yet.
    """
    existing = out_dir.absolute()
    while not existing.exists():
        existing = existing.parent
    free = shutil.disk_usage(existing).free
    need = _MIN_ROW_BYTES * shots
    if need > free:
        raise OSError(f"{shots} shots need at least {need} bytes of shots.csv, but {existing} has {free} free")


def _publish(out_dir: Path, summary: dict, *partials: Path) -> None:
    """Write ``summary.json`` into ``out_dir`` and rename each ``<name>.partial`` of ``partials`` to ``<name>``.

    The summary goes to ``summary.json.partial`` first and is renamed last.
    On any exception, the partial files and every file already renamed are
    removed, so a failed or interrupted run leaves neither output.
    """
    pending = (*partials, out_dir / "summary.json.partial")
    published = []
    try:
        with open(pending[-1], "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        for partial in pending:
            final = partial.with_suffix("")
            partial.replace(final)
            published.append(final)
    except BaseException:
        for path in (*pending, *published):
            path.unlink(missing_ok=True)
        raise


def _run_single(config: ExperimentConfig, experiment: Experiment) -> dict:
    """Sample the configured experiment chunk by chunk, write its files, and return its summary dict.

    The caller checks the free space first, once for all of a run's points (``run_preset``).
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    partial = config.out_dir / "shots.csv.partial"
    tally = Tally(len(experiment.couplings))
    try:
        with open(partial, "wb") as fh:
            fh.write(_CSV_HEADER)
            for start in range(0, config.shots, _CHUNK_SHOTS):
                n = min(_CHUNK_SHOTS, config.shots - start)
                batch = sample_shots(experiment, n, config.seed, first_shot=start)
                tally.add(batch)
                write_shots_csv(fh, batch, experiment)
        estimated = estimated_summary(tally, experiment)
        expected = expected_summary(config, experiment)
        summary = {
            "config": config.as_dict(),
            "expected": expected,
            "estimated": estimated,
            "diagnostics": _diagnostics(experiment, tally, _checks(expected, estimated, tally.n_shots)),
        }
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    _publish(config.out_dir, summary, partial)
    return summary


def _points(config: ExperimentConfig) -> list[tuple[float | None, ExperimentConfig]]:
    """The (sweep ratio, config) of each run of a preset: the config itself, or one weak-cheshire config per ratio."""
    if config.preset != "sweep":
        return [(None, config)]
    return [
        (ratio, config._replace(preset="weak-cheshire", g_vertical=ratio * config.s, g_horizontal=ratio * config.s,
                                out_dir=config.out_dir / f"g_over_s_{ratio:g}"))
        for ratio in SWEEP_RATIOS
    ]


def _sweep_summary(config: ExperimentConfig, records: list[tuple]) -> dict:
    """The sweep's convergence aggregate from its points' (ratio, config, experiment, summary) records."""
    observables = [name for name, _ in PRESETS["weak-cheshire"].couplings]
    points = []
    for ratio, point_config, experiment, summary in records:
        weak_values = [summary["expected"]["weak_values"][name]["re"] for name in observables]
        errors = weak_limit_error(analyze(experiment).mixture, [p.coupling for p in experiment.pointers()], weak_values)
        points.append(
            {
                "g_over_s": ratio,
                "out_dir": str(point_config.out_dir),
                "expected_mean_over_coupling": summary["expected"]["pointer_mean_over_coupling"],
                "estimated_mean_over_coupling": summary["estimated"]["mean_over_coupling"],
                "weak_limit_error": {axis.value: float(error) for axis, error in zip(experiment.axes(), errors)},
            }
        )
    error_ratios = {}
    for axis in ("vertical", "horizontal"):
        errors = [point["weak_limit_error"][axis] for point in points]
        error_ratios[axis] = [error / finer if finer else None for error, finer in zip(errors, errors[1:])]
    return {
        "config": config.as_dict(),
        "expected": {"weak_limit_error_ratio_per_decade": error_ratios},
        "estimated": {"points": points},
        "diagnostics": {"sweep_ratios": list(SWEEP_RATIOS), "summary_version": SUMMARY_VERSION},
    }


def run_preset(config: ExperimentConfig) -> int:
    """Run the configured preset and write its outputs; returns the exit code.

    Every preset runs as a list of points (``_points``), each sampled and
    written by ``_run_single`` in its own directory, after one free-space
    check for the shots of all of them.  The sweep preset derives each
    point's couplings from its ratio and the width, ignoring explicit
    --g-vertical/--g-horizontal values, and then writes its aggregate.
    """
    try:
        points = _points(config)
        _check_free_space(config.out_dir, sum(point.shots for _, point in points))
        records = []
        for ratio, point in points:
            experiment = build_experiment(point)
            records.append((ratio, point, experiment, _run_single(point, experiment)))
        if config.preset == "sweep":
            _publish(config.out_dir, _sweep_summary(config, records))
    except (InsufficientData, LowAcceptance) as exc:
        print(f"cheshire: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cheshire: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"cheshire: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
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
