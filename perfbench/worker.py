"""One workload process: set up cheshire from a fresh interpreter, then do one unit of work.

Usage: ``python3 perfbench/worker.py <spec.json>``, with ``src`` on
PYTHONPATH.  ``run.py`` writes the spec and reads the report this process
writes to ``spec["report"]``.  Only ``sys`` and ``time`` are imported before
the set-up clock starts, so ``setup_s`` is the cost of cheshire itself:

- ``mc``: ``import cheshire``, ``parse_config``, ``build_experiment`` and the
  first ``analyze``; the work is one ``cli.main`` run, timed from the call
  until ``shots.csv`` and ``summary.json`` are on disk.
- ``scan``: ``import cheshire`` and the first point's inputs; the work is
  the list of analytic operating points in ``spec["points"]``.

With ``spec["trace"]`` set, spans are recorded around the work only, and
written to ``spec["spans"]`` after the clock stops.

The work is bracketed by two runs of :func:`calibrate`, whose mean duration
``run.py`` uses to express times at a fixed reference host speed.
"""

import sys
import time

#: Pointer width of every scan point; g/s is the scanned quantity.
SCAN_WIDTH = 1.0
#: Plotting-grid points per pointer axis for ``mixture_density``.
SCAN_GRID = 64


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work that uses no cheshire code.

    On a shared host, contention from other tenants changes the speed of the
    same code by tens of percent over seconds to minutes.  This loop slows
    down with the work it brackets, so work time divided by calibration time
    measures the code rather than the host.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = np.arange(4.0)
    for _ in range(3_000):
        values = np.exp(-0.5 * values) + 1e-3 * np.dot(values, values)
    return time.perf_counter() - start


def scan_inputs(cli, preset: str, g_over_s: float):
    from pathlib import Path

    g = g_over_s * SCAN_WIDTH
    config = cli.ExperimentConfig(
        preset=preset, g_vertical=g, g_horizontal=g, s=SCAN_WIDTH, shots=1, seed=0,
        out_dir=Path("."),
    )
    return config, cli.build_experiment(config)


def scan_point(cli, montecarlo, pointer, preset: str, g_over_s: float) -> tuple[dict, float, int]:
    """Expected block, plotting-grid density sum and grid size of one operating point."""
    import numpy as np

    config, experiment = scan_inputs(cli, preset, g_over_s)
    expected = cli.expected_summary(config, experiment)
    mixture = montecarlo.analyze(experiment).mixture
    displacements = np.asarray(mixture.displacements, dtype=float)
    axes = [
        np.linspace(displacements[:, k].min() - 5 * width, displacements[:, k].max() + 5 * width, SCAN_GRID)
        for k, width in enumerate(mixture.widths)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    density = pointer.mixture_density(mixture, grid)
    return expected, float(np.sum(density)), int(density.size)


def _run(spec: dict) -> dict:
    t0 = time.perf_counter()
    import cheshire  # noqa: F401  (the import is part of set-up)
    from cheshire import cli, montecarlo, pointer

    if spec["kind"] == "mc":
        config = cli.parse_config(spec["argv"])
        montecarlo.analyze(cli.build_experiment(config))
    else:
        scan_inputs(cli, *spec["points"][0])
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    report: dict = {"setup_s": setup_s}
    calibration_s = calibrate()
    start = time.perf_counter()
    if spec["kind"] == "mc":
        report["exit_code"] = cli.main(spec["argv"])
        report["work_s"] = time.perf_counter() - start
    else:
        points = [scan_point(cli, montecarlo, pointer, *p) for p in spec["points"]]
        report["work_s"] = time.perf_counter() - start
        report["points"] = [{"expected": e, "density_sum": d} for e, d, _ in points]
        report["grid_points"] = sum(n for _, _, n in points)
    report["calibration_s"] = (calibration_s + calibrate()) / 2
    import resource

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spec["spans"])
    import numpy

    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    return report


def main() -> None:
    import json

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    report = _run(spec)
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
