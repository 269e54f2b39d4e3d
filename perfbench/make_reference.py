"""Record the analytic-scan reference: expected blocks and density sums per operating point.

    PYTHONPATH=src python3 perfbench/make_reference.py

The analytic outputs of cheshire must stay identical across changes, so the
reference is recorded once, from the commit that introduced the benchmark,
and every ``analytic-scan`` run compares against it.  Re-recording it hides
exactly the changes it exists to catch.
"""

import json
from pathlib import Path

import numpy as np

from cheshire import cli, montecarlo, pointer
from worker import SCAN_WIDTH, scan_point

#: Couplings scanned, and the g/s grid: weak (1e-3) through strong (1e2).
COUPLINGS = ("weak-cheshire", "smile-only")
G_OVER_S = np.logspace(-3, 2, 128)
#: Keys of the expected block that do not depend on g/s.
SHARED = ("weak_values", "abl")


def main() -> None:
    couplings = {}
    for preset in COUPLINGS:
        points = []
        shared = None
        for ratio in G_OVER_S:
            expected, density_sum, _ = scan_point(cli, montecarlo, pointer, preset, float(ratio))
            shared = shared or {key: expected[key] for key in SHARED}
            if any(expected[key] != shared[key] for key in SHARED):
                raise SystemExit(f"{preset}: {SHARED} changed with g/s; the reference layout assumes not")
            points.append({**{k: v for k, v in expected.items() if k not in SHARED}, "density_sum": density_sum})
        couplings[preset] = {"g_over_s": [float(r) for r in G_OVER_S], "shared": shared, "points": points}
    reference = {"width": SCAN_WIDTH, "couplings": couplings}
    path = Path(__file__).resolve().parent / "reference_scan.json"
    path.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {path} ({sum(len(c['points']) for c in couplings.values())} points)")


if __name__ == "__main__":
    main()
