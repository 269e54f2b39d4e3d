"""``scripts/bench_pairs.py``'s verdict on one metric's alternating pairs, on hand-made samples."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

#: Ten parent runs with median 100 and quartiles 97.75 and 102.25 (spread 4.5).
PARENT = [96.0, 97.0, 98.0, 99.0, 99.5, 100.5, 101.0, 102.0, 103.0, 104.0]


def shifted(values, by):
    return [value + by for value in values]


@pytest.mark.parametrize(
    "parent, change, better, bound, expected",
    [
        # Won 10 of 10 pairs by more than the parent's spread.
        pytest.param(PARENT, shifted(PARENT, 10.0), "higher", 0.25, "gain", id="gain-higher"),
        pytest.param(PARENT, shifted(PARENT, -10.0), "lower", 0.25, "gain", id="gain-lower"),
        # Fewer than 10 pairs resolve no gain, however clear.
        pytest.param(PARENT[:9], shifted(PARENT[:9], 10.0), "higher", 0.25, "within", id="nine-pairs"),
        # 9 of 10 pairs is enough; a tie is a win for neither side.
        pytest.param(PARENT, [*shifted(PARENT[:9], 10.0), 80.0], "higher", 0.25, "gain", id="won-9-of-10"),
        pytest.param(PARENT, [*shifted(PARENT[:8], 10.0), 80.0, 80.0], "higher", 0.25, "within", id="won-8-of-10"),
        pytest.param(PARENT, [*shifted(PARENT[:8], 10.0), PARENT[8], 80.0], "higher", 0.25, "within", id="tie"),
        # Won every pair, but the medians differ by the parent's spread, not more.
        pytest.param(PARENT, shifted(PARENT, 4.5), "higher", 0.25, "within", id="gain-equal-to-spread"),
        # Won every pair by more than a tight parent spread (0.006), but by less than a
        # tenth of the bound (1% of the median): heap noise, not a gain.
        pytest.param(
            [31.7227, 31.72, 31.725, 31.721, 31.7235, 31.7222, 31.726, 31.719, 31.7229, 31.724],
            [31.707, 31.705, 31.709, 31.706, 31.708, 31.7065, 31.71, 31.704, 31.7075, 31.708],
            "lower", 0.1, "within", id="gain-below-the-bound-floor",
        ),
        # With no parent spread, the gain must still exceed a tenth of the bound (2.5 here).
        pytest.param([100.0] * 10, [102.5] * 10, "higher", 0.25, "within", id="gain-equal-to-the-floor"),
        pytest.param([100.0] * 10, [102.6] * 10, "higher", 0.25, "gain", id="gain-above-the-floor"),
        # No gain: worse by at most the bound of the parent's median, or by more.
        pytest.param(PARENT, shifted(PARENT, -25.0), "higher", 0.25, "within", id="worse-by-the-bound"),
        pytest.param(PARENT, shifted(PARENT, -25.5), "higher", 0.25, "BEYOND", id="beyond-higher"),
        pytest.param(PARENT, shifted(PARENT, 10.5), "lower", 0.1, "BEYOND", id="beyond-lower"),
        # The parent's spread (4.5) is wider than the bound (2% of 100): unresolved,
        # whether the change reads better or worse.
        pytest.param(PARENT, shifted(PARENT, -1.0), "higher", 0.02, "unresolved", id="unresolved-worse"),
        pytest.param(PARENT, shifted(PARENT, 1.0), "higher", 0.02, "unresolved", id="unresolved-better"),
        # ... unless every change run is better than every parent run.
        pytest.param(
            [50.0] * 5 + [150.0] * 5, [151.0] * 10, "higher", 0.25, "within", id="every-run-better"
        ),
        pytest.param([50.0] * 5 + [150.0] * 5, [150.0] * 10, "higher", 0.25, "unresolved", id="one-run-level"),
    ],
)
def test_verdict(parent, change, better, bound, expected):
    assert bench_pairs.verdict(parent, change, better, bound) == expected


def test_change_wins_counts_strictly_better_pairs():
    assert bench_pairs.change_wins([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "higher") == 1
    assert bench_pairs.change_wins([1.0, 2.0, 3.0], [2.0, 2.0, 1.0], "lower") == 1
