"""``cli._readout_text``, the ``shots.csv`` float formatter, against Python's ``repr``.

Inside its exact window, [1e-4, 2**52) in magnitude, the digits come from
integer arithmetic; outside it from ``repr`` itself.  Every case compares
whole strings, so a wrong digit, a missing zero, a misplaced point or sign
or a stray NUL fails.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cheshire import cli  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def readout_strings(values) -> list[str]:
    """The formatter's text of each value, NULs dropped."""
    text = cli._readout_text(np.asarray(values, dtype=float))
    lines = np.concatenate([text, np.full((text.shape[0], 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]


def assert_repr(values) -> None:
    values = np.asarray(values, dtype=float)
    got, want = readout_strings(values), list(map(repr, values.tolist()))
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def edge_values() -> list[float]:
    values = [0.0, 5e-324, 2.2250738585072014e-308, 9.999999999999999e-05, 1e-4, 1e15, 1e16]
    values += [1.7976931348623157e308, 4503599627370495.5, 4503599627370496.0, 9007199254740992.0]
    values += [2.0**p for p in range(-1074, 1024)]
    for k in range(-5, 18):
        values += [10.0**k, float(np.nextafter(10.0**k, 0.0)), float(np.nextafter(10.0**k, np.inf))]
    values += [d / 1000 for d in range(1, 2000)] + [0.1, 0.2, 0.3, 0.7, 1.1, 123.456, 1e-3, 2e-4]
    values += [n + 0.5 for n in range(-20, 20)] + [n / 8 for n in range(-200, 200)]
    return values + [-v for v in values]


def test_edge_values_match_repr():
    assert_repr(edge_values())


def test_every_value_alone_matches_repr():
    for value in edge_values()[::7]:
        assert readout_strings([value]) == [repr(value)]


@PROPERTY_SETTINGS
@given(FINITE)
def test_any_float_matches_repr(value):
    assert readout_strings([value]) == [repr(value)]


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(FINITE | st.floats(1e-4, 2.0**52), min_size=1, max_size=64))
def test_mixed_arrays_match_repr(values):
    # Exact-window and repr values in one array land in their own rows.
    assert readout_strings(values) == list(map(repr, values))


@pytest.mark.slow
def test_random_bit_patterns_match_repr():
    # 10**7 finite doubles with random signs and mantissas and binary
    # exponents from -20 to 60: the exact window and both repr sides.
    rng = np.random.default_rng(20240611)
    chunk = 1 << 16
    for _ in range(-(-10**7 // chunk)):
        sign = rng.integers(0, 2, chunk, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(1023 - 20, 1023 + 61, chunk, dtype=np.uint64) << np.uint64(52)
        bits = sign | exponent | rng.integers(0, 2**52, chunk, dtype=np.uint64)
        assert_repr(bits.view(np.float64))
