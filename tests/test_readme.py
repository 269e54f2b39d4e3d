"""The README's library quick start, run against the package as documented."""

import re
from pathlib import Path

import pytest

from cheshire import Axis

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    mean = namespace["mixture_moments"](namespace["mixture"])[Axis.HORIZONTAL].mean
    assert mean == pytest.approx(0.01, rel=1e-3)
    assert namespace["success"] == pytest.approx(0.25, abs=1e-3)
