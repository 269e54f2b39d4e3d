"""Span recording around cheshire's public functions, and span arithmetic.

A :class:`Tracer` replaces every module binding of every public function of
the six layer modules with a wrapper that records one span per call: name
(``<layer>.<function>``), start, end, parent span and run id.  ``cli``
imports its helpers by name from the other modules, so each function is
patched wherever it is bound, not only in its defining module.  Spans stay
in memory until :meth:`Tracer.dump`.

The arithmetic helpers work on plain span dicts, as written by ``dump``:
self time is a span's duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

LAYERS = ("qstate", "optics", "postselect", "pointer", "montecarlo", "cli")


class Tracer:
    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)

        return traced

    def install(self) -> None:
        """Patch every binding of the layers' public functions."""
        modules = {layer: importlib.import_module(f"cheshire.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for module in [importlib.import_module("cheshire"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:  # still open: the run raised through it
                    continue
                name, start, end, parent, run_id = span
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def load_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of each span id: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


def inclusive_seconds(spans: list[dict], name: str) -> float:
    """Total duration of the ``name`` spans not nested inside another ``name`` span."""
    by_id = {span["id"]: span for span in spans}
    total = 0.0
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            total += span["end"] - span["start"]
    return total


def call_count(spans: list[dict], name: str) -> int:
    return sum(1 for span in spans if span["name"] == name)
