"""In-memory span recorder that instruments chordsim from the outside.

Wrappers are installed by rebinding a function's name in every chordsim
module that binds it (the defining module, the package namespace and each
importing module), so nested calls through module globals are recorded too.
The originals are put back when the ``installed`` context exits.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    item: int | None     # benchmark item the span belongs to


class SpanRecorder:
    """Collects spans of one thread; ``item`` tags spans with the item being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.item)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one call stack, so children are disjoint and lie inside
    their parent: the covered time is the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def chordsim_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chordsim" or name.startswith("chordsim."))]


@contextmanager
def installed(recorder: SpanRecorder, targets: list[str]):
    """Trace every ``module.function`` in ``targets`` (module relative to
    the chordsim package) at each chordsim namespace that binds it."""
    modules = chordsim_modules()
    by_name = {m.__name__: m for m in modules}
    saved = []
    try:
        for target in targets:
            module_name, attr = target.rsplit(".", 1)
            original = getattr(by_name[f"chordsim.{module_name}"], attr)
            wrapper = recorder.wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, name, original))
                        setattr(module, name, wrapper)
        yield recorder
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
