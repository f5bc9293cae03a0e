"""In-memory call tracing for the benchmark, applied from outside the package.

The package modules bind library functions by name (``from .belief import
propagate``), so a function is traced by replacing every module attribute that
refers to it, not only the one in its defining module.  Each replacement keeps
the name of the module it was bound in (its *site*), so calls can be counted
per caller as well as in total.  ``patched`` restores every original binding
on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """Records one span per call of each wrapped function.

    ``observers`` maps a span name to a function of the call's return value
    giving ``(counter, value)``; the tracer keeps the last value per counter.
    """

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.run = 0
        self._open: list[int] = []
        self._observers = observers or {}

    def wrap(self, name: str, site: str, fn: Callable) -> Callable:
        spans, open_spans = self.spans, self._open
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, site, 0.0, 0.0, open_spans[-1] if open_spans else None, self.run)
            spans.append(span)
            open_spans.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if observe is not None:
                key, value = observe(result)
                self.counters[key] = value
            return result

        return traced


def public_functions(module) -> dict[int, tuple[str, Callable]]:
    """Public functions defined in `module`, keyed by id, named ``<module>.<function>``."""
    short = module.__name__.rpartition(".")[2]
    return {
        id(fn): (f"{short}.{attr}", fn)
        for attr, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_")
    }


@contextlib.contextmanager
def patched(
    tracer: Tracer,
    targets: dict[int, tuple[str, Callable]],
    modules: Iterable,
    methods: Iterable[tuple[type, str]] = (),
):
    """Trace every binding of a target function in `modules`, plus the given
    class methods, for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module in modules:
            site = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is not None and target[1] is value:
                    setattr(module, attr, tracer.wrap(target[0], site, value))
                    undo.append((module, attr, value))
        for cls, attr in methods:
            raw = cls.__dict__[attr]
            site = cls.__module__.rpartition(".")[2]
            name = f"{site}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(name, site, raw.__func__))
            else:
                replacement = tracer.wrap(name, site, raw)
            setattr(cls, attr, replacement)
            undo.append((cls, attr, raw))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, float]:
    """Totals over all spans: per function and per module ``calls`` and
    ``self_s``, per caller site ``<site>.<function>.calls``, the median call
    duration ``<function>.ms_p50``, ``self_s``, the self time of all spans, and
    ``wall_s``, the summed duration of the root spans."""
    out: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        module, _, func = span.name.partition(".")
        for key in (span.name, module):
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own
        if span.site != module:
            out[f"{span.site}.{func}.calls"] += 1
        durations[span.name].append(span.end - span.start)
        out["self_s"] += own
        if span.parent is None:
            out["wall_s"] += span.end - span.start
    for name, values in durations.items():
        out[f"{name}.ms_p50"] = 1e3 * statistics.median(values)
    return dict(out)
