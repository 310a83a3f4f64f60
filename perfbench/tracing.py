"""Spans around calls into psp's public functions, recorded from outside.

`psp` modules import names with `from .x import y`, so one function object
is bound under several module names (`psp.autodiff.backward`,
`psp.pretrain.backward`, `psp.prompt.backward`, ...). `patched` rebinds
every one of those names, and class attributes, for the duration of a
traced run and restores them afterwards. Spans stay in memory until
`Tracer.write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span log; `parent` is the index of the enclosing span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), float("nan"), parent, self.run_id, attrs)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run_id": s.run_id, **s.attrs},
                                    default=str) + "\n")


# ---------------------------------------------------------------------------
# interval arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    kids = children_of(spans)
    return [s.duration - covered([(spans[k].start, spans[k].end) for k in kids[i]], s.start, s.end)
            for i, s in enumerate(spans)]


def coverage(spans: list[Span], roots: list[int]) -> float:
    """Share of the roots' total time that their direct child spans cover."""
    kids = children_of(spans)
    total = sum(spans[r].duration for r in roots)
    inside = sum(covered([(spans[k].start, spans[k].end) for k in kids[r]],
                         spans[r].start, spans[r].end) for r in roots)
    return inside / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# binding-wide patching


def _bound_modules(prefix: str):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == prefix or name.startswith(prefix + ".")):
            yield module


@contextmanager
def patched(replacements: dict, prefix: str = "psp"):
    """Rebind every name under `prefix` that holds a key of `replacements`.

    Keys are the original objects, matched by identity, in module globals and
    in the dictionaries of classes those modules hold. Every rebinding is
    undone on exit.
    """
    # `replacements` keeps every original alive, so its id is unique to it
    by_id = {id(orig): new for orig, new in replacements.items()}
    undo = []

    def swap(owner, name, value):
        if id(value) in by_id:
            undo.append((owner, name, value))
            setattr(owner, name, by_id[id(value)])

    try:
        for module in _bound_modules(prefix):
            for name, value in list(vars(module).items()):
                swap(module, name, value)
                if isinstance(value, type) and value.__module__.startswith(prefix):
                    for attr, member in list(vars(value).items()):
                        swap(value, attr, member)
        yield
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)


def traced(fn, name: str, tracer: Tracer, before=None, after=None):
    """Wrap `fn` in a span; `before` returns span attributes from the call's
    arguments, `after` sees the arguments, the result and the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        with tracer.span(name, **attrs) as record:
            result = fn(*args, **kwargs)
        if after:
            after(args, kwargs, result, record)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# layer aggregation


def totals_by_name(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, total seconds) per span name; a span nested in one of the same
    name counts as a call but not again as time."""
    calls: Counter = Counter()
    seconds: Counter = Counter()
    for s in spans:
        calls[s.name] += 1
        parent, nested = s.parent, False
        while parent is not None and not nested:
            nested = spans[parent].name == s.name
            parent = spans[parent].parent
        if not nested:
            seconds[s.name] += s.duration
    return {name: (calls[name], seconds[name]) for name in calls}


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, the part of a span name before the first dot."""
    out: Counter = Counter()
    for s, own in zip(spans, self_times(spans)):
        out[s.name.split(".", 1)[0]] += own
    return dict(out)


def useful_epoch_share(val_curves: list[list[float]]) -> float:
    """(best validation epoch + 1) over epochs run, summed over tuning runs.

    Each curve starts with the accuracy of the untouched initialization and
    then has one entry per epoch; as in `prompt_tune`, only a strictly higher
    accuracy moves the best epoch.
    """
    useful = run = 0
    for curve in val_curves:
        best, best_epoch = curve[0], -1
        for epoch, acc in enumerate(curve[1:]):
            if acc > best:
                best, best_epoch = acc, epoch
        useful += best_epoch + 1
        run += len(curve) - 1
    return useful / run if run else 0.0
