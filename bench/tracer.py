"""Span tracer that wraps ridgeopt's public functions from outside the package.

``Tracer.install`` replaces module attributes (and a few extra targets such
as the closed-form argmax stored on each registered problem) with wrappers
that record a span per call: name, start, end and the index of the span that
was open when the call began.  Spans stay in memory until ``restore`` puts
every original object back.  Calls that happen ~10^5 times per run (scalar
``expr.eval``) are aggregated instead: a count and a total time, charged to
the open span so that its self time stays correct.

Self time of a span is its duration minus the part of its interval covered
by its child spans, minus the aggregated calls made while it was on top.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# layers whose public functions are traced, in dependency order
LAYERS = ("expr", "hull", "oracles", "problems", "ridge", "fractal", "cli")
# scalar evaluation is called per golden-section probe: count, don't span
AGGREGATED = frozenset({"expr.eval"})


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def public_functions(module):
    """Names of the functions a module defines and does not mark private."""
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)


class Tracer:
    """Records spans and per-name observations for the wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span is [name, start, end, parent, aggregated child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.agg_calls: dict[str, int] = defaultdict(int)
        self.agg_s: dict[str, float] = defaultdict(float)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._observers: dict[str, callable] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        observe = self._observers.get(name)
        if name in AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                t0 = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = self.clock() - t0
                    self.agg_calls[name] += 1
                    self.agg_s[name] += dt
                    if self.stack:
                        self.spans[self.stack[-1]][4] += dt
            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, self.clock(), None, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                span[2] = self.clock()
                self.stack.pop()
            if observe is not None:
                observe(self.counters, fn, args, kwargs, result)
            return result
        return spanned

    def observe(self, name: str, fn) -> None:
        """Call ``fn(counters, wrapped, args, kwargs, result)`` after ``name``.

        Register observers before ``install``: wrappers bind them then.
        """
        self._observers[name] = fn

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(name, original))

    def install(self, modules: dict, extra=()) -> None:
        """Wrap every public function of each ``{layer: module}`` entry.

        ``extra`` holds (owner, attribute, span name) triples for targets
        that are not module functions, such as methods and stored callables.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module in modules.items():
            for attr in public_functions(module):
                self.patch(module, attr, f"{layer}.{attr}")
        for owner, attr, name in extra:
            self.patch(owner, attr, name)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded data; patches stay as they are."""
        if self.stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        self.agg_calls.clear()
        self.agg_s.clear()
        self.raised.clear()
        self.counters.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent, agg) in enumerate(self.spans):
            dur = end - start
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - covered(children.get(i, ()), start, end) - agg
        for name, calls in self.agg_calls.items():
            out[name]["calls"] += calls
            out[name]["incl_s"] += self.agg_s[name]
            out[name]["self_s"] += self.agg_s[name]
        return dict(out)
