"""Spans around the calls into each qstrat layer, for the traced run only.

``install`` replaces the package's public entry points, at every module or
class attribute the package resolves them through, with wrappers that record
a span (name, start, end, parent, item count, error) per call.  It returns a
function that puts the originals back.  Spans stay in memory; per-layer self
times are derived from them once the run is over.
"""

from __future__ import annotations

import functools
import types
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "items", "error")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.items = 0
        self.error = None


class NullTracer:
    """Tracer of the untimed and untraced paths: records nothing."""

    class _NullSpan:
        items = 0

    @contextmanager
    def span(self, name: str):
        yield self._NullSpan()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span, error: BaseException | None) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if error is not None:
            span.error = type(error).__name__

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, exc)
            raise
        self._close(span, None)

    def wrap(self, fn, name: str, items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                raise
            span.items = items(args, out) if items else 0
            self._close(span, None)
            return out

        return wrapper


def _entry_points():
    """(owner, attribute, span name, item counter) of every wrapped entry point.

    Functions are listed by identity and wrapped under every alias a qstrat
    module holds, e.g. ``sampling.qs_uniform_batches`` and the copy of the
    name imported into ``experiments``.
    """
    from qstrat import distributions, estimators, experiments, sampling, theory

    modules = (distributions, estimators, experiments, sampling, theory)
    functions = [
        (estimators.importance_weight, "estimators.weight", lambda a, out: np.size(a[0])),
        (estimators.estimate_replicates, "estimators.replicates",
         lambda a, out: out.replicates),
        (sampling.spawn_seed, "sampling.spawn_seed", None),
        (experiments.rows_to_csv, "experiments.render", lambda a, out: len(out)),
        (experiments.report_to_json, "experiments.render", lambda a, out: len(out)),
    ]
    for method in ("iid", "qs", "lqs"):
        functions.append((getattr(sampling, f"sample_{method}", None), "sampling.sample",
                          lambda a, out: out.m))
        functions.append((getattr(sampling, f"{method}_uniform_batches", None),
                          "sampling.uniform_batches", lambda a, out: out[0].size))
    for attr in theory.__all__:
        obj = getattr(theory, attr)
        if isinstance(obj, types.FunctionType):
            functions.append((obj, "theory", None))

    points = []
    for fn, name, items in functions:
        for module in modules:
            for attr, value in vars(module).items():
                if fn is not None and value is fn:
                    points.append((module, attr, name, items))
    spacing_law = getattr(theory, "SpacingLaw", object)
    methods = [(distributions.Distribution, "quantile", "distributions.quantile",
                lambda a, out: np.size(a[1])),
               (spacing_law, "cdf", "theory", None),
               (spacing_law, "pdf", "theory", None)]
    # An entry point that a later version of the package drops is skipped.
    return points + [m for m in methods if m[1] in vars(m[0])]


def install(tracer: Tracer):
    """Wrap every entry point; return the function that restores them."""
    saved = []
    for owner, attr, name, items in _entry_points():
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, items))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


SAMPLING = ("sampling.sample", "sampling.uniform_batches")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass counts and self times of each layer, with their units.

    A span's self time is its duration minus the durations of its child
    spans.  Calls into ``sampling`` and ``theory`` are counted where they
    enter the layer, so an LQS generator calling the QS one counts once.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    calls, items, self_s, errors, entries, entry_items = {}, {}, {}, {}, {}, {}
    for i, span in enumerate(spans):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        items[name] = items.get(name, 0) + span.items
        self_s[name] = self_s.get(name, 0.0) + (span.end - span.start - child[i])
        errors[name] = errors.get(name, 0) + (span.error is not None)
        layer = "sampling" if name in SAMPLING else name
        parent = spans[span.parent].name if span.parent >= 0 else ""
        parent_layer = "sampling" if parent in SAMPLING else parent
        if layer in ("sampling", "theory") and parent_layer != layer:
            entries[layer] = entries.get(layer, 0) + 1
            entry_items[layer] = entry_items.get(layer, 0) + span.items

    def per_pass(table, key, unit="count/pass"):
        return table.get(key, 0) / passes, unit

    q_calls = calls.get("distributions.quantile", 0)
    q_points = items.get("distributions.quantile", 0)
    sampling_s = self_s.get(SAMPLING[0], 0.0) + self_s.get(SAMPLING[1], 0.0)
    return {
        "distributions.quantile_calls": per_pass(calls, "distributions.quantile"),
        "distributions.quantile_points": per_pass(items, "distributions.quantile"),
        "distributions.points_per_call":
            (q_points / q_calls if q_calls else 0.0, "points/call"),
        "distributions.quantile_s": per_pass(self_s, "distributions.quantile", "s/pass"),
        "distributions.quantile_errors": per_pass(errors, "distributions.quantile"),
        "estimators.replicates": per_pass(items, "estimators.replicates"),
        "estimators.weight_calls": per_pass(calls, "estimators.weight"),
        "estimators.weight_s": per_pass(self_s, "estimators.weight", "s/pass"),
        "estimators.loop_self_s": per_pass(self_s, "estimators.replicates", "s/pass"),
        "sampling.spawn_seed_calls": per_pass(calls, "sampling.spawn_seed"),
        "sampling.spawn_seed_s": per_pass(self_s, "sampling.spawn_seed", "s/pass"),
        "sampling.uniform_calls": per_pass(entries, "sampling"),
        "sampling.uniform_points": per_pass(entry_items, "sampling"),
        "sampling.uniform_s": (sampling_s / passes, "s/pass"),
        "theory.calls": per_pass(entries, "theory"),
        "theory.s": per_pass(self_s, "theory", "s/pass"),
        "experiments.self_s": per_pass(self_s, "experiments.run", "s/pass"),
        "experiments.rows": per_pass(items, "experiments.run"),
        "experiments.render_s": per_pass(self_s, "experiments.render", "s/pass"),
        "experiments.render_bytes": per_pass(items, "experiments.render", "bytes/pass"),
    }
