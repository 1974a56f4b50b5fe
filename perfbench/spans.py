"""In-memory span tracing of the modroute layers, installed from outside.

``install`` replaces the public functions and public methods of each layer
module with wrappers that record one span per call: (name, start, end,
parent span). Nothing under ``src/`` is edited; the wrappers are set on the
module namespaces and classes at run time, including every other modroute
module that imported a function by name (``sac.squashed_gaussian`` is the
same object as ``network.squashed_gaussian`` and gets the same span name).

A span's name is ``<defining module>.<qualname>``, so a function is reported
under the layer that implements it, wherever it is called from.

Not wrapped, because a span would cost more than the call it measures:
``autodiff``'s dual-backend dispatch helpers (``relu``, ``affine``,
``is_var``, ...) and the ``Var`` operator methods. On the tape path each of
them ends in ``Tape.record``, which is wrapped; on the numpy path their
arithmetic is self time of the calling layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

# the measured layers, in report order; the remaining modroute modules
# (config, cli, analysis, seeding, __init__) only forward to these
LAYERS = ("sac", "autodiff", "network", "routing", "envs", "replay", "checkpoint")
THIN_WRAPPERS = ("config", "cli", "analysis", "seeding")

# autodiff is measured at the tape: see the module docstring
_AUTODIFF_WRAPPED = {"Tape", "gradient_check"}


class Tracer:
    """Span recorder; spans live in a flat list until ``write``."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index); a parent always precedes
        # its children because a span's slot is taken when it opens
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str, name_of=None, after=None):
        """Wrapper recording a span per call of ``fn``.

        ``name_of(args, kwargs)`` may return a suffix that splits the span
        name by call kind; ``after(args, kwargs, result)`` updates counters.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        base = self.name_id(name, layer)
        variants = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base
            if name_of is not None:
                suffix = name_of(args, kwargs)
                nid = variants.get(suffix)
                if nid is None:
                    nid = variants[suffix] = self.name_id(f"{name}.{suffix}", layer)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def span(self, name: str, layer: str = "bench"):
        """Context manager for a harness-owned span (e.g. one iteration)."""
        return _Span(self, self.name_id(name, layer))

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: str) -> None:
        t_base = min((s[1] for s in self.spans), default=0)
        data = {
            "names": self.names,
            "layers": self.layers,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[n, t0 - t_base, t1 - t_base, p] for n, t0, t1, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t.stack[-1]
        t.stack.append(self.idx)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        self.tracer.stack.pop()
        self.tracer.spans[self.idx] = (self.nid, self.t0, t1, self.parent)
        return False


# ---------------------------------------------------------------------------
# installing the wrappers


def _forward_kind(args, kwargs):
    return "numpy" if kwargs.get("params") is None else "taped"


def _hooks(tracer: Tracer) -> dict:
    """Counters taken from the arguments and results at layer boundaries."""
    c = tracer.counters

    def forward_done(args, kwargs, res):
        rows = res.effective.shape[0]
        c["forward.modules_evaluated"] += len(res.module_outputs)
        c["forward.cells_useful"] += float(res.effective.sum())
        c["forward.cells_computed"] += rows * len(res.module_outputs)

    def train_step_done(args, kwargs, metrics):
        if metrics is not None:
            c["train_step.masked_tasks"] += float((~metrics["included"]).sum())

    def save_done(args, kwargs, _):
        c["save_checkpoint.bytes"] += os.path.getsize(kwargs.get("path") or args[0])

    return {
        "network.ModulePolicy.forward": (_forward_kind, forward_done),
        "sac.Trainer.train_step": (None, train_step_done),
        "checkpoint.save_checkpoint": (None, save_done),
    }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer's public functions and methods; returns span names."""
    modules = {name: importlib.import_module(f"modroute.{name}")
               for name in LAYERS + THIN_WRAPPERS}
    namespaces = [importlib.import_module("modroute"), *modules.values()]
    hooks = _hooks(tracer)
    wrapped = []
    for layer in LAYERS:
        module = modules[layer]
        for attr, fn in _public_functions(module):
            if layer == "autodiff" and attr not in _AUTODIFF_WRAPPED:
                continue
            name = f"{layer}.{attr}"
            name_of, after = hooks.get(name, (None, None))
            w = tracer.wrap(fn, name, layer, name_of, after)
            for ns in namespaces:  # every binding of this function object
                if getattr(ns, attr, None) is fn:
                    setattr(ns, attr, w)
            wrapped.append(name)
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls) \
                    or cls.__module__ != module.__name__:
                continue
            if layer == "autodiff" and cls_name not in _AUTODIFF_WRAPPED:
                continue
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{cls_name}.{attr}"
                name_of, after = hooks.get(name, (None, None))
                setattr(cls, attr, tracer.wrap(fn, name, layer, name_of, after))
                wrapped.append(name)
    return wrapped


# ---------------------------------------------------------------------------
# the report


def summarize(tracer: Tracer, first: int, last: int, iterations: int) -> dict:
    """Per-span-name calls, median and self time over spans[first:last].

    Only spans opened inside the timed window are counted. Self time is the
    span's duration minus the time its child spans cover.
    """
    spans = tracer.spans[first:last]
    n = len(spans)
    names = np.fromiter((s[0] for s in spans), dtype=np.int64, count=n)
    t0 = np.fromiter((s[1] for s in spans), dtype=np.int64, count=n)
    t1 = np.fromiter((s[2] for s in spans), dtype=np.int64, count=n)
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n) - first
    dur = (t1 - t0).astype(np.float64) / 1e6
    child = np.zeros(n)
    inside = parent >= 0
    np.add.at(child, parent[inside], dur[inside])
    self_ms = dur - child

    per_name = {}
    for nid in np.unique(names):
        sel = names == nid
        per_name[tracer.names[nid]] = {
            "layer": tracer.layers[nid],
            "calls": int(sel.sum()),
            "calls_per_iter": float(sel.sum()) / iterations,
            "median_ms": float(np.median(dur[sel])),
            "total_ms": float(dur[sel].sum()),
            "self_median_ms": float(np.median(self_ms[sel])),
            "self_total_ms": float(self_ms[sel].sum()),
            "self_ms_per_iter": float(self_ms[sel].sum()) / iterations,
        }
    per_layer = defaultdict(float)
    for entry in per_name.values():
        per_layer[entry["layer"]] += entry["self_ms_per_iter"]
    return {"spans": per_name, "layer_self_ms_per_iter": dict(per_layer)}
