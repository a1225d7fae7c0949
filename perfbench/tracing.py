"""Spans around calls into qnshape's layers, recorded from outside the package.

``Tracer.install`` wraps every public function of each loaded layer module
and rebinds *every* name that refers to it in any loaded qnshape module, so
calls through names bound at import time are traced too: ``deltasigma``
binds ``modulator_core`` and ``multichannel`` binds ``optimal_sq`` that way.
A span records its name (``<layer>.<function>``), start, end and parent;
spans stay in memory until ``take`` hands them over.  This module imports
only the standard library so it can be loaded before qnshape.
"""

import contextlib
import functools
import inspect
import sys
import time

# module -> layer name; the kernel module is private but is its own layer
LAYERS = {
    "qnshape.cli": "cli",
    "qnshape.spectral": "spectral",
    "qnshape.capacity": "capacity",
    "qnshape.shaping": "shaping",
    "qnshape.deltasigma": "deltasigma",
    "qnshape._kernels": "kernels",
    "qnshape.multichannel": "multichannel",
}
# private functions traced anyway: the CLI's plot-data CSV writer
PRIVATE = {("qnshape.cli", "_write_curves_csv")}

# span attributes read from a call's bound arguments and its result
OBSERVE = {
    "deltasigma.design_ntf": lambda a, r: {"order": int(a["cfg"].order)},
    "deltasigma.simulate": lambda a, r: {"stable": bool(r.stability_flag),
                                         "saturations": int(r.saturation_count)},
    "kernels.modulator_core": lambda a, r: {"samples": int(len(a["x"]))},
    "shaping.optimal_sq_numerical": lambda a, r: {"iterations": int(r.iterations),
                                                  "converged": bool(r.converged)},
    "multichannel.partition_constrained": lambda a, r: {"n": int(a["n"]), "mode": a["mode"]},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block; yields its attribute dict."""
        sid = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, name):
        observe = OBSERVE.get(name)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe:
                    # a changed signature or result type must not fail the call
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        attrs.update(observe(bound.arguments, result))
                    except (AttributeError, KeyError, TypeError) as exc:
                        attrs["observe_error"] = repr(exc)
                return result

        return traced

    def install(self):
        """Wrap the layer functions of every qnshape module loaded so far."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and (not attr.startswith("_") or (modname, attr) in PRIVATE)
                        and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__.lstrip('_')}")
        for modname, mod in list(sys.modules.items()):
            if modname != "qnshape" and not modname.startswith("qnshape."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def take(self):
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per-function total time, per-layer self time and call counts, and the
    attributed spans (with durations) of one group of spans.

    A span's self time is its duration minus the durations of its direct
    children; the layer calls run on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {"total": {}, "self": {}, "layer_calls": {}, "events": [], "spans": len(spans)}
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        layer = name.split(".", 1)[0]
        out["total"][name] = out["total"].get(name, 0.0) + dur
        out["self"][layer] = out["self"].get(layer, 0.0) + dur - child[i]
        out["layer_calls"][layer] = out["layer_calls"].get(layer, 0) + 1
        if s["attrs"] or name in OBSERVE:
            out["events"].append({"name": name, "dur": dur, **s["attrs"]})
    return out


def merge(summaries):
    """Combine the summaries of several span groups (e.g. CLI children)."""
    out = summarize([])
    for summary in summaries:
        for key in ("total", "self", "layer_calls"):
            for name, value in summary[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["events"].extend(summary["events"])
        out["spans"] += summary["spans"]
    return out
