"""Outside-in layer tracing: wrap the package's public functions from here.

The package binds names at import (``from .estimators import fe``), so a
wrapper replaces the name in every ``tmgpanel`` module that holds the same
function object. ``PanelDesign`` is traced through its ``__init__``. Spans
stay in memory as (id, parent, name, start, end, bytes) and are written out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

#: (module, attribute) of every traced call; the span name is "<module>.<attr>".
TARGETS = (
    ("montecarlo", "run_experiment"),
    ("montecarlo", "generate_replication"),
    ("designs", "PanelDesign.__init__"),
    ("_kernels", "gram_det_adj"),
    ("trimming", "compute_threshold"),
    ("trimming", "delta_weights"),
    ("estimators", "fe"),
    ("estimators", "mg"),
    ("estimators", "tmg"),
    ("estimators", "gp"),
    ("estimators", "gp_threshold"),
    ("timeeffects", "chamberlain_projectors"),
    ("timeeffects", "chamberlain_phi"),
    ("timeeffects", "fete"),
    ("timeeffects", "tmg_te"),
    ("timeeffects", "gp_te"),
    ("hausman", "hausman_no_te"),
    ("hausman", "hausman_te"),
    ("panel", "read_panel_csv"),
    ("cli", "main"),
)


def _gram_bytes(args):
    # W (n,T,k) in; gram (n,k,k), d (n,), adj (n,k,k) out; float64
    n, T, k = args[0].shape
    return 8 * (n * T * k + 2 * n * k * k + n)


_BYTES = {"_kernels.gram_det_adj": _gram_bytes}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size = _BYTES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, size(args) if size else 0))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {k: v for k, v in sys.modules.items() if k.startswith("tmgpanel")}
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr.split('.')[0]}"
            home = mods.get(f"tmgpanel.{mod_name}")
            if home is None:  # not imported by this workload, so never called
                continue
            if attr.endswith(".__init__"):
                cls = getattr(home, attr.split(".")[0])
                self._patch(cls, "__init__", self._wrap(name, cls.__init__))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        while self._patches:
            obj, key, value = self._patches.pop()
            setattr(obj, key, value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds and bytes.

    Self time is a span's duration minus the durations of its direct children
    (children never outlive their parent, so they cover disjoint sub-intervals).
    """
    child_time = {}
    for sid, parent, name, t0, t1, nbytes in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, parent, name, t0, t1, nbytes in spans:
        rec = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "bytes": 0})
        rec["calls"] += 1
        rec["incl_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        rec["bytes"] += nbytes
    return out
