"""Span tracing around hotelsim's public functions, from outside the package.

install() replaces each traced function in every hotelsim module namespace
that holds it (the defining module and the modules that imported it by
name), so calls between layers go through the wrapper.  uninstall() puts
the originals back.  Spans (name, start, end, parent, info) and call
counts stay in memory; dump() writes them once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import Counter

TRACED = {
    "well": ("mode_overlap_matrix", "project", "rebase", "free_evolve"),
    "protocol": ("run_ideal_protocol_p", "split_at_nodes", "merge_halves",
                 "adiabatic_retag"),
    "dynamics": ("run_dynamic_protocol", "carpet", "propagate"),
    "optics": ("make_oam_mode", "fourier_lens", "inverse_fourier_lens",
               "sorter_unwrap", "sorter_wrap", "oam_spectrum"),
    "multiplier": ("multiply_oam", "petal_test"),
    "io": ("write_raster", "write_csv", "write_json"),
    "cli": ("run_experiment",),
}


def _segment_kind(segment) -> str:
    feature = segment.feature
    kind = type(feature).__name__
    return f"{kind}-{feature.mode}" if kind == "RampedBarrier" else kind


def _propagate_info(args, kwargs):
    timeline, settings = args[1], args[2]
    steps = sum(max(1, math.ceil(s.duration / settings.dt))
                for s in timeline.segments)
    return {"kind": _segment_kind(timeline.segments[0]),
            "scheme": settings.scheme, "steps": steps}


def _protocol_info(args, kwargs):
    return {"p": args[1].p}


INFO = {"propagate": _propagate_info, "run_ideal_protocol_p": _protocol_info}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, info]
        self.counts = Counter()
        self._stack = []
        self._targets = []   # (module, attribute, original, wrapper)

    def _wrap(self, name, fn):
        info_of = INFO.get(name)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = info_of(args, kwargs) if info_of else None
            misses = cache_info().misses if cache_info else 0
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, info]
            self.spans.append(span)
            self.counts[name] += 1
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if cache_info:
                    span[4] = {"miss": cache_info().misses > misses}
        return traced

    def _find_targets(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "hotelsim" or k.startswith("hotelsim.")]
        for short, names in TRACED.items():
            home = sys.modules[f"hotelsim.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._targets.append((mod, attr, original, wrapper))

    def install(self):
        if not self._targets:
            self._find_targets()
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._targets:
            setattr(mod, attr, original)

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": dict(self.counts)}))


# --- per-layer metrics from the spans ---------------------------------------

def span_key(span) -> str:
    """Function name, with scheme and segment kind for `propagate`."""
    name, info = span[0], span[4]
    if name == "propagate":
        return f"propagate:{info['scheme']}:{info['kind']}"
    return name


def self_times(spans):
    """Each span's time minus the time of its direct children."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def layer_metrics(tracer, first_timed, rounds, layers):
    """Self time and work per round in each of a workload's layers.

    `layers` lists, for layer 1, 2, ..., the span keys that belong to it;
    a member ending in ':' or '-' stands for every key it begins.  Every
    traced span after set-up falls in at most one layer, so the layers'
    times add up without counting a call twice.  Work is the number of
    calls, or of time steps for `propagate`.
    """
    spans = tracer.spans[first_timed:]
    self_t = self_times(tracer.spans)[first_timed:]
    busy = [0.0] * len(layers)
    work = [0] * len(layers)
    for span, t in zip(spans, self_t):
        key = span_key(span)
        for i, members in enumerate(layers):
            if any(key == m or (m[-1] in ":-" and key.startswith(m))
                   for m in members):
                busy[i] += t
                work[i] += span[4]["steps"] if span[0] == "propagate" else 1
                break
    out = {}
    for i in range(len(layers)):
        out[f"layer{i + 1}_s"] = (busy[i] / rounds, "s/round")
        out[f"layer{i + 1}_work"] = (work[i] / rounds, "count/round")
    return out


def overhead_pct(traced_rounds, plain_rounds):
    return (100.0 * (statistics.median(traced_rounds)
                     / statistics.median(plain_rounds) - 1.0), "%")
