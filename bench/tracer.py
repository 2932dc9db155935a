"""Outside-in tracing of su11sim: spans and counters around each layer's
public functions, installed by replacing module attributes.

Nothing under src/ changes.  The modules call each other, and themselves,
through module globals (``gaussian.run_interferometer(...)``,
``sensitivity(...)`` inside metrics), so a replaced attribute sees every call.
Spans stay in memory and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

# Functions wrapped per layer.  The Gaussian element functions (squeezer,
# loss, phase, ...) are left out: each costs a few microseconds of Python,
# so a span around each would cost about as much as the work it times.
# The two private per-point functions of sweep give the busy time of the
# thread pool.
LAYERS = {
    "cli": ("main",),
    "sweep": (
        "run_sweep", "validate", "figure_table", "write_figure",
        "sweep_to_csv", "sweep_to_json", "_evaluate_point", "_validate_point",
    ),
    "metrics": (
        "optimal_sensitivity", "sensitivity", "mean_derivative",
        "visibility_numeric", "shot_noise_level",
    ),
    "gaussian": ("run_interferometer", "photon_stats", "state_after_first_opa"),
    "closed_form": (
        "shorthand", "mean_signal", "mean_signal_derivative", "visibility",
        "ideal_sensitivity",
    ),
    "fock": (
        "pipeline", "displace", "squeeze", "loss", "phase_shift",
        "photon_stats", "suggested_cutoff",
    ),
}

POINT_SPANS = ("sweep._evaluate_point", "sweep._validate_point")
EMIT_SPANS = ("sweep.sweep_to_csv", "sweep.sweep_to_json")
FOCK_STATE_SPANS = ("fock.displace", "fock.squeeze", "fock.loss", "fock.phase_shift")

# span fields
NAME, START, END, PARENT, THREAD, CPU = range(6)


class Tracer:
    """Spans (name, start, end, parent, thread, thread CPU) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {
            "emit_bytes": 0,
            "fock_cutoff_max": 0,
            "fock_cutoff_escalations": 0,
            "fock_state_bytes_max": 0,
            "fock_norm_deficit_max": 0.0,
        }
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._norm_deficit = None

    def install(self):
        """Replace every function in LAYERS by a span-recording wrapper."""
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"su11sim.{layer}")
            if layer == "fock":
                self._norm_deficit = module.norm_deficit
            for fname in names:
                fn = getattr(module, fname)
                setattr(module, fname, self._wrap(f"{layer}.{fname}", fn))

    def _wrap(self, name, fn):
        spans, local, main_stack = self.spans, self._local, self._main_stack
        perf, thread_time, ident = time.perf_counter, time.thread_time, threading.get_ident
        cpu = name in POINT_SPANS
        hook = self._hook_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a pool thread's outermost span was caused by the main thread's
            # innermost open span (run_sweep or validate)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name, 0.0, 0.0, parent, ident(), 0.0]
            spans.append(span)
            stack.append(span)
            c0 = thread_time() if cpu else 0.0
            span[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf()
                if cpu:
                    span[CPU] = thread_time() - c0
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hook_for(self, name):
        if name in EMIT_SPANS:
            return self._count_text
        if name == "sweep.write_figure":
            return self._count_files
        if name in FOCK_STATE_SPANS:
            return self._count_fock_state
        return None

    def _count_text(self, args, text):
        with self._lock:
            self.counters["emit_bytes"] += len(text.encode())

    def _count_files(self, args, paths):
        size = sum(Path(p).stat().st_size for p in paths)
        with self._lock:
            self.counters["emit_bytes"] += size

    def _count_fock_state(self, args, state):
        # state bytes are computed from the array size, not measured
        d_in, d_out = args[0].cutoff, state.cutoff
        nbytes = state.tensor.size * state.tensor.itemsize
        deficit = self._norm_deficit(state)
        c = self.counters
        with self._lock:
            c["fock_cutoff_max"] = max(c["fock_cutoff_max"], d_out)
            c["fock_cutoff_escalations"] += d_out > d_in
            c["fock_state_bytes_max"] = max(c["fock_state_bytes_max"], nbytes)
            c["fock_norm_deficit_max"] = max(c["fock_norm_deficit_max"], deficit)

    def write_spans(self, path):
        """Write the spans as JSON rows [name, start_s, end_s, parent_row, thread]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        names = sorted({span[NAME] for span in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        threads = sorted({span[THREAD] for span in self.spans})
        thread_ix = {t: i for i, t in enumerate(threads)}
        t0 = min((span[START] for span in self.spans), default=0.0)
        rows = [
            [
                name_ix[span[NAME]],
                round(span[START] - t0, 7),
                round(span[END] - t0, 7),
                -1 if span[PARENT] is None else index[id(span[PARENT])],
                thread_ix[span[THREAD]],
            ]
            for span in self.spans
        ]
        payload = {"names": names, "fields": ["name", "start_s", "end_s", "parent", "thread"],
                   "spans": rows, "counters": self.counters}
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced run.

    Times (s) are summed span durations; with the sweep thread pool they are
    summed over threads.  ``closed_form.calls`` and ``closed_form.s`` count
    only spans entered from another layer, so calls nested inside the layer
    are not counted twice.  Self time is a span's duration minus the part of
    it covered by its children, which may run on other threads.
    """
    spans = tracer.spans
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)

    def layer(span):
        return span[NAME].split(".", 1)[0]

    def dur(span):
        return span[END] - span[START]

    def self_time(span):
        kids = children.get(id(span), ())
        return dur(span) - _covered([(k[START], k[END]) for k in kids], span[START], span[END])

    calls: dict[str, int] = {}
    time_s: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    layer_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    runs_in_optimum = 0
    for span in spans:
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        time_s[name] = time_s.get(name, 0.0) + dur(span)
        lay = layer(span)
        layer_self[lay] = layer_self.get(lay, 0.0) + self_time(span)
        parent = span[PARENT]
        if parent is None or layer(parent) != lay:
            layer_calls[lay] = layer_calls.get(lay, 0) + 1
            layer_s[lay] = layer_s.get(lay, 0.0) + dur(span)
        if name == "gaussian.run_interferometer":
            while parent is not None and parent[NAME] != "metrics.optimal_sensitivity":
                parent = parent[PARENT]
            runs_in_optimum += parent is not None

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return time_s.get(name, 0.0)

    def per_call(name, scale):
        return s(name) / n(name) * scale if n(name) else 0.0

    pool_wall = sum(s(name) for name in ("sweep.run_sweep", "sweep.validate"))
    point_cpu = sum(span[CPU] for span in spans if span[NAME] in POINT_SPANS)
    figure_emit = sum(self_time(span) for span in spans if span[NAME] == "sweep.write_figure")
    c = tracer.counters
    return {
        "cli.main.s": s("cli.main"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "sweep.run_sweep.s": s("sweep.run_sweep"),
        "sweep.validate.s": s("sweep.validate"),
        "sweep.self_s": layer_self.get("sweep", 0.0),
        "sweep.rows": sum(n(p) for p in POINT_SPANS),
        "sweep.parallelism": point_cpu / pool_wall if pool_wall else 0.0,
        "sweep.emit.s": sum(s(e) for e in EMIT_SPANS) + figure_emit,
        "sweep.emit.bytes": c["emit_bytes"],
        "metrics.optimal_sensitivity.calls": n("metrics.optimal_sensitivity"),
        "metrics.optimal_sensitivity.s": s("metrics.optimal_sensitivity"),
        "metrics.optimal_sensitivity.ms_per_call": per_call("metrics.optimal_sensitivity", 1e3),
        "metrics.sensitivity.calls": n("metrics.sensitivity"),
        "metrics.runs_per_optimum": (
            runs_in_optimum / n("metrics.optimal_sensitivity")
            if n("metrics.optimal_sensitivity") else 0.0
        ),
        "metrics.visibility_numeric.calls": n("metrics.visibility_numeric"),
        "metrics.visibility_numeric.s": s("metrics.visibility_numeric"),
        "metrics.shot_noise_level.calls": n("metrics.shot_noise_level"),
        "metrics.self_s": layer_self.get("metrics", 0.0),
        "gaussian.run_interferometer.calls": n("gaussian.run_interferometer"),
        "gaussian.run_interferometer.s": s("gaussian.run_interferometer"),
        "gaussian.run_interferometer.us_per_call": per_call("gaussian.run_interferometer", 1e6),
        "gaussian.photon_stats.calls": n("gaussian.photon_stats"),
        "gaussian.photon_stats.s": s("gaussian.photon_stats"),
        "closed_form.calls": layer_calls.get("closed_form", 0),
        "closed_form.s": layer_s.get("closed_form", 0.0),
        "closed_form.mean_signal_derivative.calls": n("closed_form.mean_signal_derivative"),
        "fock.pipeline.calls": n("fock.pipeline"),
        "fock.pipeline.s": s("fock.pipeline"),
        "fock.pipeline.s_per_call": per_call("fock.pipeline", 1.0),
        "fock.squeeze.calls": n("fock.squeeze"),
        "fock.squeeze.s": s("fock.squeeze"),
        "fock.loss.calls": n("fock.loss"),
        "fock.loss.s": s("fock.loss"),
        "fock.displace.calls": n("fock.displace"),
        "fock.displace.s": s("fock.displace"),
        "fock.cutoff.max": c["fock_cutoff_max"],
        "fock.cutoff_escalations": c["fock_cutoff_escalations"],
        "fock.state_bytes.max": c["fock_state_bytes_max"],
        "fock.norm_deficit.max": c["fock_norm_deficit_max"],
    }
