"""Span recorders installed around the library's public functions.

Recording happens from the benchmark's side only: each traced function is
replaced by a wrapper under every name that refers to it (the defining
module, every ``roughball`` module that imported it, or the class that owns
it), and :meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` is edited, and a wrapper only observes: it passes the arguments and
the result through unchanged.

Each call records a span ``(id, parent_id, name, start, end)`` in memory; the
parent is the innermost traced call open on the same thread.  A span's self
time is its duration minus the durations of its direct children, so the self
times of one run add up to the wall time of its outermost span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _nbytes(*arrays) -> int:
    """Bytes of float64 arrays, computed from their shapes."""
    return sum(8 * int(a.size) for a in arrays)


# Counters run after a traced call returns: counter(tracer, args, kwargs, result).


def _batch_prefix_bytes(tracer, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tracer.counts["paths.batch_prefix_bytes"] += _nbytes(values, *result)


def _pair_increments_elems(tracer, args, kwargs, result):
    b, c = result
    tracer.counts["paths.pair_increments_elems"] += int(b.size + c.size)


def _norm_evals(tracer, args, kwargs, result):
    tracer.counts["algebra.norm_evals"] += int(result.size)


def _pairwise_pairs(tracer, args, kwargs, result):
    tracer.counts["quantize.pairwise_pairs"] += int(result.size)


def _lloyd_iters(tracer, args, kwargs, result):
    tracer.counts["quantize.lloyd_iters"] += len(result.history)


def _artifact_bytes(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["runner.artifact_bytes"] += len(text.encode("utf-8"))


def _plan_key(tracer, args, kwargs, result):
    # SamplerPlan.__init__(self, model, times, ...): one key per (model, grid)
    model, times = args[1], args[2]
    tracer.plan_keys.add((repr(model), tuple(float(t) for t in times)))


# (module, attribute, span name, counter); the attribute may be
# "Class.method".  Every `*_s` metric is the self time of its span.
TARGETS = (
    ("roughball.runner", "run", "runner.run", None),
    ("roughball.runner", "atomic_write", "runner.atomic_write", _artifact_bytes),
    ("roughball.config", "parse_config", "config.parse_config", None),
    ("roughball.gaussian", "sample_rng", "gaussian.sample_rng", None),
    ("roughball.gaussian", "SamplerPlan.draw_increments", "gaussian.draw_increments", None),
    ("roughball.gaussian", "SamplerPlan.__init__", "gaussian.plan", _plan_key),
    ("roughball.paths", "batch_prefix", "paths.batch_prefix", _batch_prefix_bytes),
    ("roughball.paths", "pair_increments", "paths.pair_increments", _pair_increments_elems),
    ("roughball.paths", "difference_increments", "paths.difference_increments", None),
    ("roughball.algebra", "batch_homogeneous_norm", "algebra.batch_homogeneous_norm",
     _norm_evals),
    ("roughball.smallball", "sample_dyadic_level_maxima",
     "smallball.sample_dyadic_level_maxima", None),
    ("roughball.smallball", "curve_from_norms", "smallball.curve_from_norms", None),
    ("roughball.smallball", "fit_variation_index", "smallball.fit_variation_index", None),
    ("roughball.inequalities", "check_anderson", "inequalities.check_anderson", None),
    ("roughball.inequalities", "check_cameron_martin", "inequalities.check_cameron_martin",
     None),
    ("roughball.inequalities", "check_sidak", "inequalities.check_sidak", None),
    ("roughball.inequalities", "check_borell_shift", "inequalities.check_borell_shift", None),
    ("roughball.inequalities", "check_borell_shift_rough",
     "inequalities.check_borell_shift_rough", None),
    ("roughball.quantize", "LiftedSet.from_model", "quantize.from_model", None),
    ("roughball.quantize", "pairwise_distance", "quantize.pairwise_distance", _pairwise_pairs),
    ("roughball.quantize", "lloyd_codebook", "quantize.lloyd_codebook", _lloyd_iters),
    ("roughball.quantize", "quantization_error", "quantize.quantization_error", None),
    ("roughball.quantize", "wasserstein", "quantize.wasserstein", None),
    ("roughball.quantize", "empirical_rate_experiment",
     "quantize.empirical_rate_experiment", None),
)


class Tracer:
    """In-memory span recorder; install, run, uninstall, then summarize."""

    def __init__(self):
        self.spans = []  # (id, parent_id, name, start, end)
        self.counts = defaultdict(int)
        self.plan_keys = set()
        self._local = threading.local()
        self._ids = itertools.count()
        self._count_lock = threading.Lock()
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            with tracer._count_lock:
                tracer.counts[name + "_calls"] += 1
                if counter is not None:
                    counter(tracer, args, kwargs, result)
            return result

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every target under each name that refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for target in TARGETS:
                self._install_one(*target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, mod_name, attr, span, counter):
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, counter))
            else:
                wrapped = self._wrap(raw, span, counter)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = self._wrap(original, span, counter)
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "roughball" or name.startswith("roughball.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def write_spans(self, fh, run: int) -> None:
        """One JSON line per span: run, id, parent id, name, start, end (s)."""
        for span_id, parent, name, start, end in self.spans:
            fh.write(json.dumps([run, span_id, parent, name, round(start, 9),
                                 round(end, 9)]) + "\n")
