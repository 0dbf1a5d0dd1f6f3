"""Spans around the public functions of the loewner modules, from outside.

`Tracer.install` replaces every public function of every loewner module by a
wrapper, in every loewner namespace that binds it (so cross-module names such
as ``loewner.measures.loewner_leq`` are covered too); no library file changes.
A span records its name, layer (the module), start, end, parent span, the op
it belongs to, the phase of the run, the exception type it raised and, for
suites, the trials it ran.  Spans stay in memory and are written out once,
when the run ends.  A span's self time is its duration minus the durations of
its direct children (see `Tracer.self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("numlin", "shorted", "pencil", "builders", "verify", "measures", "jsonio", "cli")

# span fields
NAME, LAYER, START, END, PARENT, OP, PHASE, ERROR, TRIALS, SKIPPED = range(10)


def realization_structure(r) -> str:
    """Which evaluation structure a realization has: scalar, arrowhead or generic.

    Scalar when the auxiliary dimension is 1; arrowhead when, after the
    Householder rotation of e onto e1, every coefficient's aux-by-aux block is
    diagonal; generic otherwise.  Computed here from the realization alone so
    that the label does not depend on the library's private helpers.
    """
    if r.m == 1:
        return "scalar"
    e = np.asarray(r.e, dtype=float)
    v = e - np.eye(r.m)[0]
    vv = float(v @ v)
    q = np.eye(r.m) if vv <= 1e-28 else np.eye(r.m) - (2.0 / vv) * np.outer(v, v)
    for c in (r.a0, *r.coeffs):
        aux = (q @ c.entries @ q.T)[1:, 1:]
        if np.count_nonzero(aux - np.diag(np.diag(aux))):
            return "generic"
    return "arrowhead"


class Tracer:
    """In-memory span recorder; records only while ``recording`` is set."""

    def __init__(self):
        self.spans: list = []
        self.recording = False
        self.phase = "setup"
        self.op = -1
        self._stack: list = []
        self._patches: list = []
        self._structure: dict = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("loewner")]
        modules += [importlib.import_module(f"loewner.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            names = ["main"] if layer == "cli" else list(mod.__all__)
            for name in names:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", fn, self._labeller(layer, name))
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, attr, wrapper)
                            self._patches.append((target, attr, fn))

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    def _labeller(self, layer: str, name: str):
        if layer == "pencil" and name in ("eval", "eval_complex"):
            return lambda r, *args, **kwargs: self._structure_of(r)
        if layer == "cli":
            return lambda argv=None, *args, **kwargs: argv[0] if argv else "none"
        if layer == "builders" and name == "build_realization":
            return lambda spec, *args, **kwargs: (
                spec.partition(":")[0] if isinstance(spec, str) else spec.tag)
        return None

    def _structure_of(self, r) -> str:
        # keyed by id, holding r so the id cannot be reused by another object
        hit = self._structure.get(id(r))
        if hit is None:
            hit = (r, realization_structure(r))
            self._structure[id(r)] = hit
        return hit[1]

    def _wrap(self, layer, name, fn, label):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            return tracer.span(span_name, layer, fn, *args, **kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    def span(self, name, layer, fn, *args, **kwargs):
        """Call fn inside a span; used by the wrappers and for op root spans."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, 0, 0, parent, self.op, self.phase, None, 0, 0]
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record[ERROR] = type(exc).__name__
            raise
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
        dims = getattr(result, "dims", None)
        if dims is not None and hasattr(result, "skipped"):
            record[TRIALS] = int(result.trials) * len(dims)
            record[SKIPPED] = int(result.skipped)
        return result

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> tuple:
        """Self times in ns: strict, and within the span's own layer.

        Strict self time is the duration minus all direct children; it
        partitions the traced time, so layer totals sum it.  In-layer self
        time also keeps the in-layer self time of same-layer children, so a
        public function that delegates to other public functions of its own
        module (``build_realization`` -> ``loewner_quadrature``) still owns
        that work; per-function metrics use it.
        """
        dur = np.array([s[END] - s[START] for s in self.spans], dtype=np.int64)
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= d
        in_layer = own.copy()
        # children are appended after their parent, so walk backwards
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][PARENT]
            if parent >= 0 and self.spans[parent][LAYER] == self.spans[i][LAYER]:
                in_layer[parent] += in_layer[i]
        return own, in_layer

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (times in microseconds)."""
        own, _ = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tlayer\tphase\top\tparent\tstart_us\tdur_us\tself_us\terror\n")
            for i, (s, o) in enumerate(zip(self.spans, own)):
                fh.write(f"{i}\t{s[NAME]}\t{s[LAYER]}\t{s[PHASE]}\t{s[OP]}\t{s[PARENT]}\t"
                         f"{(s[START] - t0) / 1e3:.3f}\t{(s[END] - s[START]) / 1e3:.3f}\t"
                         f"{o / 1e3:.3f}\t{s[ERROR] or ''}\n")
