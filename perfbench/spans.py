"""Spans and counters around the program's layers, recorded from outside.

``Tracer.install()`` replaces every public function of every ``anyons``
module with a timing wrapper, in every module namespace that holds it, so
names re-bound by ``from ... import`` (``knots.evaluate``,
``toric.commutation_phase``) are traced too.  ``uninstall()`` puts the
originals back; untraced runs never install anything.

A span is ``[name, start, end, parent, job, folded]``.  Spans stay in
memory and are written out once, at the end of the run.  A few leaf
functions run hundreds of thousands of times per job (one call per bracket
state, scored braid word, stabilizer pair, F-table index tuple or vertex
branching); they are *folded*: each call adds its count and time to
per-function totals and to its parent span's ``folded`` time instead of
storing a span.  A span's self time is its duration minus its child spans
and folded calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "fusion", "fsymbols", "braids", "laurent", "knots",
          "trace_estimation", "pauli", "toric", "stringnet")

FOLDED = frozenset({"knots.smoothing_loops", "braids.projective_distance",
                    "pauli.commutation_phase", "fsymbols.f_admissible",
                    "stringnet.branching_allowed"})

_LAURENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")


def _work_counts(name, args, out):
    """Work counters taken from a traced call's arguments or result."""
    if name == "knots.kauffman_bracket":
        return "knots.crossings", len(args[0].letters)
    if name == "fusion.enumerate_fusion_trees":
        return "fusion.trees_enumerated", len(out)
    if name == "toric.build_stabilizers":
        return "toric.stabilizers_built", len(out[0]) + len(out[1])
    if name == "toric.correct":
        return "toric.defects_paired", len(args[1].vertex) + len(args[1].face)
    if name == "toric.ground_state":
        return "toric.dense_qubits", args[0].n_edges
    if name == "trace_estimation.hadamard_test_trace":
        return "trace_estimation.shots", out.shots
    if name == "fsymbols.pentagon_residual":
        # computed from the model size: the two k^9 einsum outputs
        return "fsymbols.pentagon_elements", 2 * len(args[0].labels) ** 9
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.job = -1
        self.folded_calls: Counter = Counter()
        self.folded_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.largest_pentagon = None  # (k, args) of the largest model seen
        self._undo: list = []

    # -- installation --------------------------------------------------

    def install(self):
        package = importlib.import_module("anyons")
        modules = [package] + [importlib.import_module(f"anyons.{m}") for m in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = (self._fold if name in FOLDED else self._wrap)(name, fn)
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, alias, fn))
                            setattr(holder, alias, wrapped)
        poly = importlib.import_module("anyons.laurent").LaurentPoly
        for op in _LAURENT_OPS:
            self._undo.append((poly, op, vars(poly)[op]))
            setattr(poly, op, self._count_op(vars(poly)[op]))

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counted = _work_counts(name, args, out)
            if counted:
                self.counts[counted[0]] += counted[1]
            if name == "fsymbols.pentagon_residual":
                k = len(args[0].labels)
                if self.largest_pentagon is None or k > self.largest_pentagon[0]:
                    self.largest_pentagon = (k, args)
            return out

        return traced

    def _fold(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, total = self.folded_calls, self.folded_time

        @functools.wraps(fn)
        def folded(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                calls[name] += 1
                total[name] += dt
                if stack[-1] >= 0:
                    spans[stack[-1]][5] += dt

        return folded

    def _count_op(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts["laurent.ops"] += 1
            return fn(*args)

        return counted

    # -- analysis ------------------------------------------------------

    def pentagon_peak_alloc_mb(self) -> float:
        """tracemalloc peak of one extra, untimed call on the largest model."""
        if self.largest_pentagon is None:
            return 0.0
        fsymbols = importlib.import_module("anyons.fsymbols")
        tracemalloc.start()
        try:
            fsymbols.pentagon_residual(*self.largest_pentagon[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def summary(self) -> dict:
        """Per-function and per-layer calls, busy time and self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: Counter = Counter(self.folded_calls)
        busy = defaultdict(float, self.folded_time)
        self_time = defaultdict(float, self.folded_time)
        layer_busy = defaultdict(float)
        layer_self = defaultdict(float)
        for name, t in self.folded_time.items():
            layer_self[name.split(".")[0]] += t
        top_level = 0.0
        for i, (name, start, end, parent, _, folded) in enumerate(spans):
            dur = end - start
            layer = name.split(".")[0]
            calls[name] += 1
            own = dur - child[i] - folded
            self_time[name] += own
            layer_self[layer] += own
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:
                busy[name] += dur
            if not any(a.split(".")[0] == layer for a in ancestors):
                layer_busy[layer] += dur
            if not ancestors:
                top_level += dur
        return {"calls": calls, "busy": busy, "self": self_time,
                "layer_busy": layer_busy, "layer_self": layer_self,
                "top_level_s": top_level}

    def write(self, path, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {**meta, "span_fields": ["name", "start", "end", "parent", "job",
                                       "folded_s"],
               "names": names,
               "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
               "folded_calls": dict(self.folded_calls),
               "folded_s": dict(self.folded_time),
               "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv):
    """Print, per job, the calls and busy time of one traced function.

        python3 perfbench/spans.py perfbench/out/trace-lattice-seed1.json toric.correct
    """
    path, name = argv
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if name not in doc["names"]:
        raise SystemExit(f"{name} has no spans in {path}")
    target = doc["names"].index(name)
    per_job = defaultdict(list)
    for span in doc["spans"]:
        if span[0] == target:
            per_job[span[4]].append(span[2] - span[1])
    for job, durations in sorted(per_job.items(), key=lambda kv: doc["jobs"][kv[0]]):
        print(f"{sum(durations) * 1e3:10.2f} ms {len(durations):4d} calls  {doc['jobs'][job]}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
