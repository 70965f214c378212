"""Span tracer for the traced benchmark run.

Wrappers are installed on the module attributes that mtlmon's callers
look up at call time, so no file under src/ changes. Each span records
(call id, span id, parent span id, name, start, end); spans stay in
memory until the run ends and are then written out as JSONL. Every `_s`
metric is self time: a span's duration minus the time its wrapped
children cover, so the layer times of one call add up to the call.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from typing import Dict, List

import mtlmon.cli
import mtlmon.computation
import mtlmon.pipeline
import mtlmon.refsolver
import mtlmon.smt

# (module, attribute, span name). The pipeline, smt and cli modules import
# these names into their own namespace, so the wrapper goes where they look.
FUNCTIONS = [
    (mtlmon.pipeline, "build_computation", "computation.build"),
    (mtlmon.pipeline, "consumption_boundaries", "pipeline.boundaries"),
    (mtlmon.pipeline, "progress", "progression.progress"),
    (mtlmon.pipeline, "shift_anchored", "formula.shift"),
    (mtlmon.pipeline, "simplify", "formula.simplify"),
    # decode_linearization imports build_computation inside the function
    (mtlmon.computation, "build_computation", "computation.build"),
    (mtlmon.smt, "enumerate_verdicts", "smt.enumerate"),
    (mtlmon.smt, "encode", "smt.encode"),
    (mtlmon.smt, "run_solver", "smt.solver"),
    (mtlmon.smt, "decode_linearization", "smt.decode"),
    (mtlmon.smt, "replay", "smt.replay"),
    (mtlmon.smt, "progress", "progression.progress"),
    (mtlmon.smt, "shift_anchored", "formula.shift"),
    (mtlmon.smt, "simplify", "formula.simplify"),
    (mtlmon.cli, "ingest", "pipeline.ingest"),
    (mtlmon.cli, "parse_spec", "parser.parse"),
    (mtlmon.cli, "monitor", "pipeline.monitor"),
]
METHODS = [(mtlmon.computation.Computation, "restrict", "computation.restrict")]
GENERATORS = [(mtlmon.pipeline, "enumerate_linearizations", "oracle.enumerate")]

# self-time metric -> the span name that feeds it
TIME_METRICS = {
    "cli.self_s": "cli.main",
    "parser.parse_s": "parser.parse",
    "pipeline.ingest_s": "pipeline.ingest",
    "pipeline.boundaries_s": "pipeline.boundaries",
    "pipeline.self_s": "pipeline.monitor",
    "computation.build_s": "computation.build",
    "computation.restrict_s": "computation.restrict",
    "oracle.enumerate_s": "oracle.enumerate",
    "progression.progress_s": "progression.progress",
    "formula.shift_s": "formula.shift",
    "formula.simplify_s": "formula.simplify",
    "smt.self_s": "smt.enumerate",
    "smt.encode_s": "smt.encode",
    "smt.solver_s": "smt.solver",
    "smt.decode_s": "smt.decode",
    "smt.replay_s": "smt.replay",
}
LAYERS = ["cli", "parser", "pipeline", "computation", "oracle", "progression",
          "formula", "smt"]


class Tracer:
    """Installs span-recording wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (layer, exception class) -> count
        self.call_id = 0
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._lin = None  # (generator serial, last time) awaiting its outcome
        self._outcomes: set = set()  # distinct (generator, formula, last time)
        self._smt_outcomes: set = set()  # distinct (encode serial, formula, last)
        self.queries: List[tuple] = []  # (query text, status the subprocess gave)

    # -- spans --------------------------------------------------------------

    def _open(self):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((self.call_id, sid, parent, name, t0, t1))

    def _error(self, name, exc):
        # attribute each exception to the innermost span it passed through
        if not getattr(exc, "_traced_layer", None):
            exc._traced_layer = name.split(".")[0]
            self.errors[(exc._traced_layer, type(exc).__name__)] += 1

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        sid, parent, t0 = self._open()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._error(name, exc)
            raise
        finally:
            self._close(name, sid, parent, t0)

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            tracer._observe(name, result, args)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            serial = next(tracer._ids)
            while True:
                sid, parent, t0 = tracer._open()
                try:
                    lin = next(it)
                except StopIteration:
                    return
                except BaseException as exc:
                    tracer._error(name, exc)
                    raise
                finally:
                    tracer._close(name, sid, parent, t0)
                tracer.counts["oracle.linearizations"] += 1
                tracer._lin = (serial, lin.times[-1])
                yield lin
                tracer._lin = None

        return wrapper

    def _observe(self, name, result, args):
        """Counters measured where the work happens."""
        if name == "computation.build":
            self.counts["computation.build_calls"] += 1
            self.counts["computation.hb_pairs"] += sum(len(p) for p in result.hb)
        elif name == "progression.progress":
            self.counts["progression.calls"] += 1
        elif name == "formula.simplify" and self._lin is not None:
            # the pipeline simplifies the rewrite of each linearization once
            serial, last = self._lin
            self._outcomes.add((serial, result, last))
            self._lin = None
        elif name == "smt.encode":
            self.counts["smt.encodes"] += 1
            self.counts["smt.problem_bytes"] += len(result.text)
        elif name == "smt.solver":
            self.counts["smt.queries"] += 1
            self.counts["smt.query_bytes"] += len(args[0])
            self.queries.append((args[0], result.split(None, 1)[0] if result.strip() else ""))
        elif name == "smt.replay":
            formula, _first, last = result
            self._smt_outcomes.add((self.counts["smt.encodes"], formula, last))

    def install(self):
        for module, attr, name in FUNCTIONS + METHODS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_function(original, name))
        for module, attr, name in GENERATORS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_generator(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child_time: Dict[int, float] = Counter()
        for _call, _sid, parent, _name, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: Dict[str, float] = Counter()
        for _call, sid, _parent, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child_time[sid]
        return out

    def metrics(self) -> Dict[str, float]:
        by_span = self.self_times()
        out: Dict[str, float] = {metric: by_span[name] for metric, name in TIME_METRICS.items()}
        for key in ("computation.build_calls", "computation.hb_pairs",
                    "oracle.linearizations", "progression.calls", "smt.queries",
                    "smt.problem_bytes", "smt.query_bytes"):
            out[key] = self.counts[key]
        out["oracle.useful_ratio"] = _ratio(len(self._outcomes), self.counts["oracle.linearizations"])
        out["smt.useful_ratio"] = _ratio(len(self._smt_outcomes), self.counts["smt.queries"])
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(n for (l, _c), n in self.errors.items() if l == layer)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for call, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"call": call, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def resolve_queries(queries) -> tuple:
    """Re-solve recorded query texts in-process; returns (seconds, number of
    statuses that differ from the subprocess answer)."""
    seconds, mismatched = 0.0, 0
    for text, status in queries:
        t0 = time.perf_counter()
        out = mtlmon.refsolver.run(text)
        seconds += time.perf_counter() - t0
        if out.split(None, 1)[0] != status:
            mismatched += 1
    return seconds, mismatched
