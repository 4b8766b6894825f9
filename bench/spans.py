"""In-memory span tracer that wraps toruslie's public functions from outside.

A span is (name, op, parent, start, end): the operation it belongs to, the
span that caused it, and its wall-clock interval.  Spans are kept in memory
and aggregated per name into call counts, busy time (outermost spans of a
name only, so nesting never counts twice) and self time (duration minus
the time covered by direct child spans).

Wrapping replaces a function in every loaded toruslie module that binds it,
including names bound by ``from .x import y``, and restores the originals
on exit; no file under ``src/`` is touched.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

import numpy as np

# (module, attribute, span name, hook): the traced layer boundaries.
TARGETS = (
    ("elliptic", "wp_both", "elliptic.wp", "points"),
    ("elliptic", "invariants", "elliptic.invariants", None),
    ("lattice", "reduce_modular", "lattice.reduce_modular", None),
    ("torusgroup", "catalog", "torusgroup.embedding_build", None),
    ("torusgroup", "make_embedding", "torusgroup.embedding_build", None),
    ("torusgroup", "branch_points", "torusgroup.branch_points", None),
    ("sl2rep", "standard_rep", "sl2rep.standard_rep", None),
    ("funcalg", "PSystem.values", "funcalg.psystem_values", None),
    ("funcalg", "fit_in_ring", "funcalg.fit_in_ring", None),
    ("funcalg", "sample_points", "funcalg.sample_points", None),
    ("intertwine", "phi", "intertwine.phi_build", "intertwine.phi_eval"),
    ("intertwine", "psi", "intertwine.psi_build", "intertwine.psi_eval"),
    ("normalform", "normal_form", "normalform.normal_form", "frames"),
    ("normalform", "structure_polynomial", "normalform.structure_polynomial", None),
    ("normalform", "verify_brackets", "normalform.verify_brackets", None),
    ("normalform", "invariance_residual", "normalform.invariance_residual", None),
    ("classify", "classify", "classify.classify", None),
    ("classify", "cross_validate", "classify.cross_validate", "a4"),
    ("cli", "main", "cli.main", None),
)

ROOT = "bench.op"
FRAME = "normalform.frame_eval"
SPAN_NAMES = tuple(dict.fromkeys(
    [ROOT]
    + [t[2] for t in TARGETS]
    + ["intertwine.phi_eval", "intertwine.psi_eval", FRAME]
))



EVALUATORS = ("intertwine.phi_eval", "intertwine.psi_eval")


class Tracer:
    """Span recorder; use as a context manager to wrap the program."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end, child_time]
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()  # "<span>.calls", ".points", ".raised"
        self.op = -1
        self._restore: list = []

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        self.depth[name] += 1
        self.counts[f"{name}.calls"] += 1
        return idx

    def exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[4] = end
        dur = end - span[3]
        self.stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += dur
        self.depth[span[0]] -= 1
        if self.depth[span[0]] == 0:
            self.busy[span[0]] += dur

    def run_op(self, fn):
        """Run one benchmark operation as a root span."""
        self.op += 1
        idx = self.enter(ROOT)
        try:
            return fn()
        finally:
            self.exit(idx)

    def summary(self) -> tuple[dict, dict]:
        """(work counts, times): busy and self ms per span name."""
        self_s: Counter = Counter()
        for name, _, _, start, end, child in self.spans:
            self_s[name] += (end - start) - child
        times = {}
        for name in SPAN_NAMES:
            times[f"{name}_ms"] = 1e3 * self.busy[name]
            times[f"{name}.self_ms"] = 1e3 * self_s[name]
        return dict(self.counts), times

    def write(self, path) -> None:
        """Write every span as one JSON line (times in microseconds)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, op, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": op, "parent": parent,
                    "start_us": round(1e6 * (start - t0), 3),
                    "dur_us": round(1e6 * (end - start), 3),
                    "self_us": round(1e6 * (end - start - child), 3),
                }) + "\n")

    # -- wrapping ----------------------------------------------------------
    def __enter__(self):
        for module, attr, name, hook in TARGETS:
            mod = importlib.import_module(f"toruslie.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = getattr(cls, meth)
                setattr(cls, meth, self._wrap(orig, name, hook))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, hook)
            for mname, m in list(sys.modules.items()):
                if mname != "toruslie" and not mname.startswith("toruslie."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, orig))
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()
        return False

    def _wrap(self, fn, name, hook=None):
        """fn inside a span; hooks count points, A4 work, or trace evaluators.

        "points": count the points of the first argument.  "a4": count the
        wp calls made inside a cross-validation of an A4 embedding.
        "frames" and an EVALUATORS name: the returned object's evaluators
        become spans of their own, counting points.
        """
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if hook == "points":
                counts[f"{name}.points"] += int(np.size(args[0]))
            a4 = hook == "a4" and args[0].kind == "A4"
            wp_before = counts["elliptic.wp.calls"]
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                self.exit(idx)
            if a4:
                counts["a4.cases"] += 1
                counts["a4.wp_calls"] += counts["elliptic.wp.calls"] - wp_before
            elif hook == "frames":
                for m in (result.E, result.F, result.H):
                    m.fn = self._wrap(m.fn, FRAME, "points")
            elif hook in EVALUATORS:
                result.fn = self._wrap(result.fn, hook, "points")
            return result

        return wrapper
