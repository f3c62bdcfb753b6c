"""Spans and counters for the traced benchmark run.

The wrappers are installed from the benchmark's side, with no edit to the
library: each function is replaced at every place it is looked up (the
module globals of every ``wildfan`` module and the package namespace), and
methods are replaced on their class.  ``install`` and ``uninstall`` bracket
each traced op, so the untraced ops of the same run execute the library
unmodified.

A span is (name, start, end, parent id, op id).  Spans live in memory and
are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import fractions
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

import wildfan.exactnum as exactnum
from wildfan.exactnum import Inconclusive, IntervalExpr, QuadExt

# Functions given a span (and a ``.calls`` count): (home module, attribute,
# span name).  The layer is the first component of the span name.
SPANNED = (
    ("wildfan.hull", "in_W", "hull.in_W"),
    ("wildfan.hull", "A_j", "hull.A_j"),
    ("wildfan.hull", "r_j", "hull.r_j"),
    ("wildfan.fan", "fan_from_json", "fan.fan_from_json"),
    ("wildfan.fan", "verify_fan", "fan.verify_fan"),
    ("wildfan.fan", "beats_selfsimilar", "fan.beats_selfsimilar"),
    ("wildfan.fan", "find_Q", "fan.find_Q"),
    ("wildfan.riemann", "solve_riemann", "riemann.solve_riemann"),
    ("wildfan.search", "search_fan", "search.search_fan"),
    ("wildfan.search", "certify", "search.certify"),
    ("wildfan.search", "minimize", "search.minimize"),
    ("wildfan.convexint", "build_oscillation", "convexint.build_oscillation"),
)

# Functions that are only counted: cheap and called very often.
COUNTED = (
    ("wildfan.model", "pressure", "model.pressure.calls"),
    ("wildfan.hull", "matrix_M", "hull.matrix_M.calls"),
)

# Methods given a span, replaced on the class.
SPANNED_METHODS = (
    (QuadExt, "sign_exact", "exactnum.sign_quadext"),
    (QuadExt, "inverse", "exactnum.quadext_inverse"),
    (IntervalExpr, "sign_certified", "exactnum.sign_interval"),
)

INCONCLUSIVE = "exactnum.inconclusive.count"

# Outcome counters fed from return values: span name -> (counter, test).
OUTCOMES = {
    "hull.in_W": ("hull.in_W.hits", lambda r: bool(r[0])),
    "riemann.solve_riemann": ("riemann.solve_riemann.exact", lambda r: bool(r.exact)),
    "search.certify": ("search.certify.accepted", lambda r: r is not None),
}

# Per-layer metrics printed by the traced run: (name, unit, better).
PER_LAYER = (
    ("exactnum.sign_rational.calls", "count", "lower"),
    ("exactnum.sign_quadext.calls", "count", "lower"),
    ("exactnum.sign_quadext.self_s", "s", "lower"),
    ("exactnum.sign_interval.calls", "count", "lower"),
    ("exactnum.sign_interval.self_s", "s", "lower"),
    ("exactnum.inconclusive.count", "count", "lower"),
    ("exactnum.quadext_inverse.calls", "count", "lower"),
    ("exactnum.quadext_inverse.self_s", "s", "lower"),
    ("exactnum.fraction_new.calls", "count", "lower"),
    ("model.pressure.calls", "count", "lower"),
    ("hull.in_W.calls", "count", "lower"),
    ("hull.in_W.self_s", "s", "lower"),
    ("hull.A_j.calls", "count", "lower"),
    ("hull.A_j.self_s", "s", "lower"),
    ("hull.r_j.calls", "count", "lower"),
    ("hull.r_j.self_s", "s", "lower"),
    ("hull.matrix_M.calls", "count", "lower"),
    ("fan.find_Q.s", "s", "lower"),
    ("fan.find_Q.hit_frac", "fraction", "higher"),
    ("fan.verify_fan.s", "s", "lower"),
    ("fan.beats_selfsimilar.s", "s", "lower"),
    ("riemann.solve_riemann.calls", "count", "lower"),
    ("riemann.solve_riemann.self_s", "s", "lower"),
    ("riemann.exact_frac", "fraction", "higher"),
    ("search.search_fan.self_s", "s", "lower"),
    ("search.minimize.calls", "count", "lower"),
    ("search.minimize.s", "s", "lower"),
    ("search.objective_evals", "count", "lower"),
    ("search.eval_us", "us", "lower"),
    ("search.restarts_per_item", "count", "lower"),
    ("search.certify.calls", "count", "lower"),
    ("search.certify.s", "s", "lower"),
    ("search.certify.accept_frac", "fraction", "higher"),
    ("convexint.build_oscillation.s", "s", "lower"),
    ("cli.python_s.p50", "s", "lower"),
    ("cli.import_s.p50", "s", "lower"),
    ("cli.verify_example_s.p50", "s", "lower"),
    ("cli.verify_fan_s.p50", "s", "lower"),
    ("cli.riemann_s.p50", "s", "lower"),
    ("cli.oscillate_s.p50", "s", "lower"),
    ("trace.untraced_op_s.p50", "s", "lower"),
    ("trace.traced_op_s.p50", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


class Recorder:
    """In-memory spans and counters for the traced ops of one run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self._op = -1

    # -- recording -------------------------------------------------------

    def _spanned(self, name, fn, outcome=None, counts_inconclusive=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Inconclusive:
                if counts_inconclusive:
                    counts[INCONCLUSIVE] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)
            if outcome is not None:
                counter, test = outcome
                if test(result):
                    counts[counter] += 1
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_op(self, name: str) -> None:
        """Open the root span of one traced op."""
        self._op = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._op)
        self._op_start = perf_counter()
        self._op_name = name

    def end_op(self) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[self._op] = (self._op_name, self._op_start, end, -1, self._op)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Replace every lookup site of the traced functions and methods."""
        replacements = {}
        for home, attr, name in SPANNED:
            fn = getattr(sys.modules[home], attr)
            if attr == "minimize":
                replacements[fn] = self._minimize(fn)
            else:
                replacements[fn] = self._spanned(name, fn, OUTCOMES.get(name))
        for home, attr, name in COUNTED:
            fn = getattr(sys.modules[home], attr)
            replacements[fn] = self._counted(name, fn)
        replacements[exactnum.sign] = self._sign(exactnum.sign)
        for modname, module in list(sys.modules.items()):
            if modname != "wildfan" and not modname.startswith("wildfan."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(value) if isinstance(value, FunctionType) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

        for cls, attr, name in SPANNED_METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._spanned(
                name, original, counts_inconclusive=cls is IntervalExpr))
        enclosure = IntervalExpr.__dict__["enclosure"]
        self._patches.append((IntervalExpr, "enclosure", enclosure))
        setattr(IntervalExpr, "enclosure", self._inconclusive_counted(enclosure))

        new = fractions.Fraction.__dict__["__new__"]
        self._patches.append((fractions.Fraction, "__new__", new))
        fractions.Fraction.__new__ = staticmethod(
            self._counted("exactnum.fraction_new.calls", new.__func__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _sign(self, fn):
        """exactnum.sign, counting the calls that take the rational branch;
        the tower and interval branches are spanned on their methods."""
        counts = self.counts

        def sign(x, precision_cap=None):
            if not isinstance(x, (QuadExt, IntervalExpr)):
                counts["exactnum.sign_rational.calls"] += 1
            return fn(x, precision_cap)

        return sign

    def _inconclusive_counted(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Inconclusive:
                counts[INCONCLUSIVE] += 1
                raise

        return wrapper

    def _minimize(self, fn):
        """scipy.optimize.minimize as the search module calls it, spanned,
        summing the objective evaluations it reports."""
        spanned = self._spanned("search.minimize", fn)
        counts = self.counts

        def minimize(*args, **kwargs):
            result = spanned(*args, **kwargs)
            counts["search.objective_evals"] += int(result.nfev)
            return result

        return minimize

    # -- results ---------------------------------------------------------

    def time_by_name(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) summed per span name."""
        child_time: dict = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child_time[sid]
        return inclusive, self_time

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "op": op, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, first_round: Counter, first_round_ops: int,
                      traced_ops: int, extra: dict) -> dict:
    """Per-layer values.  Counts and count ratios are per op over the first
    round, whose items a seed fixes, so they repeat exactly; times are per
    op over every traced op.  ``extra`` holds the values measured outside
    the recorder (CLI children, traced/untraced medians, restarts)."""
    inclusive, self_time = rec.time_by_name()
    c = first_round
    per_op = 1.0 / max(first_round_ops, 1)
    per_traced = 1.0 / max(traced_ops, 1)
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = c[name] * per_op
        elif stat == "self_s":
            values[name] = self_time.get(base, 0.0) * per_traced
        elif stat == "s":
            values[name] = inclusive.get(base, 0.0) * per_traced
    values[INCONCLUSIVE] = c[INCONCLUSIVE] * per_op
    values["search.objective_evals"] = c["search.objective_evals"] * per_op
    values["fan.find_Q.hit_frac"] = _ratio(c["hull.in_W.hits"], c["hull.in_W.calls"])
    values["riemann.exact_frac"] = _ratio(c["riemann.solve_riemann.exact"],
                                          c["riemann.solve_riemann.calls"])
    values["search.certify.accept_frac"] = _ratio(c["search.certify.accepted"],
                                                  c["search.certify.calls"])
    values["search.eval_us"] = 1e6 * _ratio(inclusive.get("search.minimize", 0.0),
                                            rec.counts["search.objective_evals"])
    values.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: values[name] for name, _, _ in PER_LAYER}
