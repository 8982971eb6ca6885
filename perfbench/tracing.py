"""Spans around the calls one pelleis module makes into another.

`instrument(tracer)` replaces, for the duration of a with-block, each public
name a module calls across a layer boundary with a wrapper that records a
span (name, start, end, parent) in memory.  Nothing in the package changes:
the wrappers are installed on module and class attributes and removed
afterwards.  A layer's self time is the duration of its spans minus the part
of each span that its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import math
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

ROOT = "bench.request"
OBSERVE = "trace.observe"


class Tracer:
    """Span store: four parallel arrays indexed by span id, parent -1 = root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """fn recording one span per call; observe(args, result, exc) runs
        afterwards inside a trace.observe span, so its cost is charged to
        no layer."""
        nid = self.name_id(name)
        oid = self.name_id(OBSERVE)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        def open_span(sid):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            return i

        def close_span(i):
            ends[i] = perf_counter_ns()
            stack.pop()

        def wrapper(*args, **kwargs):
            i = open_span(nid)
            starts[i] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close_span(i)
                if observe is not None:
                    j = open_span(oid)
                    starts[j] = perf_counter_ns()
                    observe(self, args, None, exc)
                    close_span(j)
                raise
            close_span(i)
            if observe is not None:
                j = open_span(oid)
                starts[j] = perf_counter_ns()
                observe(self, args, result, None)
                close_span(j)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def spans(self):
        """(name, start_ns, end_ns, parent) per span, in start order."""
        names = self.names
        for n, s, e, p in zip(self.name, self.start, self.end, self.parent):
            yield names[n], s, e, p

    def write(self, path) -> None:
        """Spans as gzipped CSV, one row per span, parent as a row index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            fh.writelines(f"{n},{s},{e},{p}\n" for n, s, e, p in self.spans())


def self_times(starts, ends, parents) -> array:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself.  Spans must be listed in start order."""
    n = len(starts)
    covered = array("q", bytes(8 * n))
    reach = array("q", starts)     # end of the child coverage so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (ends[i] - starts[i] - covered[i] for i in range(n)))


def summarize(tracer: Tracer):
    """Per span name: call count, total self and inclusive seconds, plus
    call counts keyed by (name, parent name)."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    pairs: Counter = Counter()
    names = tracer.names
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_s[name] += selfs[i] * 1e-9
        incl_s[name] += (tracer.end[i] - tracer.start[i]) * 1e-9
        p = tracer.parent[i]
        pairs[(name, names[tracer.name[p]] if p >= 0 else None)] += 1
    return calls, self_s, incl_s, pairs


def shares(summary) -> list[str]:
    """'# share' lines: each span name's inclusive and self time as a share
    of the traced request time."""
    _, self_s, incl_s, _ = summary
    total = incl_s[ROOT]
    return [f"# share {name} incl={incl_s[name] / total:.1%} "
            f"self={self_s[name] / total:.1%}"
            for name in sorted(incl_s, key=incl_s.get, reverse=True)]


# --- observers: counts taken where the work happens ------------------------

def _observe_eval(tracer, args, result, exc):
    c = tracer.counters
    if exc is None:
        ok = all(math.isfinite(x) for x in (
            result.value.real, result.value.imag, result.tail_bound))
        c["eval.ok" if ok else "eval.nonfinite"] += 1
    elif type(exc).__name__ == "PoleProximity":
        c["eval.pole"] += 1
    elif type(exc).__name__ == "DidNotConverge":
        c["eval.diverged"] += 1
    else:       # eval_series raises no other PelleisError
        c["eval.crash"] += 1


def _observe_classify(tracer, args, result, exc):
    if exc is None and result.is_regular:
        tracer.counters["classify.regular"] += 1


def _observe_verify_grid(tracer, args, result, exc):
    c = tracer.counters
    c["verify.points"] += args[2] * args[3]
    if exc is None:
        c["verify.tested"] += result.points_tested
        c["verify.failed"] += result.points_failed


def _observe_rf(tracer, args, result, exc):
    if exc is not None:
        return
    rf = args[0]
    tracer.note_max("exact.max_degree", max(rf.num.degree, rf.den.degree))
    bits = 0
    for c in rf.num.coeffs + rf.den.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.note_max("exact.max_coeff_bits", bits)


# (module, class or None, attribute, span name, observer)
SITES = (
    ("pelleis.evaluator", None, "pell_lucas", "sequence.pell_lucas", None),
    ("pelleis.evaluator", None, "pole_ratio", "sequence.pole_ratio", None),
    ("pelleis.analysis", None, "pole_ratio", "sequence.pole_ratio", None),
    ("pelleis.exact", None, "pell_lucas", "sequence.pell_lucas", None),
    ("pelleis.cli", None, "pell_lucas_range", "sequence.pell_lucas_range",
     None),
    ("pelleis", None, "eval_series", "evaluator.eval_series", _observe_eval),
    ("pelleis.evaluator", None, "eval_series", "evaluator.eval_series",
     _observe_eval),
    ("pelleis.verify", None, "eval_series", "evaluator.eval_series",
     _observe_eval),
    ("pelleis.cli", None, "eval_series", "evaluator.eval_series",
     _observe_eval),
    ("pelleis.cli", None, "eval_grid", "evaluator.eval_grid", None),
    ("pelleis.evaluator", None, "term_value", "evaluator.term_value", None),
    ("pelleis.evaluator", None, "tail_bound", "evaluator.tail_bound", None),
    ("pelleis.verify", None, "classify", "analysis.classify",
     _observe_classify),
    ("pelleis.cli", None, "verify_grid", "verify.verify_grid",
     _observe_verify_grid),
    ("pelleis.verify", None, "residual", "verify.residual", None),
    ("pelleis.cli", None, "verify_identity_exact",
     "exact.verify_identity_exact", None),
    ("pelleis.exact", None, "window_sum", "exact.window_sum", None),
    ("pelleis.exact", None, "substitute", "exact.substitute", None),
    ("pelleis.exact", None, "poly_gcd", "exact.poly_gcd", None),
    ("pelleis.exact", "Polynomial", "__mul__", "exact.poly_mul", None),
    ("pelleis.exact", "Polynomial", "__rmul__", "exact.poly_mul", None),
    ("pelleis.exact", "Polynomial", "__divmod__", "exact.poly_divmod", None),
    ("pelleis.exact", "RationalFunction", "__init__", "exact.rf_new",
     _observe_rf),
    ("pelleis.cli", None, "run", "cli.run", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every site in SITES; restore on exit."""
    saved = []
    try:
        for module, cls, attr, name, observe in SITES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, summary, tally, traced_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in spec.PER_LAYER."""
    calls, self_s, _, pairs = summary
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    evals = calls["evaluator.eval_series"]
    sequence = [n for n in calls if n.startswith("sequence.")]
    out = {
        "sequence.calls": sum(calls[n] for n in sequence),
        "sequence.self_s": sum(self_s[n] for n in sequence),
        "sequence.pole_ratio.calls": calls["sequence.pole_ratio"],
        "evaluator.terms_per_eval": ratio(calls["evaluator.term_value"],
                                          evals),
        "evaluator.tail_checks_per_eval": ratio(calls["evaluator.tail_bound"],
                                                evals),
        "evaluator.ok_ratio": ratio(c["eval.ok"], evals),
        "evaluator.refused.pole": c["eval.pole"],
        "evaluator.refused.diverged": c["eval.diverged"],
        "evaluator.fail.crash": c["eval.crash"],
        "evaluator.fail.nonfinite": c["eval.nonfinite"],
        "evaluator.fail.bound": tally.bound,
        "analysis.regular_ratio": ratio(c["classify.regular"],
                                        calls["analysis.classify"]),
        "verify.evals_per_residual": ratio(
            pairs[("evaluator.eval_series", "verify.residual")],
            calls["verify.residual"]),
        "verify.tested_ratio": ratio(c["verify.tested"], c["verify.points"]),
        "verify.points_failed": c["verify.failed"],
        "exact.max_degree": tracer.maxima.get("exact.max_degree", 0),
        "exact.max_coeff_bits": tracer.maxima.get("exact.max_coeff_bits", 0),
        "cli.stdout_bytes": tally.stdout_bytes,
        "failed_ratio": ratio(tally.failed, tally.ops),
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in ("evaluator.eval_series", "evaluator.term_value",
                 "evaluator.tail_bound", "analysis.classify",
                 "verify.residual", "exact.substitute", "exact.poly_gcd",
                 "exact.poly_mul", "exact.poly_divmod", "exact.rf_new",
                 "cli.run"):
        out[name + ".calls"] = calls[name]
    for name in ("evaluator.eval_series", "evaluator.term_value",
                 "evaluator.tail_bound", "evaluator.eval_grid",
                 "analysis.classify", "verify.verify_grid", "verify.residual",
                 "exact.verify_identity_exact", "exact.window_sum",
                 "exact.substitute", "exact.poly_gcd", "exact.poly_mul",
                 "exact.poly_divmod", "exact.rf_new", "cli.run"):
        out[name + ".self_s"] = self_s[name]
    return out
