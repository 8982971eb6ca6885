"""Benchmark definition: workloads, metrics, units and regression bounds.

BENCHMARK.json at the repository root is generated from this module
(`python3 perfbench/run.py --write-spec`), so names and units live in one
place.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# Each run needs this many latency samples so that at least ten of them
# lie beyond p90 (stats.percentile checks it).
MIN_REQUESTS = 100

WORKLOADS = [
    ("grid-sweep",
     "grid CLI requests of 256-1600 cells, weights 2-8, some crossing the "
     "real axis: the batch path where evaluator term, tail and summation "
     "work dominates"),
    ("points",
     "distinct single eval_series calls off-axis, near poles p_j (weights "
     "up to 64) and near 1+-sqrt(2): short windows, per-call overhead, and "
     "the inputs where the certificate breaks"),
    ("verify-sweep",
     "verify CLI requests, 12x12 grid, all four equations, k=1..3, with thin "
     "rectangles at the real axis and 1+-sqrt(2): the only classify and "
     "residual-refinement load"),
    ("prove-windows",
     "prove CLI requests over all four equations, J=2..5, k=1..2: the only "
     "load on the exact engine, numeric layers idle"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# name, unit, better
PER_LAYER = [
    ("sequence.calls", "count", "lower"),
    ("sequence.self_s", "s", "lower"),
    ("sequence.pole_ratio.calls", "count", "lower"),
    ("evaluator.eval_series.calls", "count", "lower"),
    ("evaluator.eval_series.self_s", "s", "lower"),
    ("evaluator.term_value.calls", "count", "lower"),
    ("evaluator.term_value.self_s", "s", "lower"),
    ("evaluator.tail_bound.calls", "count", "lower"),
    ("evaluator.tail_bound.self_s", "s", "lower"),
    ("evaluator.eval_grid.self_s", "s", "lower"),
    ("evaluator.terms_per_eval", "terms/eval", "lower"),
    ("evaluator.tail_checks_per_eval", "checks/eval", "lower"),
    ("evaluator.ok_ratio", "ratio", "higher"),
    ("evaluator.refused.pole", "count", "lower"),
    ("evaluator.refused.diverged", "count", "lower"),
    ("evaluator.fail.crash", "count", "lower"),
    ("evaluator.fail.nonfinite", "count", "lower"),
    ("evaluator.fail.bound", "count", "lower"),
    ("analysis.classify.calls", "count", "lower"),
    ("analysis.classify.self_s", "s", "lower"),
    ("analysis.regular_ratio", "ratio", "higher"),
    ("verify.verify_grid.self_s", "s", "lower"),
    ("verify.residual.calls", "count", "lower"),
    ("verify.residual.self_s", "s", "lower"),
    ("verify.evals_per_residual", "evals/residual", "lower"),
    ("verify.tested_ratio", "ratio", "higher"),
    ("verify.points_failed", "count", "lower"),
    ("exact.verify_identity_exact.self_s", "s", "lower"),
    ("exact.window_sum.self_s", "s", "lower"),
    ("exact.substitute.calls", "count", "lower"),
    ("exact.substitute.self_s", "s", "lower"),
    ("exact.poly_gcd.calls", "count", "lower"),
    ("exact.poly_gcd.self_s", "s", "lower"),
    ("exact.poly_mul.calls", "count", "lower"),
    ("exact.poly_mul.self_s", "s", "lower"),
    ("exact.poly_divmod.calls", "count", "lower"),
    ("exact.poly_divmod.self_s", "s", "lower"),
    ("exact.rf_new.calls", "count", "lower"),
    ("exact.rf_new.self_s", "s", "lower"),
    ("exact.max_degree", "degree", "lower"),
    ("exact.max_coeff_bits", "bits", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def build() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(build(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render())
    return path
