"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import spec  # noqa: E402
from stats import fastest_samples, per_request_keep, percentile  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import (EVAL_HEADER, VERIFY_HEADER, WORKLOADS,  # noqa: E402
                       CliRequest, PointRequest, Tally)


# --- percentile rule -------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50.5
    assert percentile(reversed(samples), 90) == pytest.approx(90.1)
    assert percentile([3.0] * 60 + [5.0] * 60, 50) == 4.0


def test_percentile_needs_ten_samples_beyond():
    percentile(range(92), 90)               # ten samples above rank 81.9
    with pytest.raises(ValueError, match="beyond"):
        percentile(range(91), 90)
    with pytest.raises(ValueError):
        percentile(range(100), 100)


def test_fastest_samples_keep_each_requests_own_timings():
    # rounds[r][i]: request i's timing in round r
    rounds = [[3.0, 10.0], [1.0, 30.0], [2.0, 20.0]]
    assert fastest_samples(rounds, 1) == [1.0, 10.0]
    assert fastest_samples(rounds, 2) == [1.0, 2.0, 10.0, 20.0]
    with pytest.raises(ValueError):
        fastest_samples(rounds, 4)
    assert [per_request_keep(n, 100) for n in (32, 45, 100, 1536)] == [4, 3, 1, 1]


def test_timings_scale_by_the_faster_calibration_slice():
    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference(0.5, ref, ref) == 0.5
    # host twice as slow: the request and the faster slice both double
    assert calibrate.at_reference(1.0, 2 * ref, 5 * ref) == 0.5
    assert calibrate.at_reference(1.0, 5 * ref, 2 * ref) == 0.5
    assert calibrate.slice_s() > 0


# --- self time -------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # parent [0,100] > child [10,30] > grandchild [15,20]; child2 [40,60]
    starts = [0, 10, 15, 40]
    ends = [100, 30, 20, 60]
    parents = [-1, 0, 1, 0]
    assert list(self_times(starts, ends, parents)) == [60, 15, 5, 20]


def test_self_time_counts_overlapping_children_once_and_clips():
    # children [10,30] and [20,40] overlap; [45,70] runs past the parent
    starts = [0, 10, 20, 45]
    ends = [50, 30, 40, 70]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 50 - 30 - 5


def test_tracer_spans_parents_and_observer_time():
    tracer = Tracer()
    seen = []

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap("layer.leaf", leaf)

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped = tracer.wrap("layer.outer", outer,
                          lambda t, args, result, exc: seen.append(result))
    assert wrapped(1) == 4
    assert seen == [4]
    spans = list(tracer.spans())
    assert [s[0] for s in spans] == ["layer.outer", "layer.leaf",
                                     "layer.leaf", "trace.observe"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1]
    calls, self_s, incl_s, pairs = summarize(tracer)
    assert calls["layer.leaf"] == 2
    assert pairs[("layer.leaf", "layer.outer")] == 2
    assert all(v >= 0 for v in self_s.values())
    assert incl_s["layer.outer"] >= incl_s["layer.leaf"] + self_s["layer.outer"]


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == [-1]


def test_instrument_restores_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    import pelleis
    import pelleis.cli
    from tracing import SITES, instrument
    before = {(m, c, a): _site(m, c, a) for m, c, a, *_ in SITES}
    expected = pelleis.eval_series(1 + 1j, 4)
    tracer = Tracer()
    with instrument(tracer):
        assert pelleis.eval_series(1 + 1j, 4) == expected
    assert {k: _site(*k) for k in before} == before
    calls, _, _, _ = summarize(tracer)
    assert calls["evaluator.eval_series"] == 1
    assert calls["evaluator.term_value"] == 2 * expected.terms_used + 1
    assert tracer.counters["eval.ok"] == 1


def _site(module, cls, attr):
    owner = sys.modules[module]
    return getattr(getattr(owner, cls) if cls else owner, attr)


# --- failure classification ------------------------------------------------

def _grid_row(z, value, bound, status="ok"):
    if status != "ok":
        return f"{z.real!r},{z.imag!r},,,,,,,,,{status}"
    return (f"{z.real!r},{z.imag!r},{value.real!r},{value.imag!r},{bound!r},"
            f"5,0.0,0.0,0.0,0.0,ok")


def test_grid_rows_are_classified():
    grid = WORKLOADS["grid-sweep"]
    request = CliRequest(("grid",), 5, weight=2, sample=(0, 3))
    out = "\n".join([EVAL_HEADER + ",status",
                     _grid_row(1j, 0.5 + 0j, 1e-13),
                     _grid_row(2j, complex(math.inf, 0), 1e-13),
                     _grid_row(0j, 0, 0, "pole"),
                     _grid_row(3j, 0.25 + 0j, 1e-13),
                     _grid_row(4j, 0, 0, "diverged")])
    t = Tally()
    grid.check(request, (0, out, None), t)
    assert (t.ops, t.failed, t.nonfinite, t.pole, t.diverged) == (5, 1, 1, 1, 1)
    assert [p[0] for p in t.pending] == [1j, 3j]
    t.settle(lambda z, m, value, bound: z == 3j)
    # one violation among two sampled rows fails 5 // 2 = 2 ops
    assert (t.failed, t.bound, t.pending) == (3, 1, [])


def test_crashed_request_fails_all_its_ops():
    t = Tally()
    WORKLOADS["grid-sweep"].check(CliRequest(("grid",), 400), (None, "", "OverflowError"), t)
    assert (t.ops, t.failed, t.crash) == (400, 400, 400)


def test_short_grid_output_fails_missing_cells():
    t = Tally()
    out = EVAL_HEADER + ",status\n" + _grid_row(1j, 0.5 + 0j, 1e-13)
    WORKLOADS["grid-sweep"].check(CliRequest(("grid",), 3), (1, out, None), t)
    assert t.failed == 2


def _verify_row(rel):
    return ",".join(repr(x) for x in (1.0, 1.0, 0.5, 0.0, 0.5, 0.0, rel, rel,
                                      1e-13, 1e-13))


def test_verify_residuals_refusals_and_skips():
    verify = WORKLOADS["verify-sweep"]
    request = CliRequest(("verify",), 5)
    out = "\n".join([VERIFY_HEADER, _verify_row(1e-14), _verify_row(2e-9),
                     "# failed: re=1.0 im=0.0 term j=2 is singular",
                     "# summary eq=shift k=1 points_tested=2 points_skipped=2 "
                     "points_failed=1 max_rel_residual=2e-09 worst_re=1.0 "
                     "worst_im=1.0"])
    t = Tally()
    verify.check(request, (1, out, None), t)
    assert (t.ops, t.failed, t.residual, t.refused, t.skipped,
            t.malformed) == (5, 1, 1, 1, 2, 0)
    t = Tally()
    verify.check(request, (1, "# error: no testable points for shift", None), t)
    assert (t.failed, t.skipped) == (0, 5)


def test_prove_verdicts():
    prove = WORKLOADS["prove-windows"]
    request = CliRequest(("prove",), 1, expect="EXACT-ZERO")
    good = "defect numerator coefficients: 0\nverdict: EXACT-ZERO\n"
    t = Tally()
    prove.check(request, (0, good, None), t)
    assert t.failed == 0
    prove.check(request, (1, good.replace(": 0", ": 1 2"), None), t)
    prove.check(request, (0, good.replace("EXACT-ZERO", "NONZERO"), None), t)
    assert (t.ops, t.failed, t.verdict) == (3, 2, 2)


class _Typed(Exception):
    pass


class PoleProximity(_Typed):
    pass


def test_points_outcomes():
    points = WORKLOADS["points"]

    def eval_series(z, m):
        if z == 1:
            raise OverflowError("untyped")
        if z == 2:
            raise PoleProximity()
        if z == 3:
            return SimpleNamespace(value=complex(math.nan, 0), tail_bound=1.0,
                                   terms_used=3)
        return SimpleNamespace(value=0.5 + 0j, tail_bound=1e-13, terms_used=7)

    pkg = SimpleNamespace(eval_series=eval_series, PelleisError=_Typed)
    t = Tally()
    outcomes = []
    for z in (1, 2, 3, 4):
        request = PointRequest(complex(z), 2)
        outcomes.append(points.execute(pkg, request))
        points.check(request, outcomes[-1], t)
    assert outcomes[0] == ("crash", "OverflowError")
    assert points.material(outcomes[1]) == b"PoleProximity"
    assert points.material(outcomes[3]) == b"((0.5+0j), 1e-13, 7)"
    assert (t.ops, t.failed, t.crash, t.pole, t.nonfinite) == (4, 2, 1, 1, 1)
    assert len(t.pending) == 1
    with pytest.raises(ValueError):
        t + Tally()
    t.settle(lambda *a: True)
    doubled = t + t
    assert (doubled.ops, doubled.failed, doubled.bound) == (8, 6, 2)


# --- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = WORKLOADS[name]
    assert w.block(5, 0) == w.block(5, 0)
    assert w.block(5, 0) != w.block(6, 0)
    assert w.block(5, 0) != w.block(5, 1)
    assert w.requests(5)[:len(w.block(5, 0))] == w.block(5, 0)


def test_blocks_keep_their_mix_across_seeds():
    grid = WORKLOADS["grid-sweep"]
    mix = sorted((nx * ny, m) for nx, ny in grid.SHAPES for m in grid.WEIGHTS)
    mix.remove((16 * 16, 8))
    for seed, index in ((1, 0), (2, 0), (3, 5)):
        block = grid.block(seed, index)
        assert sorted((r.ops, r.weight) for r in block) == mix
        crossing = [r for r in block if float(r.argv[2].split(",")[1]) < 0]
        assert len(crossing) == 4
    prove = WORKLOADS["prove-windows"]
    assert sorted(r.argv for r in prove.block(1, 0)) == sorted(
        r.argv for r in prove.block(2, 0))
    verify = WORKLOADS["verify-sweep"]
    combos = sorted((r.argv[2], r.argv[4]) for r in verify.block(9, 3))
    assert len(set(combos)) == 12
    points = WORKLOADS["points"].block(4, 0)
    assert len(points) == 3 * WORKLOADS["points"].PER_GROUP
    assert len({(p.z, p.m) for p in points}) == len(points)
    assert max(p.m for p in points) == 64


# --- spec ------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_spec_and_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.build()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "points", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
