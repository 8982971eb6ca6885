"""pelleis benchmark: one client, one process, closed loop.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 15 --trace 0

With --trace 0 the run measures the end-to-end metrics: the seed's request
list is served in rounds until --seconds have passed (and at least twice
as many rounds as the timings kept per request), every request timed next
to a calibration slice and scaled to the reference speed (calibrate.py),
and between rounds fresh interpreters measure the set-up time.  With
--trace 1 it checks every request once, then times block 0 untraced and
traced in turn and reports per-layer metrics from the traced pass.  Both
report `attempted` and `failed` over one checked pass of the request list.
The last stdout line is one JSON object; lines before it start with '#'.
`--all` runs every workload both ways, `--write-spec` regenerates
BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import calibrate  # noqa: E402
import spec  # noqa: E402  (the benchmark's own modules sit beside this file)
from stats import fastest_samples, per_request_keep, percentile  # noqa: E402
from workloads import WORKLOADS, PointRequest, Tally  # noqa: E402

SETUP_PROBES = 15
MIN_ROUNDS = 3


class TimedRun(NamedTuple):
    rounds: list             # per round, an array of each request's seconds
    tally: Tally             # outcomes of round 0: every request once
    digest: str              # sha256 over round 0's outputs
    block0: str              # sha256 over block 0's outputs
    repeats: bool            # every round repeated round 0's outputs
    peak_rss_mb: float


def probe_code(workload) -> str:
    """A fresh interpreter's script: import pelleis, serve the warm-up
    requests, print the seconds taken at the reference speed."""
    lines = ["import sys, time",
             f"sys.path.insert(0, {str(BENCH)!r})",
             "import calibrate",
             "calibrate.slice_s()",
             "before = calibrate.slice_s()",
             "t0 = time.perf_counter()",
             f"sys.path.insert(0, {str(SRC)!r})",
             "import pelleis"]
    if isinstance(workload.warmup[0], PointRequest):
        points = [(r.z, r.m) for r in workload.warmup]
        lines += [f"for z, m in {points!r}:",
                  "    try:",
                  "        pelleis.eval_series(z, m)",
                  "    except Exception:",
                  "        pass"]
    else:
        argvs = [list(r.argv) for r in workload.warmup]
        lines += ["import contextlib, io",
                  "import pelleis.cli",
                  "with contextlib.redirect_stdout(io.StringIO()):",
                  f"    for argv in {argvs!r}:",
                  "        pelleis.cli.run(argv)"]
    lines += ["took = time.perf_counter() - t0",
              "after = calibrate.slice_s()",
              "print(repr(calibrate.at_reference(took, before, after)))"]
    return "\n".join(lines) + "\n"


class SetupProbes:
    """Set-up seconds of fresh interpreters at the reference speed,
    SETUP_PROBES of them, taken between rounds so that they span the run."""

    def __init__(self, workload, seconds: float):
        self.code = probe_code(workload)
        self.interval = seconds / SETUP_PROBES
        self.samples: list[float] = []
        self._probe()                    # discarded: warms the bytecode cache

    def _probe(self) -> float:
        proc = subprocess.run([sys.executable, "-I", "-c", self.code],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    def between_rounds(self, elapsed: float) -> None:
        if (len(self.samples) < SETUP_PROBES
                and elapsed >= len(self.samples) * self.interval):
            self.samples.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(self._probe())
        return self.samples


def import_package():
    """pelleis from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import pelleis
    import pelleis.cli  # noqa: F401  (the CLI workloads call pelleis.cli.run)
    if Path(pelleis.__file__).resolve().parent != SRC / "pelleis":
        raise SystemExit(f"pelleis imported from {pelleis.__file__}, "
                         f"not from {SRC}")
    return pelleis


def serve(workload, requests, execute, timings, check=None):
    """Serve requests in order, appending each one's latency at the
    reference speed to timings (the calibration slice is timed before the
    first request and after each); returns the sha256 digest of each
    output."""
    outputs = []
    before = calibrate.slice_s()
    for request in requests:
        t0 = perf_counter()
        outcome = execute(request)
        took = perf_counter() - t0
        after = calibrate.slice_s()
        timings.append(calibrate.at_reference(took, before, after))
        before = after
        outputs.append(hashlib.sha256(workload.material(outcome)).digest())
        if check is not None:
            workload.check(request, outcome, check)
    return outputs


def checksum(outputs) -> str:
    return hashlib.sha256(b"".join(outputs)).hexdigest()


def timed_run(workload, pkg, requests, n0: int, seconds: float,
              min_rounds: int, between_rounds):
    """The request list, served in rounds until `seconds` have passed and
    at least `min_rounds` rounds are done.  Outputs are checked in round 0
    and must repeat byte for byte in later rounds.  The peak RSS is read
    after round 0, which runs every distinct request, so that the timings
    of later rounds are not counted."""
    def execute(request):
        return workload.execute(pkg, request)

    rounds = []
    tally = Tally()
    gc.collect()
    begin = perf_counter()
    while True:
        timings = array("d")
        outputs = serve(workload, requests, execute, timings,
                        None if rounds else tally)
        if not rounds:
            first = outputs
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
        rounds.append(timings)
        repeats = outputs == first
        between_rounds(perf_counter() - begin)
        if not repeats or (len(rounds) >= min_rounds
                           and perf_counter() - begin >= seconds):
            break
    return TimedRun(rounds, tally, checksum(first), checksum(first[:n0]),
                    repeats, peak_rss_mb)


def traced_run(workload, pkg, block, seconds: float):
    """Block 0 untraced, then traced, in turn until `seconds` have passed.
    Layer metrics come from the first traced pass."""
    from tracing import ROOT as ROOT_SPAN, Tracer, instrument

    def execute(request):
        return workload.execute(pkg, request)

    digests = set()
    first = None
    untraced_s = traced_s = 0.0
    begin = perf_counter()
    while first is None or perf_counter() - begin < seconds:
        gc.collect()
        untraced = array("d")
        digests.add(checksum(serve(workload, block, execute, untraced)))
        tracer = Tracer()
        traced = array("d")
        with instrument(tracer):
            digests.add(checksum(serve(
                workload, block, tracer.wrap(ROOT_SPAN, execute), traced)))
        untraced_s += sum(untraced)
        traced_s += sum(traced)
        if first is None:
            first = (tracer, traced_s)
    return first, digests, traced_s / untraced_s


def end_to_end(workload, pkg, args) -> tuple[dict, Tally, bool]:
    requests = workload.requests(args.seed)
    n0 = len(workload.block(args.seed, 0))
    keep = per_request_keep(len(requests), spec.MIN_REQUESTS)
    min_rounds = max(MIN_ROUNDS, 2 * keep)    # kept timings: the faster half
    probes = SetupProbes(workload, args.seconds)
    for request in workload.warmup:      # the first, untimed requests
        workload.execute(pkg, request)
    run = timed_run(workload, pkg, requests, n0, args.seconds, min_rounds,
                    probes.between_rounds)
    setup = probes.finish()
    import reference                     # mpmath only after the RSS reading
    t = run.tally
    t.settle(reference.outside_bound)
    samples = fastest_samples(run.rounds, keep)
    fastest_s = sum(min(timings) for timings in zip(*run.rounds))
    round_s = [sum(timings) for timings in run.rounds]
    print(f"# checksum {workload.name} seed={args.seed} "
          f"sha256={run.digest} block0_sha256={run.block0}")
    print(f"# run distinct_requests={len(requests)} rounds={len(run.rounds)} "
          f"latency_samples={len(samples)} (the {keep} fastest of each "
          f"request) ops_per_round={t.ops} fastest_s={fastest_s!r} "
          f"round_s={round_s!r}")
    print(f"# setup_s samples={setup!r}")
    print_tally(t)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": t.ops / fastest_s,
        "latency_p50_ms": percentile(samples, 50) * 1e3,
        "latency_p90_ms": percentile(samples, 90) * 1e3,
        "ok_ratio": 1.0 - t.failed / t.ops,
        "peak_rss_mb": run.peak_rss_mb,
    }
    return metrics, t, run.repeats and t.malformed == 0


def per_layer(workload, pkg, args) -> tuple[dict, Tally, bool]:
    """Every request served and checked once, untraced, as in round 0 of an
    untraced run, so that `attempted` and `failed` match it; then block 0
    untraced and traced in turn.  Outputs of the traced passes must equal
    the checked ones, so block 0's checked outcomes are the traced pass's."""
    from tracing import layer_metrics, shares, summarize

    def execute(request):
        return workload.execute(pkg, request)

    for request in workload.warmup:
        workload.execute(pkg, request)
    requests = workload.requests(args.seed)
    n0 = len(workload.block(args.seed, 0))
    block_t, rest_t = Tally(), Tally()
    checked = checksum(serve(workload, requests[:n0], execute, array("d"),
                             block_t))
    serve(workload, requests[n0:], execute, array("d"), rest_t)
    (tracer, traced_s), digests, overhead = traced_run(
        workload, pkg, requests[:n0], args.seconds)
    digests.add(checked)
    import reference
    block_t.settle(reference.outside_bound)
    rest_t.settle(reference.outside_bound)
    path = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    tracer.write(path)
    print(f"# checksum {workload.name} seed={args.seed} "
          f"block0_sha256={' '.join(sorted(digests))} (traced and untraced)")
    print(f"# trace spans={len(tracer.start)} file={path.relative_to(ROOT)}")
    total = block_t + rest_t
    print_tally(total)
    print_tally(block_t, "block0_ops")
    summary = summarize(tracer)
    print("\n".join(shares(summary)))
    metrics = layer_metrics(tracer, summary, block_t, traced_s, overhead)
    return metrics, total, len(digests) == 1 and total.malformed == 0


def print_tally(t: Tally, label: str = "ops") -> None:
    print(f"# {label} attempted={t.ops} failed={t.failed} crash={t.crash} "
          f"nonfinite={t.nonfinite} bound={t.bound} residual={t.residual} "
          f"verdict={t.verdict} refused_pole={t.pole} "
          f"refused_diverged={t.diverged} skipped={t.skipped} "
          f"refused_other={t.refused} malformed={t.malformed}")


def run_one(args) -> int:
    if not (SRC / "pelleis" / "__init__.py").is_file():
        print(f"error: no pelleis sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pkg = import_package()
    if args.trace:
        metrics, tally, correct = per_layer(workload, pkg, args)
        names = [n for n, *_ in spec.PER_LAYER]
    else:
        metrics, tally, correct = end_to_end(workload, pkg, args)
        names = [n for n, *_ in spec.END_TO_END]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metric set differs from spec: {sorted(metrics)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": spec.UNITS[n]}
                    for n in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print(f"## {name} trace={trace}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"# correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"{name:14s} {metric:38s} {v['value']!r:>24} "
                      f"{v['unit']}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced and traced")
    p.add_argument("--write-spec", action="store_true",
                   help="regenerate BENCHMARK.json from perfbench/spec.py")
    args = p.parse_args(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
