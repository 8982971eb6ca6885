"""Seeded inputs, request execution and output checks for the four workloads.

A run's requests are `blocks` blocks.  Every block of a workload has the
same fixed mix of request shapes (sizes, weights, equations, rectangle
kinds) and the seed only draws positions, distances, angles and order, so
runs with different seeds load the program alike.  Block 0 is also the
traced pass.

Outcome accounting, per op (a grid cell, a point, a verify grid point, a
proof):
  * failed: an untyped exception (the whole request fails), a non-finite
    value or bound, |value - reference| > tail_bound on a checked value,
    rel_residual > 1e-9 at a tested point, a wrong prove verdict or defect;
  * refused: typed refusals (pole, diverged, skipped, '# failed:' rows),
    counted but not failures.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

MAX_REL_RESIDUAL = 1e-9
# Rows of each grid request checked against the reference; every grid size
# is a multiple of it, so each violation stands for a whole number of ops.
GRID_SAMPLE_ROWS = 16

EQUATIONS = ("inversion", "reflection", "shift", "negation")
# Accumulation points 1 - sqrt(2) and 1 + sqrt(2), correctly rounded.
ACCUMULATION = (-0.41421356237309503, 2.414213562373095)


def _pell_lucas_table(lo: int, hi: int) -> dict[int, int]:
    q = {0: 2, 1: 2}
    for n in range(2, hi + 1):
        q[n] = 2 * q[n - 1] + q[n - 2]
    for n in range(-1, lo - 1, -1):
        q[n] = q[n + 2] - 2 * q[n + 1]
    return q


_Q = _pell_lucas_table(-7, 7)
# Real poles p_j = -Q_{j-1}/Q_j for |j| <= 5.
POLES = {j: float(Fraction(-_Q[j - 1], _Q[j])) for j in range(-5, 6)}


@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    ops: int
    weight: int = 0                # grid: series weight of the rows
    sample: tuple[int, ...] = ()   # grid: data rows checked against mpmath
    expect: str = ""               # prove: expected verdict


@dataclass(frozen=True)
class PointRequest:
    z: complex
    m: int


@dataclass
class Tally:
    """Op outcomes of a set of requests."""

    ops: int = 0
    failed: int = 0
    crash: int = 0
    nonfinite: int = 0
    bound: int = 0
    residual: int = 0
    verdict: int = 0
    pole: int = 0
    diverged: int = 0
    skipped: int = 0
    refused: int = 0
    malformed: int = 0
    stdout_bytes: int = 0
    # values still to be checked against the reference:
    # (z, m, value, bound, ops the check stands for)
    pending: list = field(default_factory=list)

    def settle(self, outside_bound) -> None:
        """Run the pending reference checks.  `bound` counts violations; a
        violation in a sample of rows fails the ops the sample stands for."""
        for z, m, value, bound, weight in self.pending:
            if outside_bound(z, m, value, bound):
                self.bound += 1
                self.failed += weight
        self.pending = []

    def __add__(self, other: "Tally") -> "Tally":
        """The tally of both request sets (pending checks settled)."""
        if self.pending or other.pending:
            raise ValueError("settle the reference checks first")
        return Tally(**{k: v + getattr(other, k) for k, v in vars(self).items()
                        if k != "pending"})


def _rect(x0: float, y0: float, x1: float, y1: float) -> str:
    return f"{x0!r},{y0!r},{x1!r},{y1!r}"


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def run_cli(cli, argv) -> tuple:
    """(exit code or None, stdout, untyped exception name or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.run(list(argv))
        except Exception as exc:  # an untyped crash fails the request
            return None, out.getvalue(), type(exc).__name__
    return rc, out.getvalue(), None


class Workload:
    name = ""
    blocks = 1
    warmup: tuple = ()

    def block(self, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return self._block(rng, index)

    def requests(self, seed: int) -> list:
        return [r for i in range(self.blocks) for r in self.block(seed, i)]

    def _block(self, rng: random.Random, index: int) -> list:
        raise NotImplementedError

    def execute(self, pkg, request):
        return run_cli(pkg.cli, request.argv)

    @staticmethod
    def material(outcome) -> bytes:
        """Bytes the checksum covers: exit code and captured stdout."""
        rc, out, crash = outcome
        return f"{rc}|{crash}|{out}".encode()

    def check(self, request, outcome, tally: Tally) -> None:
        rc, out, crash = outcome
        tally.ops += request.ops
        tally.stdout_bytes += len(out.encode())
        if crash is not None:
            tally.crash += request.ops
            tally.failed += request.ops
            return
        self._check(request, rc, out.splitlines(), tally)

    def _check(self, request, rc, lines, tally: Tally) -> None:
        raise NotImplementedError


EVAL_HEADER = ("re,im,value_re,value_im,tail_bound,terms_used,"
               "minus_re,minus_im,plus_re,plus_im")
VERIFY_HEADER = ("re,im,lhs_re,lhs_im,rhs_re,rhs_im,"
                 "abs_residual,rel_residual,lhs_tail,rhs_tail")


class GridSweep(Workload):
    name = "grid-sweep"
    # Four blocks, so that the median latency is not set by the rectangles
    # of one middle-sized pair alone.
    blocks = 4
    # Every block holds each shape at each weight once, except the cheapest
    # pair (16x16 at weight 8): with an odd number of pairs the median
    # latency falls on one pair, not on the gap between two.  The rectangle
    # of shape i and weight j straddles the real axis when (i + j) % 4 == 0.
    SHAPES = ((16, 16), (24, 24), (32, 32), (40, 40))
    WEIGHTS = (2, 4, 6, 8)
    LEFT_OUT = (0, 3)
    warmup = (CliRequest(("grid", "--rect", "-1,0.5,1,1.5", "--nx", "16",
                          "--ny", "16", "--weight", "2"), 256, 2),)

    def _block(self, rng, index):
        out = []
        for i, (nx, ny) in enumerate(self.SHAPES):
            for j, m in enumerate(self.WEIGHTS):
                if (i, j) == self.LEFT_OUT:
                    continue
                w = rng.uniform(0.5, 3.0)
                h = rng.uniform(0.5, 2.0)
                x0 = rng.uniform(-3.0, 3.0 - w)
                y0 = (rng.uniform(-0.5, -0.05) if (i + j) % 4 == 0
                      else rng.uniform(0.05, 3.5 - h))
                argv = ("grid", "--rect", _rect(x0, y0, x0 + w, y0 + h),
                        "--nx", str(nx), "--ny", str(ny), "--weight", str(m))
                sample = tuple(sorted(rng.sample(range(nx * ny),
                                                 GRID_SAMPLE_ROWS)))
                out.append(CliRequest(argv, nx * ny, m, sample))
        rng.shuffle(out)
        return out

    def _check(self, request, rc, lines, tally):
        if not lines or lines[0] != EVAL_HEADER + ",status":
            tally.malformed += 1
            tally.failed += request.ops
            return
        rows = lines[1:]
        sample = set(request.sample)
        for i, line in enumerate(rows):
            if line.startswith("#"):   # '# error:' cuts the grid short
                break
            f = line.split(",")
            if len(f) != 11:
                tally.malformed += 1
                tally.failed += 1
                continue
            status = f[10]
            if status == "pole":
                tally.pole += 1
            elif status == "diverged":
                tally.diverged += 1
            elif status != "ok":
                tally.malformed += 1
                tally.failed += 1
            else:
                value = complex(float(f[2]), float(f[3]))
                bound = float(f[4])
                if not _finite(value.real, value.imag, bound):
                    tally.nonfinite += 1
                    tally.failed += 1
                elif i in sample:
                    z = complex(float(f[0]), float(f[1]))
                    tally.pending.append((z, request.weight, value, bound,
                                          request.ops // len(sample)))
        done = sum(1 for line in rows if not line.startswith("#"))
        if rc != 0 or done != request.ops:
            # valid requests must complete every cell
            tally.failed += request.ops - done


class Points(Workload):
    name = "points"
    PER_GROUP = 512
    POLE_WEIGHTS = (2, 3, 4, 6, 8, 16, 32, 64)
    warmup = (PointRequest(1 + 1j, 2),
              PointRequest(POLES[2] + 1e-4j, 8),
              PointRequest(ACCUMULATION[0] + 1e-3j, 4))

    def _block(self, rng, index):
        out = []
        for i in range(self.PER_GROUP):
            # off-axis: |Im z| >= 0.3, |z| <= 5
            while True:
                z = complex(rng.uniform(-5.0, 5.0),
                            rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 5.0))
                if abs(z) <= 5.0:
                    break
            out.append(PointRequest(z, 2 + i % 7))
            # 1e-7 .. 1e-3 from a pole p_j, |j| <= 5
            j = -5 + i % 11
            m = self.POLE_WEIGHTS[(i // 11) % len(self.POLE_WEIGHTS)]
            d = _log_uniform(rng, -7.0, -3.0)
            out.append(PointRequest(
                POLES[j] + d * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                m))
            # 1e-6 .. 1e-2 from 1 -/+ sqrt(2)
            c = ACCUMULATION[i % 2]
            d = _log_uniform(rng, -6.0, -2.0)
            out.append(PointRequest(
                c + d * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
                2 + (i // 2) % 7))
        rng.shuffle(out)
        return out

    def execute(self, pkg, request):
        try:
            r = pkg.eval_series(request.z, request.m)
        except pkg.PelleisError as exc:
            return "refused", type(exc).__name__
        except Exception as exc:  # untyped: counted as a crash
            return "crash", type(exc).__name__
        return "ok", (r.value, r.tail_bound, r.terms_used)

    @staticmethod
    def material(outcome) -> bytes:
        kind, payload = outcome
        return (repr(payload) if kind == "ok" else payload).encode()

    def check(self, request, outcome, tally):
        kind, payload = outcome
        tally.ops += 1
        if kind == "crash":
            tally.crash += 1
            tally.failed += 1
        elif kind == "refused":
            if payload == "PoleProximity":
                tally.pole += 1
            elif payload == "DidNotConverge":
                tally.diverged += 1
            else:
                tally.refused += 1
        else:
            value, bound, _ = payload
            if not _finite(value.real, value.imag, bound):
                tally.nonfinite += 1
                tally.failed += 1
            else:
                tally.pending.append((request.z, request.m, value, bound, 1))


class VerifySweep(Workload):
    name = "verify-sweep"
    blocks = 4
    GRID_OPS = 144   # the CLI's default 12 x 12 grid
    # Each equation gets each rectangle kind once, at k = 1, 2, 3 in turn.
    # The pole or accumulation point a rectangle surrounds follows its
    # (equation, block) slot, so every seed skips about as many points.
    KINDS = ("wide", "axis", "accum")
    warmup = (CliRequest(("verify", "--eq", "shift", "--k", "2"), 144),)

    def _block(self, rng, index):
        out = []
        for e, eq in enumerate(EQUATIONS):
            for k in (1, 2, 3):
                kind = self.KINDS[(e + k) % 3]
                if kind == "wide":
                    w = rng.uniform(0.5, 6.0)
                    h = rng.uniform(0.5, 3.0)
                    x0 = rng.uniform(-3.0, 3.0 - w)
                    y0 = rng.uniform(0.5, 3.5 - h)
                    rect = _rect(x0, y0, x0 + w, y0 + h)
                elif kind == "axis":
                    # height <= 1e-5 across the axis, narrow around a pole
                    # p_j: the column nearest p_j is within classify's 1e-6
                    w = _log_uniform(rng, -5.7, -5.0)
                    h = _log_uniform(rng, -7.0, -5.0)
                    j = (e + 4 * index) % 11 - 5
                    cx = POLES[j] + rng.uniform(-0.5, 0.5) * w
                    rect = _rect(cx - w / 2, -h / 2, cx + w / 2, h / 2)
                else:
                    # square around 1 -/+ sqrt(2), partly within classify's
                    # 1e-3 of it
                    s = _log_uniform(rng, -2.8, -2.6)
                    cx = ACCUMULATION[e % 2] + rng.uniform(-0.5, 0.5) * s
                    cy = rng.uniform(-0.5, 0.5) * s
                    rect = _rect(cx - s, cy - s, cx + s, cy + s)
                argv = ("verify", "--eq", eq, "--k", str(k), "--rect", rect)
                out.append(CliRequest(argv, self.GRID_OPS))
        rng.shuffle(out)
        return out

    def _check(self, request, rc, lines, tally):
        if lines and lines[0].startswith("# error: no testable points"):
            tally.skipped += request.ops          # EmptyGrid: all skipped
            return
        if not lines or lines[0] != VERIFY_HEADER:
            tally.malformed += 1
            tally.failed += request.ops
            return
        rows = 0
        summary = None
        for line in lines[1:]:
            if line.startswith("# failed:"):
                tally.refused += 1
            elif line.startswith("# summary "):
                summary = dict(kv.split("=", 1)
                               for kv in line[len("# summary "):].split())
            elif line.startswith("#"):
                tally.malformed += 1
            else:
                rows += 1
                f = [float(x) for x in line.split(",")]
                if len(f) != 10 or not _finite(*f):
                    tally.nonfinite += 1
                    tally.failed += 1
                elif f[7] > MAX_REL_RESIDUAL:
                    tally.residual += 1
                    tally.failed += 1
        if summary is None or int(summary["points_tested"]) != rows or (
                rows + int(summary["points_skipped"])
                + int(summary["points_failed"]) != request.ops):
            tally.malformed += 1
            tally.failed += request.ops - rows
            return
        tally.skipped += int(summary["points_skipped"])
        if rc != (1 if int(summary["points_failed"]) else 0):
            tally.malformed += 1


class ProveWindows(Workload):
    name = "prove-windows"
    warmup = (CliRequest(("prove", "--eq", "shift", "--window", "2",
                          "--k", "1"), 1,
                         expect="EXACT-ZERO-AFTER-BOUNDARY"),)

    def _block(self, rng, index):
        out = [CliRequest(("prove", "--eq", eq, "--window", str(j),
                           "--k", str(k)), 1,
                          expect=("EXACT-ZERO" if eq == "reflection"
                                  else "EXACT-ZERO-AFTER-BOUNDARY"))
               for eq in EQUATIONS for j in (2, 3, 4, 5) for k in (1, 2)]
        rng.shuffle(out)
        return out

    def _check(self, request, rc, lines, tally):
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        if (rc != 0 or fields.get("verdict") != request.expect
                or fields.get("defect numerator coefficients") != "0"):
            tally.verdict += 1
            tally.failed += 1


WORKLOADS = {w.name: w for w in (GridSweep(), Points(), VerifySweep(),
                                 ProveWindows())}
