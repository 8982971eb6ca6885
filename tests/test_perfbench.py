"""The package as the benchmark harness in perfbench/ sees it: the tracer's
call sites, the byte-identical output of the four workloads and their
traced call counts.

perfbench/tests checks the harness itself; these check the package against
what the harness reads of it, so a change to the package that breaks the
traced runs, moves one printed digit or a pinned count fails here.
"""

import hashlib
import json
import sys

import pytest

import fresh
import pelleis
import pelleis.cli  # noqa: F401  (the CLI workloads call pelleis.cli.run)

BENCH = fresh.SRC.parent / "perfbench"


def test_every_tracer_site_resolves_and_is_restored():
    # In a fresh interpreter, as a traced run starts: every site of
    # tracing.SITES resolves, is wrapped inside instrument and holds the
    # same object again afterwards.
    code = ("import importlib\n"
            f"sys.path.insert(1, {str(BENCH)!r})\n"
            "from tracing import SITES, Tracer, instrument\n"
            "def site(module, cls, attr):\n"
            "    owner = importlib.import_module(module)\n"
            "    return getattr(owner if cls is None else\n"
            "                   getattr(owner, cls), attr)\n"
            "keys = [s[:3] for s in SITES]\n"
            "before = [site(*k) for k in keys]\n"
            "with instrument(Tracer()):\n"
            "    inside = [site(*k).__wrapped__ for k in keys]\n"
            "after = [site(*k) for k in keys]\n"
            "print(bool(keys),\n"
            "      all(map(lambda a, b: a is b, inside, before)),\n"
            "      all(map(lambda a, b: a is b, after, before)))\n")
    assert fresh.run(code) == "True True True\n"


def test_exact_serves_only_the_names_the_tracer_reads():
    # pelleis.exact binds names of exact_reference on first use only for
    # the tracer: the names its hook serves (those of exact_reference that
    # a fresh pelleis.exact resolves but has not bound) are the names
    # tracing.SITES reads through pelleis.exact that it has not bound.
    # When the tracer stops reading them, this names the aliases to delete.
    code = ("import pelleis.exact as exact\n"
            "bound = set(vars(exact))\n"
            f"sys.path.insert(1, {str(BENCH)!r})\n"
            "from tracing import SITES\n"
            "import pelleis.exact_reference as home\n"
            "served = {n for n in vars(home)\n"
            "          if n not in bound and hasattr(exact, n)}\n"
            "read = {attr if cls is None else cls\n"
            "        for module, cls, attr, _, _ in SITES\n"
            "        if module == 'pelleis.exact'}\n"
            "print(sorted(served))\n"
            "print(sorted(read - bound))\n")
    served, read = fresh.run(code).splitlines()
    assert served == read


# The seed-1 checksums of all four workload request mixes, as
# `perfbench/run.py --workload <name> --seed 1` prints them: a change to
# evaluation, tail bounds, summation, refinement, classify or the exact
# prover that moves one printed digit fails here.
CHECKSUMS = {
    "verify-sweep":
        "eed058bea7598e910ace21a5cdd15ea1ee01879c241111ab2993d926a17be62c",
    "grid-sweep":
        "6216cb8c3b90942d49e94ff739f9226ca29dfca17bc7f86a32872ea354ffbaf2",
    "points":
        "b6cfd38e98b741369b56be6b5fca6eab455d7b7632d34e7f64b79297e32b57aa",
    "prove-windows":
        "d58f85f4fcc417540d323ff83c15209ec922c520933603158510ce72961c5c3d",
}


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    return run


@pytest.mark.parametrize("name", CHECKSUMS)
def test_workload_output_is_byte_identical(harness, name):
    # One pass over the seed's requests, digested as a run's round 0 is.
    workload = harness.WORKLOADS[name]
    outputs = [hashlib.sha256(workload.material(
        workload.execute(pelleis, request))).digest()
        for request in workload.requests(1)]
    assert harness.checksum(outputs) == CHECKSUMS[name]


def test_traced_counts_of_block_0():
    # What `perfbench/run.py --trace 1` traces (each workload's warm-up
    # requests, then seed 1's block 0), in a fresh interpreter so that no
    # other test's patch or cache shows.  Every count is deterministic.
    code = ("import json\n"
            f"sys.path.insert(1, {str(BENCH)!r})\n"
            "import pelleis, pelleis.cli, tracing, workloads\n"
            "traced = {}\n"
            "for name, workload in workloads.WORKLOADS.items():\n"
            "    for request in workload.warmup:\n"
            "        workload.execute(pelleis, request)\n"
            "    tracer = tracing.Tracer()\n"
            "    execute = tracer.wrap(tracing.ROOT, workload.execute)\n"
            "    with tracing.instrument(tracer):\n"
            "        for request in workload.block(1, 0):\n"
            "            execute(pelleis, request)\n"
            "    traced[name] = tracing.layer_metrics(tracer,\n"
            "        tracing.summarize(tracer), workloads.Tally(), 0.0, 0.0)\n"
            "print(json.dumps(traced))\n")
    traced = json.loads(fresh.run(code, timeout=120))
    grid, points, verify, prove = (traced[name] for name in (
        "grid-sweep", "points", "verify-sweep", "prove-windows"))

    # The evaluator searches for its stopping window instead of checking
    # the tail bound after every window (6.60 checks per evaluation on
    # grid-sweep), starts the search from a closed-form guess and
    # certifies a passing window by the proven 2^m fall of the bound
    # instead of probing the window below it.  A return to the plain
    # search (2.82 on grid-sweep, 4.12 on points) fails here; they read
    # 1.272 and 1.209.
    for metrics in (grid, points):
        assert metrics["evaluator.tail_checks_per_eval"] <= 1.5
    # verify-sweep evaluates through the residual path, which makes no
    # eval_series call, so its tail checks are pinned as a total: 13,009
    # without the guess and certificate, 4,808 with them, refining each
    # side on its own series state (4,890 when a refinement restarts each
    # side from window 2).
    assert verify["evaluator.tail_bound.calls"] == 4808
    # The summation kernel adds each side's terms in one pass over the
    # float table (evaluator._add_terms), not one term_value call per
    # term; the grid-sweep checksum pins the terms summed (terms_used).
    for metrics in (grid, points, verify):
        assert metrics["evaluator.term_value.calls"] == 0
    # classify is counted where verify_grid calls it, once per side of
    # each point it maps: a grid path that classifies a side twice fails.
    assert [metrics["analysis.classify.calls"]
            for metrics in (grid, points, verify)] == [0, 0, 3238]
    # The prover writes its boundary terms from their closed-form pairs
    # into the termwise tally, sums it over one integer denominator and
    # reads the canonical form off its known roots, with no gcd-running
    # constructor: chained Fraction additions (584 polynomial products),
    # gcd canonicalisation (112 constructor builds) or substituted
    # boundary terms fail here.  The substitute count is blind (the tracer
    # wraps pelleis.exact's name, exact_reference calls its own global),
    # so substituted terms fail by the products and builds they make.
    for site in ("substitute", "poly_mul", "rf_new"):
        assert prove[f"exact.{site}.calls"] == 0
