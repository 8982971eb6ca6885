"""The package as the benchmark harness in perfbench/ sees it: the tracer's
call sites, and the byte-identical output of the four workloads.

perfbench/tests checks the harness itself; these check the package against
what the harness reads of it, so a change to the package that breaks the
traced runs or moves one printed digit fails here.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import pelleis
import pelleis.cli  # noqa: F401  (the CLI workloads call pelleis.cli.run)

SRC = Path(pelleis.__file__).resolve().parents[1]
BENCH = SRC.parent / "perfbench"


def test_every_tracer_site_resolves_and_is_restored():
    # In a fresh interpreter, as a traced run starts: every site of
    # tracing.SITES resolves, is wrapped inside instrument and holds the
    # same object again afterwards.
    code = ("import importlib, sys\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
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
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out == "True True True\n"


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
