"""Order statistics for latency samples."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def percentile(samples, p: int) -> float:
    """p-th percentile, for a whole p in 1..99, by linear interpolation
    between the two closest ranks (statistics.quantiles, 'inclusive').

    Raises ValueError unless at least MIN_BEYOND samples rank above the
    interpolation point, so a reported tail percentile always rests on ten
    or more observations past it.
    """
    if p not in range(1, 100):
        raise ValueError(f"percentile must be a whole number in 1..99, "
                         f"got {p!r}")
    data = list(samples)
    n = len(data)
    beyond = n - 1 - (n - 1) * p // 100
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{p} of {n} samples has {max(beyond, 0)} beyond "
                         f"it; need at least {MIN_BEYOND}")
    return statistics.quantiles(data, n=100, method="inclusive")[p - 1]


def per_request_keep(distinct: int, min_samples: int) -> int:
    """How many timings of each distinct request make at least min_samples."""
    return -(-min_samples // distinct)


def fastest_samples(rounds, keep: int) -> list[float]:
    """Each request's `keep` fastest timings, where rounds[r][i] is request
    i's timing in round r.  Every sample is a timing some request really
    took; none is repeated to fill the count."""
    if keep < 1 or len(rounds) < keep:
        raise ValueError(f"{len(rounds)} rounds cannot give {keep} timings "
                         f"per request")
    return [t for timings in zip(*rounds) for t in sorted(timings)[:keep]]
