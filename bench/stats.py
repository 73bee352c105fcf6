"""Percentiles, quartiles and digests shared by the benchmark scripts.

Standard library only, and no import of the program under test, so the
harness self-tests and ``compare.py`` run without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Iterable, List, Sequence

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


class TailRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused without enough tail.

    The value at rank ``ceil(q/100 * n)`` has ``n - rank`` samples
    above it; fewer than :data:`MIN_BEYOND` of them means the number
    says nothing about the tail, so :class:`TailRefused` is raised
    instead of returning it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TailRefused(
            f"p{q:g} of {n} samples has {n - rank} beyond it "
            f"(need {MIN_BEYOND})"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return [only, only, only]
    return list(statistics.quantiles(values, n=4))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def digest(records: Iterable[Any]) -> str:
    """sha256 over a canonical JSON rendering of ``records``."""
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
