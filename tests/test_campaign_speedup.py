"""Perf guard: sharding a campaign across workers must actually pay.

Marked ``perf`` (excluded from the default suite) and skipped on
machines with fewer than 4 cores — a 4-way pool on a 1-core box
measures scheduler thrash, not the engine.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.campaign import CampaignRunner, CampaignSpec

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="parallel speedup needs >= 4 cores",
    ),
]


def _timed_run(workers: int, spec: CampaignSpec):
    started = time.perf_counter()
    campaign = CampaignRunner(workers=workers).run(spec)
    elapsed = time.perf_counter() - started
    assert campaign.trials == len(list(spec.seeds))
    assert not campaign.errors
    return elapsed


def test_four_workers_at_least_twice_as_fast():
    # page-blocking is the expensive per-trial scenario (~40ms/trial),
    # so 48 trials give the pool real work to amortise its startup.
    spec = CampaignSpec(
        "page-blocking",
        seeds=range(90_000, 90_048),
        params={"m_spec": "galaxy_s8_android9"},
    )
    # warm-up: import + JIT-ish costs out of the measurement
    CampaignRunner(workers=1).run(
        CampaignSpec("page-blocking", seeds=[89_999])
    )
    serial = _timed_run(1, spec)
    parallel = _timed_run(4, spec)
    speedup = serial / parallel
    assert speedup >= 2.0, (
        f"4-worker speedup {speedup:.2f}x < 2x "
        f"(serial {serial:.2f}s, parallel {parallel:.2f}s)"
    )
