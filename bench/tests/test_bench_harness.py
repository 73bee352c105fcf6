"""Self-tests of the benchmark harness (``python -m pytest bench/tests``)."""

from __future__ import annotations

import asyncio
import sys

import pytest

import loadgen
import stats
import trace
import workload


def run_virtual(coro):
    """Run ``coro`` on a loop whose clock jumps over idle waits.

    The loop's selector never blocks: when every task is waiting on a
    timer it advances the clock by the timeout instead, so sleeps take
    no real time and timings come out exact.
    """
    loop = asyncio.new_event_loop()
    now = [0.0]
    select = loop._selector.select

    def advance(timeout=None):
        if timeout:
            now[0] += timeout
        return select(0)

    loop.time = lambda: now[0]
    loop._selector.select = advance
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ percentiles


def test_tail_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.TailRefused):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(stats.TailRefused):
        stats.percentile(list(range(19)), 50)


def test_spread_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, median, q3 = stats.quartiles(values)
    assert median == 10.0
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


# -------------------------------------------------------------- open loop


def test_open_loop_latency_counts_from_the_due_time():
    """A stalled first session delays the sessions queued behind it."""

    async def stalled_server(index):
        await asyncio.sleep(1.0 if index == 0 else 0.05)
        return {"index": index}

    result = run_virtual(
        loadgen.open_loop([0.0, 0.1, 0.2], stalled_server, connections=1)
    )
    latency = dict(zip(result.indices, result.latencies))
    assert latency[0] == pytest.approx(1.0)
    # due at 0.1, started at 1.0 when the connection freed, done 1.05
    assert latency[1] == pytest.approx(0.95)
    assert latency[2] == pytest.approx(0.90)
    # the generator itself kept to its schedule
    assert result.lateness == pytest.approx([0.0, 0.0, 0.0])
    assert [v["index"] for v in result.verdicts] == [0, 1, 2]


def test_closed_loop_stops_after_its_session_budget():
    async def server(index):
        await asyncio.sleep(0.01)
        return {}

    result = run_virtual(loadgen.closed_loop(server, connections=2, sessions=5))
    assert sorted(result.indices) == [0, 1, 2, 3, 4]
    assert result.wall_s == pytest.approx(0.03)


def test_poisson_schedule_repeats_for_a_seed():
    import random

    first = loadgen.poisson_schedule(500, 2.0, random.Random(7))
    again = loadgen.poisson_schedule(500, 2.0, random.Random(7))
    assert first == again
    assert 800 < len(first) < 1200
    assert all(0 <= a < b < 2.0 for a, b in zip(first, first[1:]))


# -------------------------------------------------------------- self time


def test_self_time_with_nested_layers_and_same_layer_recursion():
    clock = FakeClock()
    rec = trace.Recorder(clock)
    rec.enter("other", "trial")  # t=0
    clock.now = 1.0
    rec.enter("crypto.ecc", "mul")
    clock.now = 2.0
    rec.enter("crypto.ecc", "mul")  # recursion inside the same layer
    clock.now = 3.0
    rec.enter("hci")  # another layer below it
    clock.now = 5.0
    rec.exit()
    clock.now = 6.0
    rec.exit()
    clock.now = 8.0
    rec.exit()
    clock.now = 10.0
    rec.exit()
    summary = rec.summary()
    assert summary["self_s"] == {"hci": 2.0, "crypto.ecc": 5.0, "other": 3.0}
    assert sum(summary["self_s"].values()) == summary["inclusive_s"]["trial"]
    # the recursive call counts, and is timed, once
    assert summary["calls"]["mul"] == 1
    assert summary["inclusive_s"]["mul"] == 7.0


def test_coroutine_is_not_charged_while_suspended():
    async def main():
        rec = trace.Recorder(asyncio.get_running_loop().time)

        async def read():
            await asyncio.sleep(1.0)
            return "frame"

        traced = trace._traced(read, "service.ws", "reads", rec)
        rec.enter("other", "root")
        value = await traced()
        rec.exit()
        return value, rec.summary()

    value, summary = run_virtual(main())
    assert value == "frame"
    assert summary["calls"]["reads"] == 1
    assert summary["self_s"]["service.ws"] == 0.0
    assert summary["self_s"]["other"] == pytest.approx(1.0)


# ---------------------------------------------------------- installation


def test_install_reaches_by_name_importers(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "leaf.py").write_text(
        "def work(x):\n    return x + 1\n\n"
        "class Thing:\n    def run(self):\n        return work(1)\n"
    )
    (package / "user.py").write_text(
        "from fakepkg.leaf import work\n\ndef call():\n    return work(41)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.leaf
    import fakepkg.user

    original = fakepkg.leaf.work
    rec = trace.Recorder()
    installed = trace.install(
        (
            trace.Boundary("fakepkg.leaf", "work", "leaf", "leaf.calls"),
            trace.Boundary("fakepkg.leaf", "Thing.run", "thing"),
        ),
        rec,
        prefix="fakepkg",
    )
    try:
        assert fakepkg.user.work is fakepkg.leaf.work is not original
        rec.enter("other", "root")
        assert fakepkg.user.call() == 42
        assert fakepkg.leaf.Thing().run() == 2
        rec.exit()
        summary = rec.summary()
        assert summary["calls"]["leaf.calls"] == 2
        assert set(summary["self_s"]) == {"other", "leaf", "thing"}
    finally:
        installed.restore()
        for name in ("fakepkg.user", "fakepkg.leaf", "fakepkg"):
            sys.modules.pop(name, None)
    assert fakepkg.user.work is original


def test_callbacks_are_charged_to_their_defining_subpackage():
    from repro.host.stack import HostStack

    assert trace.owner_layer(HostStack.__init__) == "host"
    assert trace.module_layer("repro.phy.medium") == "phy"
    assert trace.module_layer("asyncio.events") == "other"


# ----------------------------------------------------------------- digest


def test_digest_ignores_key_order_and_sees_every_field():
    a = stats.digest([{"seed": 1, "outcome": "mitm"}, ["x", 0.5]])
    b = stats.digest([{"outcome": "mitm", "seed": 1}, ["x", 0.5]])
    assert a == b
    assert stats.digest([{"seed": 1, "outcome": "lost"}, ["x", 0.5]]) != a


def test_trial_digest_is_stable_and_tracing_keeps_it():
    """Same seeds, same process: identical records, traced or not."""
    run = workload.TrialWorkload(workload.TRIAL_MIXES["quiet-br"], seed=5, seconds=0)
    run.setup()
    first = stats.digest(run.run_one(index)[0] for index in range(4))
    again = stats.digest(run.run_one(index)[0] for index in range(4))
    rec = trace.Recorder()
    installed = trace.install(trace.TRIAL_BOUNDARIES, rec)
    try:
        rec.enter("other", "trial")
        traced = stats.digest(run.run_one(index)[0] for index in range(4))
        rec.exit()
    finally:
        installed.restore()
    assert first == again == traced
    assert run.problems == []
    assert rec.summary()["calls"]["crypto.ecc.scalar_mults"] > 0
