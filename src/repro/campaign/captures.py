"""Campaign-produced captures: seeded btsnoop corpora for the service.

The ``service-ingest`` workload of ``python3 bench/run.py``, the
service tests and the CI smoke job need realistic traffic without
shipping binary fixtures: these helpers run the same seeded worlds the
detection campaigns use and hand back the victim-side btsnoop bytes —
an attack capture carries the BLAP page-blocking signature, a benign
capture is an ordinary pairing.  Every capture is a pure function of
its seed, so a corpus is reproducible run to run.
"""

from __future__ import annotations

from typing import List

from repro.attacks.page_blocking import PageBlockingAttack
from repro.attacks.scenario import WorldConfig, build_world, standard_cast
from repro.snoop.hcidump import HciDump

#: seeds mirroring the detection-campaign fixtures
DEFAULT_ATTACK_SEED = 44
DEFAULT_BENIGN_SEED = 45


def attack_capture(seed: int = DEFAULT_ATTACK_SEED) -> bytes:
    """Victim-M btsnoop bytes from one seeded page-blocking attack."""
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    report = PageBlockingAttack(world, a, c, m).run()
    return report.m_dump.to_btsnoop_bytes()


def benign_capture(seed: int = DEFAULT_BENIGN_SEED) -> bytes:
    """Victim-M btsnoop bytes from one ordinary seeded pairing."""
    world = build_world(WorldConfig(seed=seed))
    m, c, a = standard_cast(world)
    dump = HciDump().attach(m.transport)
    c.user.note_pairing_initiated(m.bd_addr, world.simulator.now)
    m.host.gap.pair(c.bd_addr)
    world.run_for(20.0)
    return dump.to_btsnoop_bytes()


def produce_captures(
    count: int = 2,
    kind: str = "mixed",
    seed_base: int = 0,
) -> List[bytes]:
    """A corpus of ``count`` captures for streaming clients to replay.

    ``kind`` is ``"attack"``, ``"benign"`` or ``"mixed"``
    (alternating).  Seeds offset from the campaign defaults by
    ``seed_base + index`` so corpora of any size stay deterministic.
    """
    if kind not in ("attack", "benign", "mixed"):
        raise ValueError(
            f"kind must be attack, benign or mixed, got {kind!r}"
        )
    captures: List[bytes] = []
    for index in range(count):
        if kind == "attack" or (kind == "mixed" and index % 2 == 0):
            captures.append(
                attack_capture(DEFAULT_ATTACK_SEED + seed_base + index)
            )
        else:
            captures.append(
                benign_capture(DEFAULT_BENIGN_SEED + seed_base + index)
            )
    return captures
