"""``repro.profile`` — deterministic profiling & perf attribution.

Built on the obs layer's span instrumentation, this package answers
"where does the time go?" without guessing:

* :class:`SelfTimeTree` — per-span-type-path **self-time** aggregates
  (wall minus children; additive, no parent double-counting), built
  from live span trackers or shard-merged metrics snapshots, merged
  order-independently, exported as collapsed flamegraph stacks
  (``flamegraph.pl`` / speedscope) — all in simulated time, so every
  artifact is byte-identical per seed;
* :mod:`repro.profile.sampler` — the opt-in wall-clock complement: a
  per-trial ``cProfile`` sampler in campaign workers with per-shard
  pstats dumps merged into one ``profile.pstats``;
* :func:`write_profile_artifacts` — the one call the CLI and campaign
  runner share to land ``profile/`` artifacts in a run directory.

Surfaces: ``blap profile run|diff|flame``, ``blap campaign run
--profile`` and the "Self-time attribution" section of ``blap report``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.profile.sampler import (
    SHARD_GLOB,
    ShardProfiler,
    merge_pstats,
    top_functions,
)
from repro.profile.selftime import (
    SPAN_PREFIX,
    SPANSELF_PREFIX,
    SPANTREE_PREFIX,
    SelfTimeTree,
    diff_trees,
    root_wall_s,
    top_self_time_spans,
)

#: profile.json schema version
PROFILE_FORMAT = 1

__all__ = [
    "PROFILE_FORMAT",
    "SHARD_GLOB",
    "SPAN_PREFIX",
    "SPANSELF_PREFIX",
    "SPANTREE_PREFIX",
    "SelfTimeTree",
    "ShardProfiler",
    "diff_trees",
    "load_profile",
    "merge_pstats",
    "root_wall_s",
    "top_self_time_spans",
    "write_profile_artifacts",
]


def write_profile_artifacts(
    snapshot: Mapping[str, Any],
    out_dir: Union[str, Path],
    shard_pstats_dir: Optional[Union[str, Path]] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """Write a run's ``profile/`` artifacts; returns the summary dict.

    Deterministic artifacts (pure functions of the merged metrics
    snapshot, i.e. of simulated time):

    * ``spans.collapsed`` — collapsed flamegraph stacks;
    * ``profile.json`` — the serialized self-time tree plus the
      top-N self-time span types and totals.

    Wall-clock artifacts, only when ``shard_pstats_dir`` holds shard
    dumps from a ``--cprofile`` campaign (kept out of ``profile.json``
    so the deterministic surface stays byte-identical per seed):

    * ``profile.pstats`` — shard dumps merged with :func:`merge_pstats`;
    * ``cprofile.json`` — the top functions by own time.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tree = SelfTimeTree.from_snapshot(snapshot)
    (out_dir / "spans.collapsed").write_text(
        tree.to_collapsed(), encoding="utf-8"
    )
    summary: Dict[str, Any] = {
        "format": PROFILE_FORMAT,
        "top_self": top_self_time_spans(snapshot, top),
        "total_self_s": tree.total_self_s,
        "root_wall_s": root_wall_s(snapshot),
        "tree": tree.to_jsonable(),
    }
    with open(out_dir / "profile.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if shard_pstats_dir is not None:
        shards = sorted(Path(shard_pstats_dir).glob(SHARD_GLOB))
        if shards:
            pstats_path = merge_pstats(shards, out_dir / "profile.pstats")
            with open(
                out_dir / "cprofile.json", "w", encoding="utf-8"
            ) as handle:
                json.dump(
                    {"top_functions": top_functions(pstats_path, top)},
                    handle,
                    indent=1,
                    sort_keys=True,
                )
                handle.write("\n")
            for shard in shards:
                shard.unlink()
    return summary


def load_profile(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a ``profile.json`` (or a directory containing one)."""
    path = Path(path)
    if path.is_dir():
        for candidate in (path / "profile.json", path / "profile" / "profile.json"):
            if candidate.exists():
                path = candidate
                break
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "tree" not in payload:
        raise ValueError(f"{path} is not a profile.json artifact")
    return payload
