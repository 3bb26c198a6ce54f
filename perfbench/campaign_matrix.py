"""``campaign_matrix``: the pinned CI matrix on two worker shards.

Each repetition (at least ``MIN_REPEATS`` per run) runs
``.github/campaign/ci_matrix.toml`` (32 scenarios) with
``run_distributed_campaign(shards=2)`` into a fresh store, merges the shard
stores and gates the result with ``python -m repro campaign diff`` against
``.github/campaign/expectations.json``.  The matrix and its seed are pinned by
that expectations file, so ``--seed`` does not change the inputs here.

Shard-level figures come from timestamps on the ``progress`` callback: a
unit's span runs from its dispatch to the shard's next dispatch, and a
shard's last unit ends at the final write of its shard store.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import Context, Deadline, cpu_s, median, python_env

PRELOAD = ("repro.campaign.distributed", "repro.campaign.spec")
SPEC = Path(".github/campaign/ci_matrix.toml")
EXPECTATIONS = Path(".github/campaign/expectations.json")
SHARDS = 2
#: repetitions per run at the least; a single matrix run is one long sample,
#: and the median of three rides out one rep slowed by the shared host
MIN_REPEATS = 3

_DISPATCH = re.compile(r"^\[shard (\d+)\] unit ")
_PACKAGE = re.compile(r"^\[shard \d+\] \[(\w+)\] package (\S+):")


def setup(ctx: Context) -> Dict[str, object]:
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.load(ctx.root / SPEC)
    return {"spec": spec, "scenarios": len(spec.expand())}


def teardown(state: Dict[str, object]) -> None:
    """Nothing outlives the process."""


def _run_once(ctx: Context, spec, rep: int, progress) -> Tuple[float, float, object, Path]:
    """One sharded matrix run: (wall s, CPU s of this process and its shard
    workers, summary, store)."""
    from repro.campaign.distributed import run_distributed_campaign

    directory = ctx.out / "campaign" / f"rep{rep}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    store = directory / "store.jsonl"
    started = time.perf_counter()
    cpu_started = cpu_s()
    summary = run_distributed_campaign(
        spec,
        store,
        shards=SHARDS,
        progress=progress,
        exchange_dir=directory / "exchange",
    )
    wall = time.perf_counter() - started
    return wall, cpu_s() - cpu_started, summary, store


def _gate(ctx: Context, store: Path, summary, expected: int) -> None:
    from repro.campaign.distributed import find_shard_stores, merge_stores

    ctx.check(
        "every scenario executed without failures",
        summary.executed == expected and summary.failed == 0,
        summary.describe(),
    )
    merge_stores(find_shard_stores(store), output=store)
    diff = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "diff",
            "--store", str(store), "--expectations", str(ctx.root / EXPECTATIONS),
        ],
        cwd=ctx.root,
        env=python_env(ctx.root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    ctx.check(
        "campaign diff reports no drift",
        diff.returncode == 0 and "no drift" in diff.stdout,
        (diff.stdout + diff.stderr).strip()[-500:],
    )


def _shard_layers(
    events: List[Tuple[float, str]], store: Path, start: float, end: float
) -> Dict[str, float]:
    """Shard busy time, idle share and work counts from progress timestamps."""
    from repro.campaign.distributed import shard_store_path

    dispatches: Dict[int, List[float]] = {k: [] for k in range(SHARDS)}
    packages = []
    for stamp, message in events:
        match = _DISPATCH.match(message)
        if match:
            dispatches[int(match.group(1))].append(stamp)
        match = _PACKAGE.match(message)
        if match:
            packages.append(match.groups())
    busy = 0.0
    for shard, stamps in dispatches.items():
        if not stamps:
            continue
        path = shard_store_path(store, shard)
        last_write = path.stat().st_mtime if path.exists() else stamps[-1]
        busy += max(last_write, stamps[-1]) - stamps[0]
    wall = end - start
    return {
        "campaign.shard_busy_s": busy,
        "campaign.shard_idle_share": max(0.0, 1.0 - busy / (SHARDS * wall)),
        "campaign.packages_built": len(packages),
        "campaign.packages_distinct": len(set(packages)),
        "campaign.trainings": sum("training victim" in m for _, m in events),
        "campaign.restarts": sum("respawned worker" in m for _, m in events),
    }


def measure(ctx: Context, state: Dict[str, object], recorder=None) -> Dict[str, float]:
    spec = state["spec"]
    expected = state["scenarios"]
    events: List[Tuple[float, str]] = []

    def progress(message: str) -> None:
        events.append((time.time(), message))

    if recorder is not None:
        untraced, _, summary, store = _run_once(ctx, spec, 0, None)
        _gate(ctx, store, summary, expected)

    deadline = Deadline(ctx.seconds)
    walls, cpus = [], []
    rep = 0
    while True:
        rep += 1
        events.clear()
        start = time.time()
        wall, cpu, summary, store = _run_once(
            ctx, spec, rep, progress if recorder is not None else None
        )
        end = time.time()
        walls.append(wall)
        cpus.append(cpu)
        ctx.operations(attempted=summary.total)
        _gate(ctx, store, summary, expected)
        if recorder is not None:
            ctx.layers.update(_shard_layers(events, store, start, end))
            ctx.layers["trace.overhead_s"] = wall - untraced
            break
        if len(walls) >= MIN_REPEATS and not deadline.room_for(wall):
            break

    from repro.campaign.store import ResultStore

    records = ResultStore(store).records()
    ctx.note("matrix_wall_ms", median(walls) * 1e3, "ms")
    ctx.note("scenarios_per_s", expected / median(walls), "1/s")
    ctx.note("matrix_cpu_s", median(cpus), "s")
    ctx.note("campaign_repeats", len(walls), "count")
    return {
        "cpu_ms_per_op": median(cpus) * 1e3,
        "ops_per_cpu_s": expected / median(cpus),
        "coverage": sum(r.coverage for r in records) / len(records),
        "detection_rate": sum(r.detection_rate for r in records) / len(records),
        "queries_per_verdict": sum(
            float(r.extra["mean_queries_to_decision"]) for r in records
        ) / len(records),
    }
