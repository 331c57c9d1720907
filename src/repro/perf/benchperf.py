"""Measured perf trajectory: the harness and the gate behind ``chortle bench-perf``.

Times the Table 1-4 suite through the chortle engine in seven sweeps
(:data:`PHASES`):

* ``serial_uncached`` — the reference configuration: one cell at a time,
  no memo cache.  Every other phase's ``speedup_vs_serial`` is measured
  against this wall clock.
* ``cold_cache``      — same sweep with a fresh structural node-table
  cache (:class:`~repro.perf.memo.NodeTableCache`).  Pays the misses,
  but repeated tree shapes within the sweep already hit.
* ``warm_cache``      — the sweep again on the now-populated cache.
* ``parallel_proc_j<N>_cold`` / ``parallel_proc_j<N>_reuse`` — uncached,
  with ``N`` worker processes of the fork-once pool
  (:mod:`repro.perf.pool`) mapping forest trees concurrently inside each
  cell, for each ``N`` in :data:`MATRIX_JOBS`.  The cold leg tears the
  shared pool down first, so it pays worker start-up; the reuse leg runs
  on the now-warm pool and its self-warmed worker caches.

:func:`bench_gate` turns the payload into the verdict, and the
``bench-perf`` exit status is that verdict.  It is a pure function of
the payload and checks four things:

* every phase produced *identical* QoR (LUTs / counted LUTs / depth per
  cell) — a cache or a worker pool that changes results is a
  correctness bug, not a performance feature;
* the warm phase is not slower than the cold phase beyond
  :data:`WARM_TOLERANCE` plus :data:`WARM_NOISE_FLOOR` seconds — the
  regression mode a broken cache exhibits first;
* the warm phase missed nothing when the cold phase evicted nothing — a
  deterministic check of the same cache, free of timer noise;
* when the host offers enough schedulable cores, the best parallel leg
  beats serial outright.  That verdict is never silently passed: on
  smaller hosts it is recorded as ``skipped (insufficient cores)``
  (time-slicing workers measures overhead, not scaling), and on sweeps
  whose serial leg is shorter than :data:`PARALLEL_NOISE_FLOOR` as
  ``skipped (below noise floor)`` (pool dispatch and scheduler jitter
  swamp the work).

CI runs ``chortle bench-perf --quick`` on every push; the committed
``BENCH_perf.json`` at the repository root is a full-suite run.
Comparing performance across commits is the job of the repo benchmark
(``perfbench/``), which runs both commits on one host.

Phase wall clocks are wrapped in ``bench.perf_phase`` tracer spans and
the cache counters land in the metrics registry (``perf.cache.*``), so
the trajectory is visible through the standard observability surface.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bench.mcnc import TABLE_CIRCUITS, mcnc_circuit
from repro.bench.runner import mapper_factory, run_one_cell
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.obs import metrics, span
from repro.obs.progress import ProgressEmitter, resolve_progress
from repro.obs.qor import collect_environment
from repro.perf.memo import NodeTableCache
from repro.perf.parallel import worker_buckets
from repro.perf.pool import effective_affinity, register_subject, reset_pool

#: Bump when the result layout changes.  2: jobs x phase matrix legs,
#: ``matrix`` summary block, explicit parallel gate verdict, and the
#: schedulable-core set in ``config``.  3: no ``executor`` keys (every
#: jobs > 1 phase runs on processes) and the noise-floor verdict.
#: 4: no ``parallel`` / ``parallel_proc_j1`` legs (they repeated the
#: jobs=2 cold leg and the serial sweep), no ``matrix`` block (it copied
#: the phase seconds), no ``config.jobs``, and the warm-phase-misses
#: check in the gate.
SCHEMA = 4

#: Worker counts of the parallel legs (each gets a cold-pool and a
#: pool-reuse leg).
MATRIX_JOBS: Tuple[int, ...] = (2, 4)

#: Every sweep of one trajectory, in run order:
#: ``(phase name, cached, jobs, pool reuse)``.  ``pool reuse`` is
#: ``None`` for the serial phases, which never engage the pool.
PHASES: Tuple[Tuple[str, bool, int, Optional[bool]], ...] = (
    ("serial_uncached", False, 1, None),
    ("cold_cache", True, 1, None),
    ("warm_cache", True, 1, None),
) + tuple(
    ("parallel_proc_j%d_%s" % (jobs, "reuse" if reuse else "cold"),
     False, jobs, reuse)
    for jobs in MATRIX_JOBS
    for reuse in (False, True)
)

#: The ``--quick`` subset: small enough for a CI smoke job, repetitive
#: enough (shared tree shapes across circuits and K values) that the
#: warm-cache phase meaningfully exercises the memo.
QUICK_CIRCUITS: Tuple[str, ...] = ("9symml", "alu2", "count", "frg1")
QUICK_KS: Tuple[int, ...] = (3, 4)

#: Warm may be at most this fraction slower than cold before the gate
#: fails (timer noise on loaded CI machines; a healthy warm phase is
#: dramatically *faster*).
WARM_TOLERANCE = 0.20

#: Absolute seconds added on top of the relative warm tolerance so
#: millisecond-scale runs (a single tiny cell) don't fail the gate on
#: scheduler jitter alone.  Negligible against real suite wall clocks.
WARM_NOISE_FLOOR = 0.05

#: Serial-leg seconds below which the parallel verdict is skipped rather
#: than checked.  A 9symml K=3 cell (~0.1 s) measured 0.85x-1.40x across
#: back-to-back runs; the ``--quick`` suite (~0.6 s serial on a 2-core
#: x86 host) sits comfortably above the floor, so CI still gates on it.
PARALLEL_NOISE_FLOOR = 0.3


def collect_perf_environment(cwd: Optional[str] = None) -> Dict[str, object]:
    """The QoR environment block plus the CPU topology perf depends on."""
    env: Dict[str, object] = dict(collect_environment(cwd))
    env["cpu_count"] = os.cpu_count()
    env["cpu_affinity"] = effective_affinity()
    return env


def _run_phase(
    name: str,
    cells: Sequence[Tuple[BooleanNetwork, int, str]],
    cache: Optional[NodeTableCache],
    jobs: int,
    progress: Optional[ProgressEmitter] = None,
) -> Tuple[dict, List[list]]:
    """Run every cell once; returns (phase record, per-cell QoR rows)."""
    mapper_opts: Optional[Dict[str, object]] = None
    if jobs > 1:
        mapper_opts = {"jobs": jobs}
        # Register the whole suite before the first submit: a
        # freshly-forked pool then inherits every subject and no cell
        # pays a miss-retry blob mid-phase.  The mappers fan out the
        # *swept* network, which the sweep memo keeps identity-stable
        # across cells and phases.
        for net, _k, _mapper in cells:
            register_subject(sweep(net))
    counters_before = metrics.counters()
    qor: List[list] = []
    started = time.perf_counter()
    with span("bench.perf_phase", phase=name, cells=len(cells), jobs=jobs):
        for net, k, mapper_name in cells:
            if progress is not None:
                progress.cell_started(net.name, k, mapper_name, phase=name)
            cell_started = time.perf_counter()
            report = run_one_cell(
                net,
                k,
                mapper_name,
                cache=cache,
                mapper_opts=mapper_opts,
            )
            if progress is not None:
                progress.cell_finished(
                    net.name,
                    k,
                    mapper_name,
                    seconds=time.perf_counter() - cell_started,
                    phase=name,
                )
            qor.append(
                [net.name, k, mapper_name, report.luts, report.luts_total,
                 report.depth]
            )
    seconds = time.perf_counter() - started
    delta = metrics.counter_delta(counters_before)
    record = {
        "seconds": round(seconds, 4),
        "jobs": jobs,
        "cached": cache is not None,
        "cache": None,
    }
    if cache is not None:
        hits = delta.get(cache.name + ".hits", 0)
        misses = delta.get(cache.name + ".misses", 0)
        record["cache"] = {
            "hits": hits,
            "misses": misses,
            "evictions": delta.get(cache.name + ".evictions", 0),
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses
            else 0.0,
            "size": len(cache),
        }
    if jobs > 1:
        # Attribute the phase's worker time: compute vs queue wait vs
        # serialized payload bytes, straight from the perf.parallel.*
        # counter delta.
        record["workers"] = worker_buckets(delta, jobs=jobs)
    return record, qor


def _parallel_gate(
    phases: Dict[str, dict], affinity: Optional[int]
) -> Dict[str, object]:
    """The parallel speedup verdict: pass, fail, or an explicit skip.

    A leg is *eligible* when it ran at ``jobs >= 2`` and the host had at
    least ``jobs`` schedulable cores — with fewer cores the workers
    time-slice and a speedup below 1.0x is the expected outcome, so the
    verdict is downgraded to ``skipped (insufficient cores)`` instead of
    silently passing (or spuriously failing) the gate.  A serial leg
    shorter than :data:`PARALLEL_NOISE_FLOOR` is likewise downgraded, to
    ``skipped (below noise floor)``: the speedup of a sub-floor sweep
    flips with scheduling and says nothing about scaling.
    """
    serial = phases["serial_uncached"]["seconds"]
    if serial < PARALLEL_NOISE_FLOOR:
        return {
            "status": "skipped (below noise floor)",
            "affinity": affinity,
            "floor_seconds": PARALLEL_NOISE_FLOOR,
            "serial_seconds": serial,
            "ok": None,
        }
    eligible = {}
    for name, record in phases.items():
        jobs = int(record.get("jobs", 1) or 1)
        speedup = record.get("speedup_vs_serial")
        if jobs < 2 or speedup is None:
            continue
        if affinity is not None and affinity >= jobs:
            eligible[name] = speedup
    if not eligible:
        return {
            "status": "skipped (insufficient cores)",
            "affinity": affinity,
            "required": "parallel > 1.0x at jobs >= 2 with affinity >= jobs",
            "ok": None,
        }
    best = max(eligible, key=lambda name: eligible[name])
    return {
        "status": "checked",
        "affinity": affinity,
        "best_leg": best,
        "best_speedup": eligible[best],
        "ok": eligible[best] > 1.0,
    }


def _warm_phase_all_hits(phases: Mapping[str, dict]) -> Optional[bool]:
    """Whether the warm phase missed nothing; ``None`` when not checkable.

    A cold phase that evicted nothing leaves every node table it saw in
    the cache, and the warm phase replays the same cells, so any warm
    miss means the cache lost or failed to match an entry.  After cold
    evictions, warm misses are expected and the check is skipped.
    """
    if phases["cold_cache"]["cache"]["evictions"]:
        return None
    return phases["warm_cache"]["cache"]["misses"] == 0


def bench_gate(payload: Mapping) -> Dict[str, object]:
    """The bench-perf verdict, a pure function of the payload.

    ``pass`` is true when every phase's QoR matched serial, warm was not
    slower than cold beyond the tolerance, the warm phase missed nothing
    (when checkable) and the parallel verdict did not fail; skipped
    checks (``None``) never fail it.
    """
    phases = payload["phases"]
    warm = phases["warm_cache"]["seconds"]
    cold = phases["cold_cache"]["seconds"]
    # The relative tolerance plus a small absolute floor: on runs whose
    # phases finish in tens of milliseconds (one tiny cell), scheduler
    # jitter swamps any real cache effect and a pure ratio check flakes.
    warm_ok = warm <= cold * (1.0 + WARM_TOLERANCE) + WARM_NOISE_FLOOR
    all_hits = _warm_phase_all_hits(phases)
    qor_identical = bool(payload["qor_identical"])
    parallel = _parallel_gate(phases, payload["config"]["cpu_affinity"])
    return {
        "qor_identical": qor_identical,
        "warm_not_slower_than_cold": warm_ok,
        "warm_phase_all_hits": all_hits,
        "parallel": parallel,
        "pass": qor_identical
        and warm_ok
        and all_hits is not False
        and parallel["ok"] is not False,
    }


def run_bench_perf(
    circuits: Optional[Sequence[str]] = None,
    ks: Optional[Sequence[int]] = None,
    mappers: Sequence[str] = ("chortle",),
    quick: bool = False,
    created_at: str = "",
    cache_dir: Optional[str] = None,
    progress: object = False,
) -> dict:
    """Measure the perf trajectory; returns the ``BENCH_perf.json`` payload.

    ``circuits`` / ``ks`` default to the full Table 1-4 suite (or the
    CI-sized ``--quick`` subset when ``quick`` is set).  Every sweep of
    :data:`PHASES` runs once.  When ``cache_dir`` is given, the warm
    cache is additionally saved to disk there and immediately re-loaded
    into a fresh cache, recording the round trip.
    ``progress`` takes ``True`` (heartbeat lines on stderr) or a
    :class:`~repro.obs.progress.ProgressEmitter` for per-cell
    started/finished/ETA events across all phases.

    The returned payload carries the :func:`bench_gate` verdict as its
    ``gate`` block; ``gate["pass"]`` is the pass/fail answer.
    """
    if circuits is None:
        circuits = QUICK_CIRCUITS if quick else TABLE_CIRCUITS
    if ks is None:
        ks = QUICK_KS if quick else (2, 3, 4, 5)
    for name in mappers:
        mapper_factory(name)  # fail fast, before any timing
    networks = [mcnc_circuit(str(name)) for name in circuits]
    cells: List[Tuple[BooleanNetwork, int, str]] = [
        (net, k, mapper_name)
        for net in networks
        for k in ks
        for mapper_name in mappers
    ]

    cache = NodeTableCache()
    emitter = resolve_progress(progress, total=len(cells) * len(PHASES))
    phases: Dict[str, dict] = {}
    qor_by_phase: Dict[str, List[list]] = {}
    for name, cached, jobs, reuse in PHASES:
        if reuse is False:
            # A cold-pool leg measures worker start-up: tear the shared
            # pool down so the leg forks fresh workers.
            reset_pool()
        record, qor = _run_phase(
            name, cells, cache if cached else None, jobs, progress=emitter
        )
        if reuse is not None:
            record["pool_reuse"] = reuse
        phases[name] = record
        qor_by_phase[name] = qor

    serial_seconds = phases["serial_uncached"]["seconds"]
    for record in phases.values():
        record["speedup_vs_serial"] = (
            round(serial_seconds / record["seconds"], 3)
            if record["seconds"] > 0
            else None
        )

    reference = qor_by_phase["serial_uncached"]
    mismatches = []
    for name, qor in qor_by_phase.items():
        for ref_row, row in zip(reference, qor):
            if ref_row != row:
                mismatches.append({"phase": name, "expected": ref_row,
                                   "got": row})

    disk = None
    if cache_dir:
        path = cache.save_disk(cache_dir)
        reloaded = NodeTableCache(name="perf.cache.reload")
        loaded = reloaded.load_disk(cache_dir)
        disk = {
            "path": path,
            "entries_saved": len(cache),
            "entries_loaded": loaded,
            "round_trip_ok": loaded == len(cache),
        }

    sched = None
    if hasattr(os, "sched_getaffinity"):
        sched = sorted(os.sched_getaffinity(0))
    result = {
        "schema": SCHEMA,
        "created_at": created_at,
        "quick": quick,
        "config": {
            "circuits": [net.name for net in networks],
            "ks": list(ks),
            "mappers": list(mappers),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": effective_affinity(),
            "sched_getaffinity": sched,
        },
        "environment": collect_perf_environment(),
        "cells": len(cells),
        "phases": phases,
        "qor_identical": not mismatches,
    }
    result["gate"] = bench_gate(result)
    if mismatches:
        result["qor_mismatches"] = mismatches[:20]
    if disk is not None:
        result["disk_cache"] = disk
    return result


def render_bench_perf(result: dict) -> str:
    """A small human-readable summary of one bench-perf payload."""
    lines = [
        "bench-perf: %d cells (%s; K in %s)"
        % (
            result["cells"],
            ", ".join(result["config"]["circuits"]),
            result["config"]["ks"],
        )
    ]
    cores = result["config"].get("cpu_affinity")
    if cores is None:
        cores = result["config"].get("cpu_count")
    oversubscribed: Set[int] = set()
    for name, _cached, _jobs, _reuse in PHASES:
        phase = result["phases"].get(name)
        if phase is None:
            continue
        jobs = phase.get("jobs", 1)
        extra = ""
        if phase.get("cache"):
            extra = "  (cache: %d hits / %d misses, %.0f%% hit rate)" % (
                phase["cache"]["hits"],
                phase["cache"]["misses"],
                100.0 * phase["cache"]["hit_rate"],
            )
        if jobs > 1:
            extra = "  (jobs=%d%s)" % (
                jobs,
                ""
                if "pool_reuse" not in phase
                else (", warm pool" if phase["pool_reuse"] else ", cold pool"),
            )
            if isinstance(cores, int) and jobs > cores:
                oversubscribed.add(jobs)
        lines.append(
            "  %-22s %8.3fs  %5.2fx vs serial%s"
            % (name, phase["seconds"], phase["speedup_vs_serial"] or 0.0,
               extra)
        )
        workers = phase.get("workers")
        if workers:
            lines.append(
                "  %-22s %d tasks: %.3fs compute, %.3fs queue wait, "
                "%d pickled bytes"
                % (
                    "",
                    workers["tasks"],
                    workers["compute_seconds"],
                    workers["queue_wait_seconds"],
                    workers["pickle_bytes"],
                )
            )
    for jobs in sorted(oversubscribed):
        lines.append(
            "  WARNING: jobs=%d legs ran on %d schedulable core(s); workers "
            "time-slice, so their speedup measures overhead, not scaling"
            % (jobs, cores)
        )
    gate = result["gate"]
    verdict = gate.get("parallel")
    if isinstance(verdict, dict):
        if "floor_seconds" in verdict:
            lines.append(
                "  parallel gate: %s (serial %.3fs < floor %.2fs)"
                % (
                    verdict["status"],
                    verdict["serial_seconds"],
                    verdict["floor_seconds"],
                )
            )
        elif verdict.get("ok") is None:
            lines.append(
                "  parallel gate: %s (affinity=%s)"
                % (verdict.get("status"), verdict.get("affinity"))
            )
        else:
            lines.append(
                "  parallel gate: %s — best leg %s at %.2fx"
                % (
                    "ok" if verdict["ok"] else "FAIL",
                    verdict.get("best_leg"),
                    verdict.get("best_speedup") or 0.0,
                )
            )
    if "warm_not_slower_than_cold" in gate:
        all_hits = gate.get("warm_phase_all_hits")
        lines.append(
            "  warm vs cold: %s; warm-phase misses: %s"
            % (
                "ok" if gate["warm_not_slower_than_cold"] else "SLOWER",
                "skipped (cold phase evicted)"
                if all_hits is None
                else ("none" if all_hits else "FOUND"),
            )
        )
    lines.append(
        "  QoR identical across phases: %s; gate %s"
        % (
            "yes" if result["qor_identical"] else "NO",
            "PASS" if gate["pass"] else "FAIL",
        )
    )
    return "\n".join(lines)


def save_bench_perf(result: dict, path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
