"""HIOS-LP — longest-path-based operator scheduling (Alg. 1).

The spatial mapping iterates: extract the longest *valid* path from
the unscheduled subgraph (see :mod:`repro.core.longest_path`), then try
mapping the entire path onto each of the ``M`` GPUs, keeping the GPU
that minimizes the latency of list-scheduling everything mapped so far
(temporal step, :mod:`repro.core.list_schedule`).  Mapping a whole path
at once removes every transfer along it — the global optimization that
distinguishes HIOS-LP from the operator-at-a-time HIOS-MR.

After the spatial mapping, the sliding-window pass of Alg. 2
(:func:`repro.core.intra_gpu.parallelize`) regroups small co-located
operators into concurrent stages.  That second level and all of its
bookkeeping live in :func:`run_hios`, the one pipeline every HIOS
variant runs: HIOS-MR (:mod:`repro.core.hios_mr`) and HIOS-LP plus
local search (:mod:`repro.core.refine`) supply only their spatial step.

Both passes run on the incremental engine of :mod:`repro.core.fasteval`
by default (prefix-replay across the ``M`` GPU candidates of one path;
stage-graph deltas across window candidates); ``fast=False`` falls back
to the from-scratch reference loops.  Both paths are differentially
tested bit-identical.
"""

from __future__ import annotations

import time
from typing import Any, Callable, MutableMapping, cast

from ..costmodel.profile import CostProfile
from ..obs import declog
from .debuglint import debug_lint_schedule
from .evaluator import evaluate_latency
from .fasteval import EvalCounters, PrefixReplayer, soa_latency
from .fastpath import LongestPathEngine
from .intra_gpu import parallelize
from .list_schedule import build_singleton_schedule, list_schedule_latency
from .longest_path import longest_valid_path
from .priority import priority_order
from .result import ScheduleResult
from .schedule import Schedule

__all__ = [
    "SpatialMapping",
    "cached_spatial_lp",
    "run_hios",
    "schedule_hios_lp",
    "schedule_inter_gpu_lp",
]


def _lp_spatial_mapping(
    profile: CostProfile,
    fast: bool = True,
    counters: EvalCounters | None = None,
) -> tuple[dict[str, int], list[str], int]:
    """Run the iterative longest-path mapping; returns (assignment,
    priority order, number of extracted paths)."""
    graph = profile.graph
    num_gpus = profile.num_gpus
    order = priority_order(graph)
    unscheduled = set(graph.names)
    assignment: dict[str, int] = {}
    paths = 0
    replayer = (
        PrefixReplayer(
            graph,
            num_gpus,
            send_blocking=profile.send_blocking,
            gpu_speeds=profile.gpu_speeds,
            counters=counters,
        )
        if fast
        else None
    )
    path_engine = LongestPathEngine(graph) if fast else None

    log = declog.active()
    while unscheduled:
        path = (
            path_engine.longest_valid_path(unscheduled)
            if path_engine is not None
            else longest_valid_path(graph, unscheduled)
        )
        unscheduled.difference_update(path.vertices)
        paths += 1

        if not assignment and not profile.heterogeneous:
            # First path: all GPUs are interchangeable (homogeneity),
            # map onto GPU 0 without trying the rest.  With
            # heterogeneous speed factors (extension) every GPU is
            # tried like any other path.
            for v in path:
                assignment[v] = 0
            if log is not None:
                log.emit(
                    "lp-path",
                    path_index=paths - 1,
                    ops=list(path.vertices),
                    winner=0,
                    pinned=True,
                )
            continue

        scheduled_order = [v for v in order if v in assignment or v in path.vertices]
        if replayer is not None:
            # The prefix before the first operator whose processing
            # reads this path's assignment is candidate-invariant:
            # simulate it once, replay only the suffix per GPU.
            replayer.snapshot(scheduled_order, assignment, path.vertices)
        best_gpu = 0
        best_latency = float("inf")
        candidates: dict[int, float] = {}
        for gpu in range(num_gpus):
            for v in path:
                assignment[v] = gpu
            if replayer is not None:
                latency = replayer.replay(assignment)
            else:
                latency = list_schedule_latency(
                    graph,
                    assignment,
                    scheduled_order,
                    num_gpus,
                    send_blocking=profile.send_blocking,
                    gpu_speeds=profile.gpu_speeds,
                )
            candidates[gpu] = latency
            if latency < best_latency:
                best_latency = latency
                best_gpu = gpu
        for v in path:
            assignment[v] = best_gpu
        if log is not None:
            log.emit(
                "lp-path",
                path_index=paths - 1,
                ops=list(path.vertices),
                winner=best_gpu,
                latency_ms=best_latency,
                candidates_ms={str(g): lat for g, lat in candidates.items()},
            )

    return assignment, order, paths


def cached_spatial_lp(
    profile: CostProfile,
    fast: bool = True,
    counters: EvalCounters | None = None,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> tuple[dict[str, int], list[str], int]:
    """LP spatial mapping, optionally served from a per-workload cache.

    The Alg. 1 mapping depends only on the profile — not on the Alg. 2
    window — so one computation serves ``hios-lp`` at every window,
    ``inter-lp`` and ``hios-lp-ls`` alike (the sweep engine's batch
    workers exploit exactly this).  The cache stores and hands out
    copies, so no caller can corrupt another's view; a hit returns the
    bit-identical mapping the fresh run would produce.  Note a hit
    skips the phase entirely: its decision-log events are not
    re-emitted and its evaluation counters do not re-accumulate.
    """
    if spatial_cache is not None:
        hit = spatial_cache.get("lp")
        if hit is not None:
            assignment, order, paths = cast(
                "tuple[dict[str, int], list[str], int]", hit
            )
            return dict(assignment), list(order), paths
    assignment, order, paths = _lp_spatial_mapping(profile, fast=fast, counters=counters)
    if spatial_cache is not None:
        spatial_cache["lp"] = (dict(assignment), list(order), paths)
    return assignment, order, paths


#: What a HIOS spatial step (the inter-GPU level) returns:
#: ``(assignment, priority order, stats, phase_times)``.  The step's own
#: stats and timings lead the result's, in the order the step writes them.
SpatialMapping = tuple[dict[str, int], list[str], dict[str, object], dict[str, float]]


def run_hios(
    profile: CostProfile,
    algorithm: str,
    spatial: Callable[[EvalCounters], SpatialMapping],
    window: int,
    intra_gpu: bool,
    fast: bool,
) -> ScheduleResult:
    """The two-level HIOS pipeline shared by every variant.

    ``spatial`` is the variant's inter-GPU mapping (Alg. 1, Alg. 3, or
    Alg. 1 plus local search), called with the run's evaluation
    counters.  Everything after it is common: the singleton schedule
    of the mapping is validated and priced (its latency is
    ``stats["inter_gpu_latency"]``), then — unless ``intra_gpu=False``
    — Alg. 2 regroups each GPU's operators.
    ``fast`` picks the incremental evaluator or the reference loops
    for the final evaluation and for Alg. 2 (bit-identical either way).
    """
    t0 = time.perf_counter()
    cache_hits0 = profile.stage_time_cache_hits
    counters = EvalCounters()
    assignment, order, stats, phase_times = spatial(counters)
    schedule: Schedule = build_singleton_schedule(assignment, order, profile.num_gpus)
    latency = (
        soa_latency(profile, schedule, validate=True, counters=counters)
        if fast
        else evaluate_latency(profile, schedule, validate=True)
    )
    stats["inter_gpu_latency"] = latency

    if intra_gpu:
        t1 = time.perf_counter()
        schedule, latency, intra_stats = parallelize(
            profile, schedule, window=window, priority=order, fast=fast, counters=counters
        )
        phase_times["intra_gpu"] = time.perf_counter() - t1
        stats["intra_gpu"] = intra_stats

    counters.cache_hits = profile.stage_time_cache_hits - cache_hits0
    stats.update(counters.to_stats())
    stats["phase_times"] = phase_times
    debug_lint_schedule(
        profile.graph,
        schedule,
        algorithm=algorithm,
        window=window if intra_gpu else None,
    )
    return ScheduleResult(
        algorithm=algorithm,
        schedule=schedule,
        latency=latency,
        scheduling_time=time.perf_counter() - t0,
        stats=stats,
    )


def schedule_hios_lp(
    profile: CostProfile,
    window: int = 3,
    intra_gpu: bool = True,
    fast: bool = True,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """Full HIOS-LP: LP-based inter-GPU mapping + Alg. 2 regrouping.

    Set ``intra_gpu=False`` for the paper's "inter-GPU w/ LP" ablation
    (spatial mapping with sequential per-GPU execution).  ``fast=False``
    runs the retained reference inner loops instead of the incremental
    engine (same schedules and latencies, bit for bit).
    ``spatial_cache`` shares the window-independent Alg. 1 phase across
    calls on the same profile (see :func:`cached_spatial_lp`).
    """

    def spatial(counters: EvalCounters) -> SpatialMapping:
        t0 = time.perf_counter()
        assignment, order, paths = cached_spatial_lp(
            profile, fast=fast, counters=counters, spatial_cache=spatial_cache
        )
        t_spatial = time.perf_counter() - t0
        return assignment, order, {"paths": paths}, {"spatial_mapping": t_spatial}

    algorithm = "hios-lp" if intra_gpu else "inter-lp"
    return run_hios(profile, algorithm, spatial, window, intra_gpu, fast)


def schedule_inter_gpu_lp(
    profile: CostProfile,
    fast: bool = True,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """The "inter-GPU w/ LP" comparison point (no Alg. 2 pass)."""
    return schedule_hios_lp(
        profile, intra_gpu=False, fast=fast, spatial_cache=spatial_cache
    )
