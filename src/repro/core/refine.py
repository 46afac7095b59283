"""Local-search refinement of inter-GPU mappings (extension).

The paper maps whole longest paths (HIOS-LP) or single operators
(HIOS-MR) greedily and never revisits a placement.  This module adds a
post-pass the paper leaves on the table: operator-level best-improvement
local search over the spatial assignment — repeatedly move the single
operator whose reassignment to another GPU most reduces the
list-scheduled latency, until a fixed point or a round budget.

``schedule_hios_lp_ls`` packages it as "HIOS-LP + local search":
Alg. 1 spatial mapping -> local search -> Alg. 2 intra-GPU pass.  The
ablation benchmarks quantify how much headroom the greedy path mapping
leaves (typically a few percent on the Section V workloads).
"""

from __future__ import annotations

import time
from typing import Any, Mapping, MutableMapping

from ..costmodel.profile import CostProfile
from .fasteval import EvalCounters, PrefixReplayer
from .hios_lp import SpatialMapping, cached_spatial_lp, run_hios
from .list_schedule import list_schedule_latency
from .result import ScheduleResult

__all__ = ["local_search_assignment", "schedule_hios_lp_ls"]


def local_search_assignment(
    profile: CostProfile,
    assignment: Mapping[str, int],
    order: list[str],
    max_rounds: int = 3,
    fast: bool = True,
    counters: EvalCounters | None = None,
) -> tuple[dict[str, int], float, int]:
    """Best-improvement local search over operator-to-GPU moves.

    Returns ``(assignment, latency, moves)``.  Each round scans every
    operator against every other GPU and applies the single best move;
    a round without improvement terminates the search.  Complexity is
    ``O(rounds * |V| * M * (|V| + |E|))`` — polynomial, like the HIOS
    passes it refines.  With ``fast=True`` the per-move evaluation
    replays only the suffix after the moved operator's snapshot
    boundary (one prefix simulation per operator instead of one full
    simulation per (operator, GPU) pair) — bit-identical latencies.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    graph = profile.graph
    M = profile.num_gpus
    current = dict(assignment)
    best = list_schedule_latency(
        graph, current, order, M,
        send_blocking=profile.send_blocking, gpu_speeds=profile.gpu_speeds,
    )
    replayer = (
        PrefixReplayer(
            graph, M,
            send_blocking=profile.send_blocking,
            gpu_speeds=profile.gpu_speeds,
            counters=counters,
        )
        if fast
        else None
    )
    moves = 0
    for _ in range(max_rounds):
        # the best move carries the latency it was priced at, so
        # applying it needs no re-evaluation
        best_move: tuple[str, int, float] | None = None
        best_gain = 1e-12
        for v in order:
            home = current[v]
            if replayer is not None:
                replayer.snapshot(order, current, (v,))
            for gpu in range(M):
                if gpu == home:
                    continue
                current[v] = gpu
                if replayer is not None:
                    lat = replayer.replay(current)
                else:
                    lat = list_schedule_latency(
                        graph, current, order, M,
                        send_blocking=profile.send_blocking,
                        gpu_speeds=profile.gpu_speeds,
                    )
                gain = best - lat
                if gain > best_gain:
                    best_gain = gain
                    best_move = (v, gpu, lat)
            current[v] = home
        if best_move is None:
            break
        v, gpu, best = best_move
        current[v] = gpu
        moves += 1
    return current, best, moves


def schedule_hios_lp_ls(
    profile: CostProfile,
    window: int = 3,
    intra_gpu: bool = True,
    max_rounds: int = 3,
    fast: bool = True,
    spatial_cache: MutableMapping[str, Any] | None = None,
) -> ScheduleResult:
    """HIOS-LP with operator-level local search between Alg. 1 and Alg. 2."""

    def spatial(counters: EvalCounters) -> SpatialMapping:
        t0 = time.perf_counter()
        assignment, order, paths = cached_spatial_lp(
            profile, fast=fast, counters=counters, spatial_cache=spatial_cache
        )
        t_spatial = time.perf_counter() - t0
        assignment, _, moves = local_search_assignment(
            profile, assignment, order, max_rounds=max_rounds, fast=fast, counters=counters
        )
        t_search = time.perf_counter() - t0 - t_spatial
        stats: dict[str, object] = {"paths": paths, "local_search_moves": moves}
        return assignment, order, stats, {
            "spatial_mapping": t_spatial,
            "local_search": t_search,
        }

    return run_hios(profile, "hios-lp-ls", spatial, window, intra_gpu, fast)
