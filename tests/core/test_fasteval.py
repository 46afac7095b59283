"""Differential tests for the incremental evaluation engine.

The contract of :mod:`repro.core.fasteval` is *bit-identity*: every
fast path must produce exactly the floats (and therefore exactly the
schedules) of the retained reference implementations.  These tests
exercise the engine both directly (PrefixReplayer / StageGraphEvaluator
against the from-scratch evaluators) and end-to-end (``fast=True`` vs.
``fast=False`` runs of every scheduler), across blocking and
non-blocking communication and homogeneous and heterogeneous GPUs.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EvalCounters,
    OpGraph,
    PrefixReplayer,
    Stage,
    StageGraphEvaluator,
    build_singleton_schedule,
    evaluate_latency,
    local_search_assignment,
    make_profile,
    parallelize,
    priority_order,
    schedule_graph,
)
from repro.core.list_schedule import list_schedule_latency
from repro.models import random_dag_profile

from .test_properties import dag_profiles


def _rand_graph(seed: int, n: int = 18) -> OpGraph:
    rng = random.Random(seed)
    g = OpGraph()
    for i in range(n):
        g.add_operator(f"v{i}", cost=rng.uniform(0.1, 4.0), occupancy=rng.uniform(0.1, 1.0))
    for v in range(1, n):
        for u in range(v):
            if rng.random() < 0.25:
                g.add_edge(f"v{u}", f"v{v}", rng.uniform(0.0, 2.0))
    return g


# ---------------------------------------------------------------------------
# PrefixReplayer vs. list_schedule_latency


@pytest.mark.parametrize("blocking", [True, False])
@pytest.mark.parametrize("speeds", [None, (1.0, 1.5, 0.75)])
def test_prefix_replay_matches_reference(blocking, speeds):
    g = _rand_graph(seed=11)
    M = 3
    order = priority_order(g)
    rng = random.Random(7)
    assignment = {v: rng.randrange(M) for v in order}
    replayer = PrefixReplayer(g, M, send_blocking=blocking, gpu_speeds=speeds)
    for trial in range(20):
        varying = rng.sample(order, rng.randint(1, 4))
        replayer.snapshot(order, assignment, varying)
        for _ in range(M):
            for v in varying:
                assignment[v] = rng.randrange(M)
            want = list_schedule_latency(
                g, assignment, order, M, send_blocking=blocking, gpu_speeds=speeds
            )
            got = replayer.replay(assignment)
            assert got == want  # bit-identical, not approx


def test_prefix_replay_handles_partial_assignments():
    """The spatial-mapping use case: unmapped operators absent from the
    assignment and from the simulated order."""
    g = _rand_graph(seed=23)
    M = 2
    order = priority_order(g)
    rng = random.Random(3)
    half = order[: len(order) // 2]
    assignment = {v: rng.randrange(M) for v in half[: len(half) - 3]}
    varying = half[len(half) - 3 :]
    sub_order = [v for v in order if v in assignment or v in varying]
    replayer = PrefixReplayer(g, M)
    replayer.snapshot(sub_order, assignment, varying)
    for gpu in range(M):
        for v in varying:
            assignment[v] = gpu
        want = list_schedule_latency(g, assignment, sub_order, M)
        assert replayer.replay(assignment) == want
    for v in varying:
        del assignment[v]


def test_prefix_boundary_covers_predecessor_sends():
    """Under sender blocking, a predecessor's send loop reads the
    varying operator's assignment, so the boundary must not extend past
    the earliest predecessor."""
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
        [("a", "b", 0.5), ("a", "c", 0.5), ("b", "d", 0.5), ("c", "d", 0.5)],
    )
    order = priority_order(g)
    pos = {v: i for i, v in enumerate(order)}
    blocking = PrefixReplayer(g, 2, send_blocking=True)
    nonblocking = PrefixReplayer(g, 2, send_blocking=False)
    # earliest predecessor of d, whichever of b/c the order puts first
    assert blocking.prefix_boundary(order, ["d"]) == min(pos["b"], pos["c"])
    assert nonblocking.prefix_boundary(order, ["d"]) == pos["d"]


# ---------------------------------------------------------------------------
# StageGraphEvaluator vs. evaluate_latency


@pytest.mark.parametrize("blocking", [True, False])
def test_stage_evaluator_matches_reference_on_merges(blocking):
    prof = random_dag_profile(seed=9, num_gpus=2, num_ops=30, num_layers=5)
    prof = replace(prof, send_blocking=blocking)
    graph = prof.graph
    order = priority_order(graph)
    assignment = {v: i % 2 for i, v in enumerate(order)}
    schedule = build_singleton_schedule(assignment, order, 2)
    ev = StageGraphEvaluator(prof, schedule)
    assert ev.evaluate() == evaluate_latency(prof, schedule)

    checked = 0
    for gpu in range(2):
        stages = schedule.stages_on(gpu)
        for pos in range(len(stages) - 1):
            for p in (1, 2):
                if pos + p >= len(stages):
                    break
                group = tuple(
                    st.ops[0] for st in stages[pos : pos + p + 1]
                )
                if not graph.independent(group):
                    continue
                merged = stages[:pos] + [Stage(gpu, group)] + stages[pos + 1 + p :]
                candidate = schedule.with_stages_on_gpu(gpu, merged)
                try:
                    want = evaluate_latency(prof, candidate)
                except Exception:
                    want = None
                got = ev.try_merge(gpu, pos, p, group)
                assert got == want
                checked += 1
    assert checked > 10  # the sweep actually exercised merges


def test_stage_evaluator_detects_cycles():
    # a -> b -> c with a, c on GPU 0 and b on GPU 1: grouping a with c
    # puts b both downstream and upstream of the merged stage
    g = OpGraph.from_edges(
        {"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.1), ("b", "c", 0.1)]
    )
    prof = make_profile(g, num_gpus=2)
    schedule = build_singleton_schedule({"a": 0, "b": 1, "c": 0}, ["a", "b", "c"], 2)
    ev = StageGraphEvaluator(prof, schedule)
    assert ev.try_merge(0, 0, 1, ("a", "c")) is None


# ---------------------------------------------------------------------------
# End-to-end: fast schedulers are bit-identical to the references

DIFF_ALGOS = ["ios", "hios-lp", "hios-mr", "hios-lp-ls"]


@settings(max_examples=30, deadline=None)
@given(
    profile=dag_profiles(),
    alg=st.sampled_from(DIFF_ALGOS),
    hetero=st.booleans(),
)
def test_fast_schedulers_match_reference(profile, alg, hetero):
    """Satellite property: optimized vs. reference on random DAGs, all
    four algorithms, blocking and non-blocking, homogeneous and
    heterogeneous speeds."""
    if hetero:
        speeds = tuple(1.0 + 0.5 * g for g in range(profile.num_gpus))
        profile = replace(profile, gpu_speeds=speeds)
    fast = schedule_graph(profile, alg, fast=True)
    ref = schedule_graph(profile, alg, fast=False)
    assert fast.schedule.to_dict() == ref.schedule.to_dict()
    assert abs(fast.latency - ref.latency) <= 1e-12
    assert fast.latency == ref.latency  # the engine's actual contract


def test_fast_matches_reference_on_larger_fixed_seeds():
    for seed in range(3):
        prof = random_dag_profile(seed=seed, num_gpus=4, num_ops=60, num_layers=8)
        for alg in DIFF_ALGOS:
            fast = schedule_graph(prof, alg, fast=True)
            ref = schedule_graph(prof, alg, fast=False)
            assert fast.latency == ref.latency
            assert fast.schedule.to_dict() == ref.schedule.to_dict()


def test_stats_counters_present_and_plausible():
    prof = random_dag_profile(seed=2, num_gpus=3, num_ops=40, num_layers=6)
    res = schedule_graph(prof, "hios-lp", fast=True)
    for key in ("evals", "suffix_replays", "window_delta_evals", "cache_hits"):
        assert key in res.stats
        assert res.stats[key] >= 0
    assert res.stats["suffix_replays"] > 0  # the replayer actually ran
    assert res.stats["window_delta_evals"] > 0  # Alg. 2 used the delta path
    assert "phase_times" in res.stats
    assert "spatial_mapping" in res.stats["phase_times"]

    ref = schedule_graph(prof, "hios-lp", fast=False)
    assert ref.stats["suffix_replays"] == 0
    assert ref.stats["window_delta_evals"] == 0


_COUNTER_KEYS = ["evals", "suffix_replays", "window_delta_evals", "soa_evals", "cache_hits"]
#: algorithm -> (stats keys in order, phase_times keys in order): the
#: result schema every HIOS variant keeps through the shared pipeline
HIOS_STATS_SCHEMA = {
    "hios-lp": (
        ["paths", "inter_gpu_latency", "intra_gpu", *_COUNTER_KEYS, "phase_times"],
        ["spatial_mapping", "intra_gpu"],
    ),
    "inter-lp": (
        ["paths", "inter_gpu_latency", *_COUNTER_KEYS, "phase_times"],
        ["spatial_mapping"],
    ),
    "hios-mr": (
        ["inter_gpu_latency", "intra_gpu", *_COUNTER_KEYS, "phase_times"],
        ["spatial_mapping", "intra_gpu"],
    ),
    "inter-mr": (
        ["inter_gpu_latency", *_COUNTER_KEYS, "phase_times"],
        ["spatial_mapping"],
    ),
    "hios-lp-ls": (
        [
            "paths",
            "local_search_moves",
            "inter_gpu_latency",
            "intra_gpu",
            *_COUNTER_KEYS,
            "phase_times",
        ],
        ["spatial_mapping", "local_search", "intra_gpu"],
    ),
}


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("algorithm", sorted(HIOS_STATS_SCHEMA))
def test_hios_stats_schema(algorithm, fast):
    from repro.core import IntraGpuStats

    prof = random_dag_profile(seed=4, num_gpus=3, num_ops=30, num_layers=5)
    res = schedule_graph(prof, algorithm, fast=fast)
    keys, phases = HIOS_STATS_SCHEMA[algorithm]
    assert res.algorithm == algorithm
    assert list(res.stats) == keys
    assert list(res.stats["phase_times"]) == phases
    assert all(t >= 0.0 for t in res.stats["phase_times"].values())
    if "intra_gpu" in keys:
        assert isinstance(res.stats["intra_gpu"], IntraGpuStats)
        assert res.latency <= res.stats["inter_gpu_latency"]
    else:
        assert res.latency == res.stats["inter_gpu_latency"]


# ---------------------------------------------------------------------------
# Bitset closure on OpGraph


def test_closure_matches_bfs_reference():
    g = _rand_graph(seed=31, n=24)
    names = g.names
    for u in names:
        for v in names:
            assert g.reachable(u, v) == g._reachable_bfs(u, v) or u == v
    rng = random.Random(5)
    for _ in range(60):
        group = rng.sample(names, rng.randint(2, 5))
        assert g.independent(group) == g._independent_bfs(group)


def test_closure_invalidated_by_mutation():
    g = OpGraph.from_edges({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 0.0)])
    assert g.reachable("a", "b")
    assert not g.reachable("a", "c")
    g.add_edge("b", "c", 0.0)
    assert g.reachable("a", "c")


def test_reachable_falls_back_on_cyclic_graph():
    g = OpGraph()
    g.add_operator("a", cost=1.0)
    g.add_operator("b", cost=1.0)
    g.add_edge("a", "b", 0.0)
    g.add_edge("b", "a", 0.0)  # cycle: closure unavailable, BFS must serve
    assert g.reachable("a", "b")
    assert g.reachable("b", "a")
    assert not g.independent(["a", "b"])


# ---------------------------------------------------------------------------
# stage_time memoization


def test_stage_time_memo_hits_and_matches():
    prof = random_dag_profile(seed=8, num_gpus=2, num_ops=20, num_layers=4)
    names = prof.graph.names[:3]
    uncached = replace(prof, stage_time_cache=False)
    a = prof.stage_time(names, gpu=1)
    b = prof.stage_time(tuple(names), gpu=1)  # list/tuple key-compatible
    assert a == b == uncached.stage_time(names, gpu=1)
    assert prof.stage_time_cache_hits == 1


def test_stage_time_memo_invalidated_by_graph_mutation():
    prof = random_dag_profile(seed=8, num_gpus=2, num_ops=20, num_layers=4)
    name = prof.graph.names[0]
    before = prof.stage_time([name])
    op = prof.graph.operator(name)
    prof.graph.replace_operator(replace(op, cost=op.cost * 2))
    after = prof.stage_time([name])
    assert after == pytest.approx(before * 2)


# ---------------------------------------------------------------------------
# parallelize entry validation + local-search fixed point


def test_parallelize_prevalidated_schedule_is_stamp_hit(monkeypatch):
    """``parallelize`` always validates on entry; on a schedule that
    already passed, the check is a stamp hit (no second ``Linter`` run)
    and the output equals that of a fresh, never-validated copy."""
    from repro.core import Schedule
    from repro.lint.framework import Linter

    prof = random_dag_profile(seed=12, num_gpus=2, num_ops=30, num_layers=5)
    res = schedule_graph(prof, "inter-lp")
    fresh = Schedule.from_dict(res.schedule.to_dict())
    runs = []
    original = Linter.run

    def counting(self, ctx):
        runs.append(ctx)
        return original(self, ctx)

    monkeypatch.setattr(Linter, "run", counting)
    res.schedule.validate(prof.graph)
    assert runs == []  # the scheduler's own check stamped it already
    a = parallelize(prof, res.schedule)
    assert runs == []  # entry check was a stamp hit
    b = parallelize(prof, fresh)
    assert len(runs) == 1  # an unstamped schedule is linted once
    assert a[1] == b[1]
    assert a[0].to_dict() == b[0].to_dict()


def test_parallelize_validate_rejects_corrupt_schedule():
    prof = random_dag_profile(seed=12, num_gpus=2, num_ops=10, num_layers=3)
    schedule = build_singleton_schedule(
        {v: 0 for v in prof.graph.names[:-1]},  # one operator missing
        prof.graph.names[:-1],
        2,
    )
    with pytest.raises(Exception):
        parallelize(prof, schedule)


def test_local_search_fast_reaches_same_fixed_point():
    """Satellite regression: removing the redundant post-move
    re-evaluation (and adding suffix replay) must not change the moves
    taken nor the fixed point reached."""
    for seed in (3, 5, 9):
        prof = random_dag_profile(seed=seed, num_gpus=3, num_ops=50, num_layers=6)
        order = priority_order(prof.graph)
        assignment = {v: i % 3 for i, v in enumerate(order)}
        fast = local_search_assignment(prof, assignment, order, max_rounds=6, fast=True)
        ref = local_search_assignment(prof, assignment, order, max_rounds=6, fast=False)
        assert fast == ref
        # the returned latency is exactly the latency of the returned
        # assignment (the old code recomputed it; the new code must not
        # drift from that value)
        refined, lat, _moves = fast
        assert lat == list_schedule_latency(
            prof.graph, refined, order, prof.num_gpus,
            send_blocking=prof.send_blocking, gpu_speeds=prof.gpu_speeds,
        )


def test_counters_shared_across_phases():
    counters = EvalCounters()
    prof = random_dag_profile(seed=4, num_gpus=2, num_ops=30, num_layers=5)
    order = priority_order(prof.graph)
    assignment = {v: i % 2 for i, v in enumerate(order)}
    local_search_assignment(prof, assignment, order, counters=counters)
    assert counters.evals > 0
    assert counters.suffix_replays > 0
    d = counters.to_stats()
    assert set(d) == {
        "evals",
        "suffix_replays",
        "window_delta_evals",
        "soa_evals",
        "cache_hits",
    }


# ---------------------------------------------------------------------------
# soa_latency (the vectorized final-evaluation core) vs. evaluate_schedule


@pytest.mark.parametrize("blocking", [False, True])
@pytest.mark.parametrize("hetero", [False, True])
@pytest.mark.parametrize("alg", DIFF_ALGOS)
def test_soa_latency_matches_reference_evaluator(alg, blocking, hetero):
    """The SoA sweep must reproduce evaluate_schedule to the exact
    float on real scheduler output, across blocking and heterogeneous
    configurations — this is the seam the fast=True final evaluations
    of ios/hios-lp/hios-mr/hios-lp-ls go through."""
    from repro.core import evaluate_schedule, soa_latency

    prof = random_dag_profile(seed=9, num_gpus=3, num_ops=40, num_layers=6)
    prof = replace(prof, send_blocking=blocking)
    if hetero:
        prof = replace(prof, gpu_speeds=(1.0, 1.5, 0.75))
    schedule = schedule_graph(prof, alg).schedule
    counters = EvalCounters()
    got = soa_latency(prof, schedule, validate=True, counters=counters)
    want = evaluate_schedule(prof, schedule, validate=True).latency
    assert got == want  # bit-identical, no tolerance
    assert counters.soa_evals == 1
