"""The serving hot path: fault-free first segments replay a memoized run.

A query segment no fault touches has a deterministic trace — a pure
function of (graph, schedule, base engine config) — so the simulator
runs each ``(model, lease width, algorithm)`` plan on the engine once
and replays that run for every later fault-free dispatch.  These tests
pin the engine-run count, the read-only sharing of the memoized trace,
the lease-segment timeline of elastic runs, and (hypothesis) that a
run with the memo is indistinguishable from one where it always misses.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lint import lint_serve_report
from repro.sanitize import timeline_findings
from repro.serve import ServeConfig, TenantSpec, serve, serve_timeline
from repro.serve.simulator import ServeSimulator, _op_assignment
from repro.substrate.engine import MultiGpuEngine

MODELS = ("tiny", "chain12", "wide24", "deep40")


class _AlwaysMiss(dict):
    """A clean-run memo that never hits and never stores."""

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        pass


class _Recording(dict):
    """A clean-run memo that snapshots each entry as it is stored and
    counts hits."""

    def __init__(self):
        super().__init__()
        self.snapshots = {}
        self.hits = 0

    def get(self, key, default=None):
        out = super().get(key, default)
        if out is not default:
            self.hits += 1
        return out

    def __setitem__(self, key, value):
        trace, op_gpu = value
        self.snapshots[key] = (json.dumps(trace.to_dict(), sort_keys=True), dict(op_gpu))
        super().__setitem__(key, value)


def _report_doc(result):
    doc = result.report.to_dict()
    doc["requests"] = [r.to_dict() for r in result.records]
    return doc


def _fingerprint(result):
    doc = result.report.to_dict()
    doc.pop("sched_ms")
    return doc


def _steady(**overrides):
    kwargs = dict(
        tenants=(
            TenantSpec(name="a", model="chain12", rate_qps=150.0, deadline_ms=300.0),
            TenantSpec(name="b", model="wide24", rate_qps=60.0, priority=1, deadline_ms=400.0),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=1500.0,
        seed=3,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def _elastic(**overrides):
    # grows (a queue that drains, GPU 0 repaired) and shrinks (an
    # overloaded backlog) on a pool whose one failure is in the past
    # for every dispatch, so each first segment is fault-free
    kwargs = dict(
        tenants=(
            TenantSpec(name="a", model="chain12", rate_qps=120.0, deadline_ms=400.0),
            TenantSpec(name="b", model="deep40", rate_qps=30.0, priority=1, deadline_ms=800.0),
        ),
        num_gpus=4,
        gpus_per_query=2,
        horizon_ms=300.0,
        seed=0,
        elastic=True,
        max_batch=2,
        max_retries=3,
        overload_queue=3,
    )
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


class TestEngineRunsOncePerPlan:
    def test_fault_free_serve_runs_each_plan_once(self, monkeypatch):
        runs = []
        original = MultiGpuEngine.run

        def counting(self, graph, schedule, validate=True):
            runs.append(schedule)
            return original(self, graph, schedule, validate)

        monkeypatch.setattr(MultiGpuEngine, "run", counting)
        sim = ServeSimulator(_steady())
        result = sim.run()
        assert result.report.arrivals >= 200
        assert result.report.completed >= 200
        assert 1 <= len(runs) <= len(sim._schedules)
        assert len(sim._clean_runs) == len(runs)

    def test_misses_go_through_run_with_repair(self, monkeypatch):
        import repro.serve.simulator as simulator

        calls = []
        original = simulator.run_with_repair

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_with_repair", counting)
        sim = ServeSimulator(_steady(horizon_ms=400.0))
        sim.run()
        assert len(calls) == len(sim._clean_runs) >= 1

    def test_faulted_segments_bypass_the_memo(self):
        # a pool-wide loss spec projects onto every lease: no segment is
        # fault-free, so every dispatch runs on the engine
        sim = ServeSimulator(_steady(horizon_ms=400.0, faults=("loss:0.01",)))
        result = sim.run()
        assert sim._clean_runs == {}
        assert result.report.completed > 0


class TestMemoIsReadOnly:
    def test_memoized_trace_survives_elastic_resizes(self, monkeypatch):
        cfg = _elastic(faults=("fail:0@0", "repair:0@150"))
        sim = ServeSimulator(cfg)
        memo = _Recording()
        monkeypatch.setattr(sim, "_clean_runs", memo)
        result = sim.run()
        assert result.report.elastic_grows > 0
        assert result.report.elastic_shrinks > 0
        assert memo.hits > 0
        engine = MultiGpuEngine(replace(sim._base_engine, faults=None))
        for key, (trace, op_gpu) in memo.items():
            snapshot, snapshot_op_gpu = memo.snapshots[key]
            assert json.dumps(trace.to_dict(), sort_keys=True) == snapshot
            assert op_gpu == snapshot_op_gpu
            profile, schedule, _ = sim._schedules[key]
            fresh = engine.run(profile.graph, schedule)
            assert fresh.to_dict() == trace.to_dict()
            assert op_gpu == _op_assignment(schedule)


class TestElasticTimeline:
    def test_grows_and_shrinks_leave_the_timeline_linearizable(self):
        faults = ("fail:0@100", "repair:0@180", "fail:2@250", "repair:2@300")
        result = serve(_elastic(faults=faults))
        assert result.report.elastic_grows > 0
        assert result.report.elastic_shrinks > 0
        timeline, op_gpu = serve_timeline(list(result.records))
        assert timeline_findings(timeline, op_gpu) == []

    def test_resized_request_spans_cover_each_lease_segment(self):
        result = serve(_elastic(faults=("fail:0@0", "repair:0@150")))
        resized = [r for r in result.records if r.resizes]
        assert resized
        timeline, op_gpu = serve_timeline(list(result.records))
        for rec in resized:
            segments = rec.lease_segments
            assert len(segments) == rec.resizes + 1
            assert segments[0][0] == rec.dispatched_ms
            assert segments[-1][1] == rec.gpus
            ends = [t for t, _ in segments[1:]] + [rec.released_ms]
            held = {}
            for (t0, gpus), t1 in zip(segments, ends):
                for gpu in gpus:
                    held[gpu] = held.get(gpu, 0.0) + (t1 - t0)
            drawn = {}
            for name, gpu in op_gpu.items():
                if name == rec.id or name.startswith((rec.id + "@", rec.id + "/")):
                    span = timeline.op_finish[name] - timeline.op_start[name]
                    drawn[gpu] = drawn.get(gpu, 0.0) + span
            assert drawn.keys() <= held.keys()
            for gpu, busy in held.items():
                assert abs(drawn.get(gpu, 0.0) - busy) < 1e-9

    def test_lease_resized_at_dispatch_draws_no_span(self):
        from repro.serve import RequestRecord

        rec = RequestRecord(
            id="q", tenant="t", model="tiny", priority=0, arrival_ms=1.0, deadline_ms=99.0
        )
        rec.dispatched_ms, rec.released_ms, rec.gpus = 5.0, 9.0, (1,)
        rec.lease_segments = [(5.0, (0, 1)), (5.0, (1,))]
        timeline, op_gpu = serve_timeline([rec])
        assert op_gpu == {"q": 1}
        assert timeline.op_launch["q"] == 1.0
        assert (timeline.op_start["q"], timeline.op_finish["q"]) == (5.0, 9.0)


# --- differential property test ------------------------------------------


@st.composite
def serve_configs(draw):
    num_gpus = draw(st.integers(2, 4))
    gpus_per_query = draw(st.integers(1, num_gpus))
    horizon = draw(st.sampled_from((150.0, 250.0, 400.0)))
    tenants = tuple(
        TenantSpec(
            name=f"t{i}",
            model=draw(st.sampled_from(MODELS)),
            rate_qps=draw(st.sampled_from((20.0, 60.0, 150.0))),
            priority=draw(st.integers(-1, 1)),
            deadline_ms=draw(st.sampled_from((80.0, 250.0, 800.0))),
        )
        for i in range(draw(st.integers(1, 3)))
    )
    faults = []
    for _ in range(draw(st.integers(0, 2))):
        gpu = draw(st.integers(0, num_gpus - 1))
        at = draw(st.integers(int(horizon / 3), int(horizon)))
        faults.append(f"fail:{gpu}@{at}")
        if draw(st.booleans()):
            faults.append(f"repair:{gpu}@{at + draw(st.integers(5, 100))}")
    return ServeConfig(
        tenants=tenants,
        num_gpus=num_gpus,
        gpus_per_query=gpus_per_query,
        degraded_gpus=draw(st.integers(1, gpus_per_query)),
        horizon_ms=horizon,
        seed=draw(st.integers(0, 10_000)),
        algorithm=draw(st.sampled_from(("hios-lp", "hios-mr", "sequential"))),
        max_batch=draw(st.integers(1, 3)),
        elastic=draw(st.booleans()),
        overload_queue=draw(st.integers(2, 8)),
        max_retries=3,
        faults=tuple(faults),
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(cfg=serve_configs())
def test_memo_is_invisible(cfg, monkeypatch):
    memoized = ServeSimulator(cfg).run()
    reference = ServeSimulator(cfg)
    monkeypatch.setattr(reference, "_clean_runs", _AlwaysMiss())
    plain = reference.run()
    assert memoized.records == plain.records
    assert _fingerprint(memoized) == _fingerprint(plain)
    assert lint_serve_report(_report_doc(memoized)).errors == []
    timeline, op_gpu = serve_timeline(list(memoized.records))
    assert timeline_findings(timeline, op_gpu) == []
