"""Run one workload in this process and print its result line.

``run.py`` starts this script with a pinned environment; it is not
meant to be run by hand (use ``run.py``).  The last line of stdout is
the result object; a details file with raw timings, sample counts,
calibration readings and check problems goes to ``--out-dir``.

Host time is CPU time of this process (``time.process_time``);
simulated time is what the modelled GPUs would take.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from calibration import calibration_kernel

#: Calibration reading taken before any import (the set-up window's start).
START_CAL_S = calibration_kernel()

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402  (needs the path set up first)
    ALGORITHMS,
    WINDOW,
    WORKLOADS,
    Case,
    Rung,
    Workload,
    fault_specs,
    scaled,
)

import checks  # noqa: E402
from repro.core.api import schedule_graph  # noqa: E402
from repro.costmodel.concurrency import SaturationConcurrencyModel  # noqa: E402
from repro.costmodel.profile import CostProfile  # noqa: E402
from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler  # noqa: E402
from repro.obs import capture_decisions  # noqa: E402
from repro.serve import ServeConfig, TenantSpec, serve  # noqa: E402
from repro.serve.report import percentile  # noqa: E402
from repro.serve.zoo import MODEL_ZOO  # noqa: E402
from repro.substrate.engine import EngineConfig, MultiGpuEngine  # noqa: E402

#: Engine settings of the serve loop (``ServeSimulator``'s base config),
#: so the zoo cases execute the way serving executes them.
SERVE_ENGINE = EngineConfig(
    launch_overhead_ms=0.0,
    launch_included_in_cost=False,
    contention_penalty=0.06,
    transfer_from_edges=True,
)

#: Layers whose self time counts as attributed inside ``schedule_graph``.
SCHED_LAYERS = (
    "core.ios",
    "core.spatial_lp",
    "core.spatial_mr",
    "core.intra_gpu",
    "core.sge_build",
    "core.sge_merge",
    "core.eval",
    "lint.validate",
)


#: Nominal CPU time of :func:`calibration_kernel` (its typical reading
#: on an idle core of the 2-core reference box); normalized host times
#: are expressed at this speed.
CAL_REF_S = 0.015

#: Which form each host-time metric reports: ``raw`` CPU seconds, or
#: ``norm`` (scaled to the reference speed), where it was shown to
#: steady the metric across processes (see README.md).
VARIANT = {
    "setup_s": "raw",
    "sched_s.ios": "norm",
    "sched_s.hios-lp": "norm",
    "sched_s.hios-mr": "norm",
    "host_qps": "norm",
}

#: Take a calibration reading at a unit boundary when the last one is
#: older than this (wall seconds).
CAL_EVERY_S = 0.25


@dataclass
class Sample:
    """One timed call: CPU seconds and its wall-clock interval."""

    cpu_s: float
    start: float
    end: float
    norm_s: float = 0.0  # cpu_s at the reference speed (see ``normalize``)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Bench:
    def __init__(self, workload: Workload, seed: int, trace: bool) -> None:
        self.wl = workload
        self.seed = seed
        self.recorder: Any = None
        if trace:
            from tracing import SpanRecorder

            self.recorder = SpanRecorder()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (wall time, kernel CPU seconds) readings, in time order
        self.cal_points: list[tuple[float, float]] = []
        # scheduling section: per algorithm, per round, one sample per case
        self.rounds: dict[str, list[list[Sample]]] = {alg: [] for alg in ALGORITHMS}
        self.first: dict[tuple[str, str], tuple[Any, float]] = {}
        self.sim_ms: dict[str, dict[str, float]] = {alg: {} for alg in ALGORITHMS}
        self.pred_gaps: list[float] = []
        self.stat_counts: dict[str, int] = {}
        # serving section
        self.serve_calls: list[tuple[Sample, int]] = []  # (sample, arrivals)
        self.rung_stats: dict[float, dict[str, Any]] = {}
        self.fingerprints: dict[tuple[float, int], dict[str, Any]] = {}
        self.reports: list[Any] = []
        self._predicted: dict[int, float] = {}
        # wall seconds of the last repetition of each unit (budgeting)
        self._last_round_s = 0.0
        self._unit_s: dict[float, float] = {}

    # -- bookkeeping -------------------------------------------------------
    def span(self, name: str) -> Any:
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def untraced(self) -> Any:
        return self.recorder.paused() if self.recorder is not None else nullcontext()

    def check(self, what: str, run: Callable[[], list[str]]) -> None:
        """Count one checked operation; any problem or exception fails it."""
        self.attempted += 1
        with self.untraced():
            try:
                problems = run()
            except Exception as exc:  # a crashing check is a failed operation
                problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:5]]

    def calibrate_if_stale(self) -> None:
        now = time.perf_counter()
        if not self.cal_points or now - self.cal_points[-1][0] > CAL_EVERY_S:
            self.cal_points.append((now, calibration_kernel()))

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, Sample]:
        """Run ``fn`` as one timed call (CPU time), with calibration
        readings around it and garbage collected before it."""
        self.calibrate_if_stale()
        gc.collect()
        start = time.perf_counter()
        t0 = time.process_time()
        out = fn()
        cpu = time.process_time() - t0
        sample = Sample(cpu, start, time.perf_counter())
        self.calibrate_if_stale()
        return out, sample

    def normalize(self) -> None:
        """Express every sample at the reference speed: scale its CPU
        time by ``CAL_REF_S`` over the mean of the nearest calibration
        readings before and after it."""
        points = self.cal_points
        samples = [s for rounds in self.rounds.values() for r in rounds for s in r]
        samples += [s for s, _n in self.serve_calls]
        for s in samples:
            before = [c for t, c in points if t <= s.start][-1:]
            after = [c for t, c in points if t >= s.end][:1]
            s.norm_s = s.cpu_s * CAL_REF_S / statistics.fmean(before + after)

    # -- scheduling section -------------------------------------------------
    def build(self, case: Case) -> tuple[Any, MultiGpuEngine]:
        """A fresh graph and cost profile, so every memo starts cold."""
        if case.kind == "real":
            with self.span("models.build"):
                model = MODEL_BUILDERS[case.model](case.size)
            profiler = default_profiler()
            return profiler.profile(model), profiler.engine()
        with self.span("models.build"):
            graph = MODEL_ZOO[case.model]()
        profile = CostProfile(
            graph=graph, concurrency=SaturationConcurrencyModel(0.06), num_gpus=case.gpus
        )
        return profile, MultiGpuEngine(SERVE_ENGINE)

    def sched_unit(self, case: Case, alg: str) -> Sample:
        """Schedule one case cold (timed) and execute it (untimed)."""
        profile, engine = self.build(case)
        kwargs: dict[str, Any] = {} if alg == "ios" else {"window": WINDOW}

        def schedule() -> Any:
            with self.span("sched"):
                return schedule_graph(profile, alg, **kwargs)

        result, sample = self.timed(schedule)
        trace = engine.run(profile.graph, result.schedule)
        key = (case.label, alg)
        if key not in self.first:
            self.first[key] = (result.schedule.to_dict(), trace.latency)
            self.sim_ms[alg][case.label] = trace.latency
            self.pred_gaps.append((trace.latency - result.latency) / result.latency)
            self.check(
                f"{case.label} {alg}",
                lambda: checks.check_schedule_run(
                    profile.graph, result.schedule, trace, engine.config, kwargs.get("window")
                ),
            )
        else:
            schedule0, latency0 = self.first[key]
            self.check(
                f"{case.label} {alg} repeat",
                lambda: []
                if result.schedule.to_dict() == schedule0 and trace.latency == latency0
                else ["schedule or executed latency differs from the first round"],
            )
        return sample

    def sched_round(self, alg: str) -> None:
        self.rounds[alg].append([self.sched_unit(c, alg) for c in self.wl.sched.cases])

    # -- serving section ------------------------------------------------------
    def serve_config(self, rung: Rung, chunk: int) -> ServeConfig:
        """Chunk ``c`` of a rung runs with serve seed ``100 * seed + c``."""
        spec = self.wl.serve
        tenants = tuple(
            TenantSpec(
                name=t.name,
                model=t.model,
                rate_qps=rung.rate_qps * t.share,
                priority=t.priority,
                deadline_ms=t.deadline_ms,
            )
            for t in spec.tenants
        )
        faults = fault_specs(rung.horizon_ms) if spec.rolling_faults else ()
        return ServeConfig(
            tenants=tenants,
            num_gpus=4,
            gpus_per_query=2,
            horizon_ms=rung.horizon_ms,
            seed=100 * self.seed + chunk,
            algorithm="hios-lp",
            window=WINDOW,
            faults=faults,
            **spec.options,
        )

    def serve_unit(self, rung: Rung, chunk: int) -> None:
        config = self.serve_config(rung, chunk)
        result, sample = self.timed(lambda: serve(config))
        self.serve_calls.append((sample, result.report.arrivals))
        rate = rung.rate_qps
        what = f"serve {rate:g} qps chunk {chunk}"
        if (rate, chunk) in self.fingerprints:
            self.check(
                f"{what} repeat",
                lambda: []
                if checks.replay_fingerprint(result) == self.fingerprints[rate, chunk]
                else ["report differs from the first run of the same config"],
            )
            return
        self.fingerprints[rate, chunk] = checks.replay_fingerprint(result)
        self.reports.append(result.report)
        stats = self.rung_stats.setdefault(rate, {"arrivals": 0, "on_time": 0, "latencies": []})
        stats["arrivals"] += result.report.arrivals
        for r in result.records:
            if r.status == "completed":
                stats["latencies"].append(r.latency_ms)
                stats["on_time"] += bool(r.deadline_met)
        if config.elastic:
            with self.untraced(), capture_decisions() as log:
                replay = serve(config)
            self.check(what, lambda: checks.check_elastic_serve_run(result, replay, log))
        else:
            self.check(what, lambda: checks.check_serve_run(result))

    def rung_summary(self) -> dict[float, dict[str, float]]:
        """Per rung, pooled over its chunks."""
        return {
            rate: {
                "arrivals": s["arrivals"],
                "completed": len(s["latencies"]),
                "on_time": s["on_time"],
                "p99_ms": percentile(s["latencies"], 99),
            }
            for rate, s in self.rung_stats.items()
        }

    # -- the run ---------------------------------------------------------------
    def warm_up(self) -> None:
        """Touch every timed path once (imports, first-call set-up)."""
        case = self.wl.sched.cases[0]
        for alg in ALGORITHMS:
            self.sched_unit(case, alg)
        self.serve_unit(Rung(self.wl.serve.rungs[0].rate_qps, 1, 200), 0)

    def run_sections(self, seconds: float, fixed: bool) -> None:
        """Both sections at their minimum size, then (unless ``fixed``)
        repeat the primary section's units until ``seconds`` of wall
        time have passed."""
        start = time.perf_counter()
        sched = self.wl.sched

        def run_sched_min() -> None:
            for i in range(max(sched.rounds.values())):
                for alg in ALGORITHMS:
                    if i < sched.rounds[alg]:
                        self.sched_round(alg)

        def run_serve_min() -> None:
            for rung in self.wl.serve.rungs:
                for chunk in range(rung.chunks):
                    self.serve_unit(rung, chunk)

        if self.wl.primary == "sched":
            run_serve_min()
            run_sched_min()
            if fixed:
                return
            while True:
                t0 = time.perf_counter()
                if t0 - start + self._last_round_s > seconds:
                    return
                for alg in ALGORITHMS:
                    self.sched_round(alg)
                self._last_round_s = time.perf_counter() - t0
        else:
            run_sched_min()
            run_serve_min()
            if fixed:
                return
            units = [(r, c) for r in self.wl.serve.rungs for c in range(r.chunks)]
            i = 0
            while True:
                t0 = time.perf_counter()
                rung, chunk = units[i % len(units)]
                est = self._unit_s.get(rung.rate_qps, 0.0)
                if t0 - start + est > seconds:
                    return
                self.serve_unit(rung, chunk)
                self._unit_s[rung.rate_qps] = time.perf_counter() - t0
                i += 1

    # -- metrics ---------------------------------------------------------------
    def host_times(self) -> dict[str, dict[str, float]]:
        """Each host-time metric both raw and at the reference speed."""
        self.normalize()
        out: dict[str, dict[str, float]] = {}
        for alg in ALGORITHMS:
            rounds = self.rounds[alg]
            out[f"sched_s.{alg}"] = {
                "raw": statistics.median(sum(s.cpu_s for s in r) for r in rounds),
                "norm": statistics.median(sum(s.norm_s for s in r) for r in rounds),
            }
        arrivals = sum(n for _s, n in self.serve_calls)
        out["host_qps"] = {
            "raw": arrivals / sum(s.cpu_s for s, _n in self.serve_calls),
            "norm": arrivals / sum(s.norm_s for s, _n in self.serve_calls),
        }
        return out

    def end_to_end(self, setup: dict[str, float], host: dict[str, dict[str, float]]) -> dict[str, float]:
        m: dict[str, float] = {"setup_s": setup[VARIANT["setup_s"]]}
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        m["pass_rate"] = 1.0 - self.failed / self.attempted
        for alg in ALGORITHMS:
            name = f"sched_s.{alg}"
            m[name] = host[name][VARIANT[name]]
        for alg in ALGORITHMS:
            m[f"sim_ms.{alg}"] = geomean(list(self.sim_ms[alg].values()))
        m["host_qps"] = host["host_qps"][VARIANT["host_qps"]]
        spec = self.wl.serve
        rungs = self.rung_summary()
        m["p99_ms.light"] = rungs[spec.light_qps]["p99_ms"]
        m["p99_ms.heavy"] = rungs[spec.heavy_qps]["p99_ms"]
        meets = [rate for rate, s in rungs.items() if s["on_time"] >= 0.99 * s["arrivals"]]
        m["capacity_qps"] = max(meets, default=0.0)
        top = rungs[max(rungs)]
        m["slo_miss_share"] = 1.0 - top["on_time"] / top["arrivals"]
        return m

    def samples(self) -> dict[str, int]:
        """How many timed samples stand behind each host-time metric."""
        out = {f"sched_s.{alg}": len(self.rounds[alg]) for alg in ALGORITHMS}
        out["host_qps"] = len(self.serve_calls)
        return out


def per_layer(bench: Bench, overhead_pct: float) -> dict[str, float]:
    rec = bench.recorder
    counts = bench.stat_counts
    reports = bench.reports
    engine_runs = rec.layer_calls("engine.run")
    events = rec.counters["engine.events"]
    engine_s = rec.layer_s("engine.run")
    arrivals = sum(r.arrivals for r in reports)

    def total(field: str) -> int:
        return sum(getattr(r, field) for r in reports)

    sched_root = rec.root_s("sched")
    serve_root = rec.root_s("serve.run")
    m: dict[str, float] = {
        "core.ios_s": rec.layer_s("core.ios"),
        "core.ios.dp_states": counts.get("ios.dp_states", 0),
        "core.spatial_lp_s": rec.layer_s("core.spatial_lp"),
        "core.lp.paths": counts.get("hios-lp.paths", 0),
        "core.lp.suffix_replays": counts.get("hios-lp.suffix_replays", 0),
        "core.spatial_mr_s": rec.layer_s("core.spatial_mr"),
        "core.intra_gpu_s": rec.layer_s("core.intra_gpu"),
        "core.sge_build_s": rec.layer_s("core.sge_build"),
        "core.sge_builds": rec.layer_calls("core.sge_build"),
        "core.sge_merge_s": rec.layer_s("core.sge_merge"),
        "core.sge_merges": rec.layer_calls("core.sge_merge"),
        "core.window_delta_evals": sum(
            v for k, v in counts.items() if k.endswith(".window_delta_evals")
        ),
        "core.eval_s": rec.layer_s("core.eval"),
        "core.eval_calls": rec.layer_calls("core.eval"),
        "costmodel.stage_time_cache_hits": sum(
            v for k, v in counts.items() if k.endswith(".cache_hits")
        ),
        "core.pred_gap_pct": 100.0 * statistics.fmean(bench.pred_gaps),
        "models.build_s": rec.layer_s("models.build"),
        "profiler.profile_s": rec.layer_s("profiler.profile"),
        "profiler.profile_calls": rec.layer_calls("profiler.profile"),
        "lint.validate_s": rec.layer_s("lint.validate"),
        "lint.validate_calls": rec.layer_calls("lint.validate"),
        "lint.validate_per_run": rec.layer_calls("lint.validate") / max(engine_runs, 1),
        "engine.run_s": engine_s,
        "engine.runs": engine_runs,
        "engine.events": events,
        "engine.us_per_event": 1e6 * engine_s / max(events, 1),
        "engine.runs_per_query": rec.layer_calls("engine.run", root="serve.run") / max(arrivals, 1),
        "serve.self_s": rec.layer_s("serve.run"),
        "serve.arrivals_s": rec.layer_s("serve.arrivals"),
        "serve.plan_s": rec.layer_s("sweep.schedcache"),
        "serve.sched_cache_hits": total("sched_cache_hits"),
        "serve.sched_cache_misses": total("sched_cache_misses"),
        "repair.run_s": rec.layer_s("repair.run"),
        "repair.resize_s": rec.layer_s("repair.resize"),
        "repair.repairs": total("repairs"),
        "repair.warm_starts": total("warm_starts"),
        "serve.retries": total("retries"),
        "serve.displaced": total("displaced"),
        "serve.batched": total("batched"),
        "serve.elastic_resizes": total("elastic_grows") + total("elastic_shrinks"),
        "serve.degraded_dispatches": total("degraded_dispatches"),
        "trace.spans": len(rec.spans),
        "trace.overhead_pct": overhead_pct,
        "trace.sched_attributed_pct": 100.0
        * sum(rec.layer_s(n, root="sched") for n in SCHED_LAYERS)
        / max(sched_root, 1e-12),
        "trace.serve_attributed_pct": 100.0
        * sum(v for (r, _n), v in rec.self_s.items() if r == "serve.run")
        / max(serve_root, 1e-12),
    }
    return m


def trace_hooks(bench: Bench) -> dict[str, Callable[[Any, tuple[Any, ...]], None]]:
    """Read counters from public return values as traced calls return."""
    counts = bench.stat_counts

    def scheduler(alg: str) -> Callable[[Any, tuple[Any, ...]], None]:
        def hook(result: Any, _args: tuple[Any, ...]) -> None:
            for key in ("dp_states", "paths", "suffix_replays", "window_delta_evals", "cache_hits"):
                value = result.stats.get(key)
                if isinstance(value, int):
                    counts[f"{alg}.{key}"] = counts.get(f"{alg}.{key}", 0) + value

        return hook

    def planned(out: Any, _args: tuple[Any, ...]) -> None:
        result, _hit = out
        bench._predicted[id(result.schedule)] = result.latency

    def executed(out: Any, args: tuple[Any, ...]) -> None:
        trace, repairs = out
        predicted = bench._predicted.get(id(args[1]))
        if predicted and not repairs and trace.failure is None:
            bench.pred_gaps.append((trace.latency - predicted) / predicted)

    from repro.core.api import ALGORITHMS as REGISTRY

    hooks = {f"core.{alg}": scheduler(alg) for alg in REGISTRY}
    hooks["sweep.schedcache"] = planned
    hooks["repair.run"] = executed
    return hooks


def overhead_probe(wl: Workload, seed: int) -> float:
    """Tracing overhead: one representative unit, timed untraced and
    traced alternately three times each; the % difference of the
    medians of their normalized host times."""
    from tracing import SpanRecorder, install

    bench = Bench(wl, seed, trace=False)
    traced: list[bool] = []
    for _ in range(3):
        for with_trace in (False, True):
            if with_trace:
                bench.recorder = SpanRecorder()
                with install(bench.recorder, trace_hooks(bench)):
                    probe_unit(bench)
                bench.recorder = None
            else:
                probe_unit(bench)
            traced.append(with_trace)
    bench.normalize()
    if wl.primary == "sched":
        times = [sum(s.norm_s for s in r) for r in bench.rounds["hios-lp"]]
    else:
        times = [s.norm_s for s, _n in bench.serve_calls]
    on = statistics.median(t for t, f in zip(times, traced) if f)
    off = statistics.median(t for t, f in zip(times, traced) if not f)
    return 100.0 * (on / off - 1.0)


def probe_unit(bench: Bench) -> None:
    if bench.wl.primary == "sched":
        bench.sched_round("hios-lp")
    else:
        bench.serve_unit(Rung(bench.wl.serve.light_qps, 1), 0)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = scaled(WORKLOADS[args.workload], args.scale)
    warm = Bench(wl, args.seed, trace=False)
    warm.warm_up()
    if warm.failed:
        print("\n".join(warm.problems), file=sys.stderr)
        return 1
    setup_cpu = time.process_time()  # CPU time since process start
    setup = {
        "raw": setup_cpu,
        "norm": setup_cpu * CAL_REF_S / statistics.fmean([START_CAL_S, calibration_kernel()]),
    }
    if args.setup_only:
        print(json.dumps({"setup_s": setup[VARIANT["setup_s"]], "variants": setup}))
        return 0

    details: dict[str, Any] = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from tracing import install

        bench = Bench(wl, args.seed, trace=True)
        with install(bench.recorder, trace_hooks(bench)):
            bench.run_sections(args.seconds, fixed=True)
        metrics = per_layer(bench, overhead_probe(wl, args.seed))
        spans_path = Path(args.out_dir) / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": bench.recorder.spans})
        )
    else:
        bench = Bench(wl, args.seed, trace=False)
        bench.run_sections(args.seconds, fixed=False)
    host = bench.host_times()
    e2e = bench.end_to_end(setup, host)
    if not args.trace:
        metrics = e2e
    details.update(
        end_to_end=e2e,
        samples=bench.samples(),
        host_time_variants={"setup_s": setup, **host},
        raw={
            "sched_rounds": {
                alg: [[[s.cpu_s, s.norm_s] for s in r] for r in rounds]
                for alg, rounds in bench.rounds.items()
            },
            "serve_calls": [[s.cpu_s, s.norm_s, n] for s, n in bench.serve_calls],
            "sim_ms_by_case": bench.sim_ms,
            "rungs": {f"{k:g}": v for k, v in bench.rung_summary().items()},
        },
        calibration=bench.cal_points,
        problems=bench.problems,
    )
    if args.trace:
        details["per_layer"] = metrics
    Path(args.out_dir, f"details-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True)
    )
    for line in bench.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
