"""Output checks, run outside every timed region.

Each check returns a list of problems (empty = pass); the worker counts
one checked operation per call and one failure per call that found a
problem or raised.
"""

from __future__ import annotations

from typing import Any


def check_schedule_run(graph: Any, schedule: Any, trace: Any, engine_config: Any, window: int | None) -> list[str]:
    """A scheduler's output: lint-error-free, its engine trace completes,
    and the trace is happens-before clean under the engine's semantics."""
    from repro.lint import lint_schedule
    from repro.sanitize import ExecModel, trace_findings

    problems = [f"lint {d.rule}: {d.message}" for d in lint_schedule(graph, schedule, window=window).errors]
    unfinished = trace.unfinished_ops(graph.names)
    if unfinished:
        problems.append(f"engine trace left {len(unfinished)} operators unfinished")
    model = ExecModel.from_engine_config(engine_config)
    problems += [f"hb {f.kind}: {f.message}" for f in trace_findings(graph, schedule, trace, model)]
    return problems


def report_doc(result: Any) -> dict[str, Any]:
    """The ``repro.servereport/v1`` document with its request records."""
    doc = result.report.to_dict()
    doc["requests"] = [r.to_dict() for r in result.records]
    return doc


def check_serve_run(result: Any) -> list[str]:
    """A serve run without elastic leases: the V009/V010 conservation
    identities hold and the pool timeline (``serve_timeline``) is
    lease-order linearizable."""
    from repro.sanitize import timeline_findings
    from repro.serve.report import serve_timeline

    timeline, op_gpu = serve_timeline(list(result.records))
    return lint_report(result) + [f"timeline: {f.message}" for f in timeline_findings(timeline, op_gpu)]


def check_elastic_serve_run(result: Any, replay: Any, decisions: Any) -> list[str]:
    """A serve run with elastic leases.

    ``serve_timeline`` draws each request on its *final* lease from first
    dispatch to release, so a lease that grew onto a GPU another request
    was still holding shows up as a false exclusive-lease violation.
    The lease history is rebuilt instead from the decision log of
    ``replay`` (the same config run again with decisions captured),
    which must report exactly what the timed run reported.
    """
    from repro.sanitize import timeline_findings

    problems = lint_report(result)
    if replay_fingerprint(replay) != replay_fingerprint(result):
        problems.append("the decision-logged replay reported differently from the timed run")
    timeline, op_gpu, unreleased = lease_timeline(decisions)
    if unreleased:
        problems.append(f"{len(unreleased)} leases never released, e.g. {unreleased[0]}")
    return problems + [f"timeline: {f.message}" for f in timeline_findings(timeline, op_gpu)]


def lint_report(result: Any) -> list[str]:
    from repro.lint import lint_serve_report

    return [f"lint {d.rule}: {d.message}" for d in lint_serve_report(report_doc(result)).errors]


def lease_timeline(decisions: Any) -> tuple[Any, dict[str, int], list[str]]:
    """One span per (lease segment, GPU) from ``serve-dispatch``,
    ``serve-resize`` and outcome records; also the requests whose lease
    was never released."""
    from repro.substrate.engine import ExecutionTrace

    held: dict[str, tuple[float, list[int], int]] = {}
    start: dict[str, float] = {}
    finish: dict[str, float] = {}
    op_gpu: dict[str, int] = {}

    def close(request: str, t: float) -> int:
        t0, gpus, segment = held.pop(request)
        for gpu in gpus:
            name = f"{request}/{segment}@g{gpu}"
            start[name], finish[name], op_gpu[name] = t0, t, gpu
        return segment

    for rec in decisions:
        event = rec["event"]
        if event == "serve-dispatch":
            held[rec["request"]] = (rec["t"], rec["gpus"], 0)
        elif event == "serve-resize":
            segment = close(rec["request"], rec["t"])
            held[rec["request"]] = (rec["t"], rec["gpus"], segment + 1)
        elif event in ("serve-complete", "serve-abort", "serve-displaced"):
            close(rec["request"], rec["t"])
    trace = ExecutionTrace(
        latency=max(finish.values(), default=0.0),
        op_launch=dict(start),
        op_start=start,
        op_finish=finish,
        transfers=[],
        gpu_busy={},
    )
    return trace, op_gpu, sorted(held)


def replay_fingerprint(result: Any) -> dict[str, Any]:
    """Everything a serve run reports except ``sched_ms``, the one
    wall-clock field; repeated runs of one config must match it."""
    doc = report_doc(result)
    doc.pop("sched_ms", None)
    return doc
