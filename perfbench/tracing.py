"""Span recorder for the traced run (``--trace 1``).

The benchmark times calls into each layer's public entry points from
its own files: :func:`install` replaces the module-level names the
callers bind (``repro.core.hios_lp.parallelize``,
``repro.serve.simulator.run_with_repair``, ...) and a few class
methods with wrappers that record one span per call, and restores the
originals on exit.  Untraced runs never install a wrapper.

A span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span (-1 for a root).  Self time is a span's duration
minus the time its child spans cover; it is aggregated per
``(root, name)`` so a layer can be attributed to the call tree it ran
under (e.g. ``lint.validate`` inside a scheduler vs inside the engine).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

OnResult = Callable[[Any, tuple[Any, ...]], None]


class SpanRecorder:
    """In-memory spans plus per-layer self time, calls and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        # open spans: [span index, name, start, child time]
        self._stack: list[list[Any]] = []
        self._paused = 0

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append((name, 0.0, 0.0, self._stack[-2][0] if len(self._stack) > 1 else -1))

    def _close(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        dur = end - start
        self.spans[index] = (name, start, end, self.spans[index][3])
        root = self._stack[0][1] if self._stack else name
        self.self_s[(root, name)] += dur - child
        self.calls[(root, name)] += 1
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._paused:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the body untraced (the output checks use this)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name: str, fn: Callable[..., Any], on_result: OnResult | None = None) -> Callable[..., Any]:
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if rec._paused:
                return fn(*args, **kwargs)
            rec._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close()
            if on_result is not None:
                on_result(out, args)
            return out

        return traced

    def counting(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span-free wrapper that only counts calls (hot, tiny calls)."""
        counters = self.counters
        rec = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if not rec._paused:
                counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- queries ---------------------------------------------------------
    def layer_s(self, name: str, root: str | None = None) -> float:
        return sum(
            v for (r, n), v in self.self_s.items() if n == name and (root is None or r == root)
        )

    def layer_calls(self, name: str, root: str | None = None) -> int:
        return sum(
            v for (r, n), v in self.calls.items() if n == name and (root is None or r == root)
        )

    def root_s(self, root: str) -> float:
        """Total duration of the call trees rooted at ``root`` spans."""
        return sum(v for (r, _n), v in self.self_s.items() if r == root)


class Patches:
    """Replace attributes (or dict items) and put the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, key: str, value: Any) -> Any:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
        else:
            # read the raw attribute so classes keep plain functions
            original = vars(owner)[key]
            setattr(owner, key, value)
        self._saved.append((owner, key, original))
        return original

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


@contextmanager
def install(rec: SpanRecorder, hooks: dict[str, OnResult]) -> Iterator[SpanRecorder]:
    """Wrap every traced entry point for the duration of the block.

    ``hooks`` maps a span name to a callback that sees each call's
    return value and positional arguments (the worker uses them to read
    counters from public return values).
    """
    from repro.core import api, fasteval, graph, hios_lp, hios_mr, ios, schedule
    from repro.serve import simulator
    from repro.substrate import engine, events, profiler

    patches = Patches()

    def wrap(owner: Any, key: str, name: str) -> None:
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        patches.set(owner, key, rec.wrap(name, original, hooks.get(name)))

    try:
        for alg in list(api.ALGORITHMS):
            wrap(api.ALGORITHMS, alg, f"core.{alg}")
        wrap(hios_lp, "cached_spatial_lp", "core.spatial_lp")
        wrap(hios_mr, "cached_spatial_mr", "core.spatial_mr")
        for mod in (hios_lp, hios_mr):
            wrap(mod, "parallelize", "core.intra_gpu")
        for mod in (hios_lp, hios_mr, ios):
            wrap(mod, "soa_latency", "core.eval")
        wrap(fasteval.StageGraphEvaluator, "__init__", "core.sge_build")
        wrap(fasteval.StageGraphEvaluator, "try_merge", "core.sge_merge")
        wrap(schedule.Schedule, "validate", "lint.validate")
        wrap(graph.OpGraph, "validate", "lint.validate")
        wrap(engine.MultiGpuEngine, "run", "engine.run")
        patches.set(
            events.EventQueue, "push", rec.counting("engine.events", vars(events.EventQueue)["push"])
        )
        wrap(profiler.PlatformProfiler, "profile", "profiler.profile")
        wrap(simulator.ServeSimulator, "run", "serve.run")
        wrap(simulator, "build_arrivals", "serve.arrivals")
        wrap(simulator, "cached_schedule", "sweep.schedcache")
        wrap(simulator, "run_with_repair", "repair.run")
        wrap(simulator, "resize_schedule", "repair.resize")
        yield rec
    finally:
        patches.restore()
