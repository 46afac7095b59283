"""Fig. 14 — time cost of scheduling optimization.

The paper's scheduling cost counts everything an operator of the
scheduler pays: profiling each single operator, profiling every group
of concurrent operators the algorithm considers, measuring each
possible inter-GPU transfer, plus the scheduling algorithm's own run
time.  We reproduce that accounting: a recording wrapper around the
concurrency model captures every *distinct* concurrent set an
algorithm prices, and the simulated measurement bill is
``repetitions x (sum of op times + sum of transfer times + sum of
unique group times)`` — the paper averages 36 runs per measurement.

Paper shape: IOS's cost grows steeply with input size (it profiles
exponentially many candidate groups of ever-slower kernels), while
HIOS-LP and HIOS-MR grow much more slowly and stay under ~20 minutes
for Inception-v3.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..core.api import WINDOW_ALGORITHMS, schedule_graph
from ..core.graph import Operator
from ..costmodel.concurrency import ConcurrencyModel
from ..costmodel.profile import CostProfile
from .config import ExperimentConfig, default_config
from .realmodels import model_sizes, run_real_model_series
from .reporting import SeriesResult

__all__ = ["run", "MeasurementRecorder", "scheduling_cost_minutes", "ALGORITHMS"]

ALGORITHMS = ("ios", "hios-mr", "hios-lp")
REPETITIONS = 36  # paper: every measured data point averages 36 runs


class MeasurementRecorder:
    """Concurrency-model wrapper recording every distinct multi-operator
    set priced during scheduling — the groups the paper's profiler would
    have to execute on hardware."""

    def __init__(self, inner: ConcurrencyModel) -> None:
        self._inner = inner
        self.groups: dict[frozenset[str], float] = {}

    def duration(self, ops: Sequence[Operator]) -> float:
        d = self._inner.duration(ops)
        if len(ops) > 1:
            self.groups.setdefault(frozenset(op.name for op in ops), d)
        return d

    @property
    def group_measurement_ms(self) -> float:
        return sum(self.groups.values())


def scheduling_cost_minutes(
    profile: CostProfile,
    algorithm: str,
    window: int = 3,
    repetitions: int = REPETITIONS,
    **schedule_kwargs: object,
) -> tuple[float, dict[str, float]]:
    """Total scheduling-optimization cost in minutes for one run.

    Returns (minutes, breakdown) where the breakdown separates operator
    profiling, transfer profiling, group profiling and algorithm time.
    """
    recorder = MeasurementRecorder(profile.concurrency)
    recording_profile = replace(profile, concurrency=recorder)
    if algorithm in WINDOW_ALGORITHMS:
        schedule_kwargs.setdefault("window", window)
    result = schedule_graph(recording_profile, algorithm, **schedule_kwargs)

    graph = profile.graph
    op_ms = repetitions * sum(op.cost for op in graph.operators())
    transfer_ms = repetitions * sum(w for _u, _v, w in graph.edges())
    group_ms = repetitions * recorder.group_measurement_ms
    algo_minutes = result.scheduling_time / 60.0
    breakdown = {
        "op_profiling_min": op_ms / 60000.0,
        "transfer_profiling_min": transfer_ms / 60000.0,
        "group_profiling_min": group_ms / 60000.0,
        "algorithm_min": algo_minutes,
    }
    return sum(breakdown.values()), breakdown


def run(
    config: ExperimentConfig | None = None, model: str = "inception_v3"
) -> SeriesResult:
    """Fig. 14 as a unit sweep (``kind="sched-cost"``).

    The reported minutes include the algorithm's *wall time*, so this
    figure is a measurement: prefer ``jobs=1`` for publication numbers
    (see :func:`~repro.experiments.realmodels.run_real_model_series`).
    """
    cfg = config or default_config()
    sizes = model_sizes(model, cfg)
    return run_real_model_series(
        figure="fig14",
        title=f"time cost of scheduling optimization for {model}",
        x_label="input_size",
        x=list(sizes),
        cases=[(model, size) for size in sizes],
        algorithms=ALGORITHMS,
        kind="sched-cost",
        value_key="minutes",
        config=cfg,
        y_label="scheduling time (minutes)",
        notes=f"profiling billed at {REPETITIONS} repetitions per measurement "
        "+ algorithm wall time",
    )
