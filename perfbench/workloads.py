"""The benchmark's workloads: what each one schedules and serves.

Every run has two sections, because every run reports every
end-to-end metric:

* the **scheduling section** builds each case's graph and cost profile
  from scratch, schedules it with ``ios``, ``hios-lp`` and ``hios-mr``
  (closed loop, back to back) and executes every schedule on the
  discrete-event engine;
* the **serving section** runs :func:`repro.serve.serve` on a seeded
  open-loop Poisson tenant mix at a ladder of arrival rates.

A workload names the inputs of both sections and how much of the run
each one gets.  ``sched-real`` spends most of its time in the
scheduling section on the paper's Section VI models; the two serve
workloads spend most of theirs in the serving section and price their
own tenant models in the scheduling section.  See ``README.md`` for why
each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

ALGORITHMS = ("ios", "hios-lp", "hios-mr")

#: Alg. 2 window for the HIOS variants (the paper's default).
WINDOW = 3


@dataclass(frozen=True)
class Case:
    """One model to schedule: a Section VI real model priced on the
    dual-A40 profile (``kind="real"``) or a serve-zoo graph priced on a
    serve lease (``kind="zoo"``)."""

    kind: str
    model: str
    size: int = 0  # input resolution of a real model
    gpus: int = 2  # lease width of a zoo model

    @property
    def label(self) -> str:
        if self.kind == "real":
            return f"{self.model}@{self.size}"
        return f"{self.model}/{self.gpus}gpu"


@dataclass(frozen=True)
class SchedSection:
    """Cold scheduling of ``cases``: ``rounds[alg]`` is the minimum
    number of rounds per algorithm (one round = every case once)."""

    cases: tuple[Case, ...]
    rounds: dict[str, int]


@dataclass(frozen=True)
class Tenant:
    name: str
    model: str
    share: float  # fraction of the rung's rate
    priority: int
    deadline_ms: float


#: Expected arrivals of one serve() call (one chunk of a rung).
CHUNK_ARRIVALS = 1000


@dataclass(frozen=True)
class Rung:
    """One arrival rate of the ladder, served as ``chunks`` independent
    serve() calls (each with its own seed) whose horizons are sized so
    that about ``chunk_arrivals`` requests arrive in each."""

    rate_qps: float
    chunks: int
    chunk_arrivals: int = CHUNK_ARRIVALS

    @property
    def horizon_ms(self) -> float:
        return 1000.0 * self.chunk_arrivals / self.rate_qps


@dataclass(frozen=True)
class ServeSection:
    tenants: tuple[Tenant, ...]
    rungs: tuple[Rung, ...]
    light_qps: float
    heavy_qps: float
    options: dict[str, Any] = field(default_factory=dict)
    rolling_faults: bool = False  # add the fault plan of ``fault_specs``


@dataclass(frozen=True)
class Workload:
    name: str
    sched: SchedSection
    serve: ServeSection
    primary: str  # "sched" or "serve": the section that fills the run

    def __post_init__(self) -> None:
        if self.primary not in ("sched", "serve"):
            raise ValueError(f"primary must be 'sched' or 'serve', got {self.primary!r}")


# --- inputs -------------------------------------------------------------

SECTION_VI_CASES = (
    Case("real", "inception_v3", size=299),
    Case("real", "inception_v3", size=1024),
    Case("real", "nasnet", size=331),
    Case("real", "nasnet", size=1024),
)

#: The serve tenants' models on the full lease (gpus_per_query = 2).
ZOO_CASES = (
    Case("zoo", "chain12"),
    Case("zoo", "wide24"),
    Case("zoo", "deep40"),
)

LADDER_TENANTS = (
    Tenant("search", "chain12", 0.625, 0, 120.0),
    Tenant("feed", "wide24", 0.30, 1, 200.0),
    Tenant("batch", "deep40", 0.075, -1, 400.0),
)

FAULT_TENANTS = (
    Tenant("search", "chain12", 25 / 41, 0, 150.0),
    Tenant("feed", "wide24", 12 / 41, 1, 250.0),
    Tenant("batch", "deep40", 4 / 41, -1, 600.0),
)

# p99 needs >= 10 samples beyond it (>= 1,000 completions).  The light
# and heavy rungs get several times that, because their tails are
# reported and must repeat across seeds; the other rungs only decide
# capacity_qps, whose knee (60 -> 80 qps) is far from the 1% line.
_LADDER_RUNGS = (
    Rung(20.0, 1),
    Rung(40.0, 5),
    Rung(60.0, 1),
    Rung(80.0, 1),
    Rung(100.0, 1),
    Rung(120.0, 12),
)

_ZOO_SCHED = SchedSection(ZOO_CASES, {"ios": 6, "hios-lp": 50, "hios-mr": 50})

WORKLOADS: dict[str, Workload] = {
    "sched-real": Workload(
        name="sched-real",
        sched=SchedSection(SECTION_VI_CASES, {alg: 5 for alg in ALGORITHMS}),
        serve=ServeSection(
            LADDER_TENANTS,
            rungs=(Rung(40.0, 5), Rung(120.0, 8)),
            light_qps=40.0,
            heavy_qps=120.0,
        ),
        primary="sched",
    ),
    "serve-ladder": Workload(
        name="serve-ladder",
        sched=_ZOO_SCHED,
        serve=ServeSection(
            LADDER_TENANTS, rungs=_LADDER_RUNGS, light_qps=40.0, heavy_qps=120.0
        ),
        primary="serve",
    ),
    "serve-faults": Workload(
        name="serve-faults",
        sched=_ZOO_SCHED,
        serve=ServeSection(
            FAULT_TENANTS,
            rungs=(Rung(41.0, 6), Rung(205.0, 10)),
            light_qps=41.0,
            heavy_qps=205.0,
            options={"max_batch": 3, "elastic": True, "max_retries": 3},
            rolling_faults=True,
        ),
        primary="serve",
    ),
}


def fault_specs(horizon_ms: float) -> tuple[str, ...]:
    """The serve-faults plan: GPU 3 runs at half speed throughout, every
    transfer may be lost (2%, jittered backoff), and each simulated
    second one of GPUs 0-2 (in turn) fails at +500 ms and is repaired
    400 ms later."""
    specs = ["slow:3@0x0.5", "loss:0.02:jitter"]
    second = 0
    while second * 1000.0 < horizon_ms:
        gpu = second % 3
        at = second * 1000.0 + 500.0
        specs += [f"fail:{gpu}@{at:g}", f"repair:{gpu}@{at + 400.0:g}"]
        second += 1
    return tuple(specs)


def scaled(workload: Workload, scale: float) -> Workload:
    """A smaller copy for the benchmark's own tests: rung sizes, round
    counts and (below 1) the case list shrink with ``scale``."""
    if scale == 1.0:
        return workload
    if scale <= 0:
        raise ValueError("scale must be positive")
    cases = workload.sched.cases
    if scale < 1.0:
        cases = cases[: max(1, round(len(cases) * scale))]
    sched = SchedSection(
        cases, {alg: max(1, round(n * scale)) for alg, n in workload.sched.rounds.items()}
    )
    rungs = tuple(
        Rung(r.rate_qps, max(1, round(r.chunks * scale)), max(20, round(r.chunk_arrivals * scale)))
        for r in workload.serve.rungs
    )
    serve = ServeSection(
        workload.serve.tenants,
        rungs,
        workload.serve.light_qps,
        workload.serve.heavy_qps,
        dict(workload.serve.options),
        workload.serve.rolling_faults,
    )
    return Workload(workload.name, sched, serve, workload.primary)
