"""Benchmark entry point.

    python3 perfbench/run.py --workload sched-real --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workloads, metrics and bounds are
in ``BENCHMARK.json``; why they are what they are is in
``perfbench/README.md``.

This script uses only the standard library.  It pins the environment
(hash seed, one BLAS/OpenMP thread, sanitizers and debug lint off, no
persistent cache), runs the workload in a child process
(``worker.py``), and prints the child's result object as the last line
of stdout.  Untraced runs also start four set-up-only children first:
``setup_s`` is the median of the five set-up times.  It exits non-zero
when the source tree is missing, a child fails or times out, or an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock limit for all children of one run together.
TIMEOUT_S = 170.0

SETUP_PROBES = 4

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "HIOS_SANITIZE": "0",
    "HIOS_DEBUG_LINT": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("HIOS_", "REPRO_"))}
    env.pop("PYTHONPATH", None)
    env.update(PINNED_ENV)
    return env


def run_child(args: list[str], deadline: float) -> tuple[int, str]:
    """Run ``worker.py`` to completion (killed and reaped at ``deadline``)."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="HIOS repository benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="shrink the workload (tests)")
    p.add_argument("--out-dir", default=".perfbench", help="details and span files")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--out-dir", str(out_dir),
    ]  # fmt: skip
    deadline = time.monotonic() + TIMEOUT_S
    setup: list[float] = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                code, out = run_child([*common, "--setup-only"], deadline)
                if code != 0:
                    print(f"error: set-up probe exited {code}", file=sys.stderr)
                    return 1
                setup.append(float(last_json(out)["setup_s"]))
        code, out = run_child([*common, "--trace", str(args.trace)], deadline)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S:g} s", file=sys.stderr)
        return 1
    try:
        result = last_json(out)
    except ValueError as exc:
        print(f"error: no result from the worker ({exc}); exit code {code}", file=sys.stderr)
        return 1
    if not args.trace:
        setup.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setup)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in units[kind]}
    if set(result["metrics"]) != set(unit_of):
        print(f"error: worker metrics do not match BENCHMARK.json {kind}", file=sys.stderr)
        return 1
    result["metrics"] = {
        name: {"value": value, "unit": unit_of[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
