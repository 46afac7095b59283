"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIMULATED = [m["name"] for m in SPEC["end_to_end"] if m["unit"].startswith("sim_")]
SCALE = "0.04"


def run(out_dir: Path, workload: str, seed: int = 1, trace: int = 0, root: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", SCALE,
            "--out-dir", str(out_dir),
        ],  # fmt: skip
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout


def details(out_dir: Path, workload: str, seed: int, trace: int) -> dict:
    path = out_dir / f"details-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def untraced(out_dir: Path) -> dict[str, dict]:
    results = {}
    for workload in WORKLOADS:
        code, stdout = run(out_dir, workload)
        assert code == 0, stdout
        results[workload] = json.loads(stdout.strip().splitlines()[-1])
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_spec(untraced: dict[str, dict], workload: str) -> None:
    result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_output(out_dir: Path, untraced: dict[str, dict], workload: str) -> None:
    code, stdout = run(out_dir, workload, trace=1)
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    traced = details(out_dir, workload, 1, 1)["end_to_end"]
    for name in SIMULATED:
        assert traced[name] == untraced[workload]["metrics"][name]["value"], name


def test_seed_drives_serve_arrivals_only(out_dir: Path, untraced: dict[str, dict]) -> None:
    for workload in WORKLOADS:
        code, stdout = run(out_dir, workload, seed=2)
        assert code == 0, stdout
        first = details(out_dir, workload, 1, 0)["raw"]
        second = details(out_dir, workload, 2, 0)["raw"]
        # the scheduling section never sees the seed ...
        assert first["sim_ms_by_case"] == second["sim_ms_by_case"]
        # ... the serving section's arrivals come from it
        assert first["rungs"] != second["rungs"]


def test_refuses_to_run_without_the_source_tree(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    code, stdout = run(tmp_path / "out", WORKLOADS[0], root=tmp_path)
    assert code != 0
    assert stdout == ""
