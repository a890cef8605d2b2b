"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at the ``--smoke`` size (16x32 grid, three flux
points, n_max 64, 300 RK4 steps) in both modes and checks that exactly the
metrics of ``BENCHMARK.json`` are emitted with their units; then checks that
the correctness gate trips on corrupted copies of real outputs, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one column per output kind whose value the gate must reject when set to -1
CORRUPT_COLUMN = {"sweep": "t_01", "fig2": "t_01", "evolve": "trace", "nullspace": "p_nullspace"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _corrupt(path: Path, column: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[header_at].rstrip("\n").split(",").index(column)
    fields = lines[header_at + 1].rstrip("\n").split(",")
    fields[index] = "-1"
    lines[header_at + 1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_corrupted_output(workload, tmp_path):
    inputs = make_inputs(workload, 0, smoke=True)
    config = tmp_path / "config.yaml"
    config.write_text(inputs.yaml_text)
    references = gate.spectral_references(inputs) if inputs.spectral else {}
    rep = run.run_rep(inputs, tmp_path, config, 0, references, time.monotonic() + 120)
    assert rep.gate.failed_ops == 0, rep.gate.problems

    good = tmp_path / "rep0"
    first_csv = sorted(good.glob("*.csv"))[0]

    corrupted = tmp_path / "corrupted"
    shutil.copytree(good, corrupted)
    _corrupt(corrupted / first_csv.name, CORRUPT_COLUMN[inputs.command])
    result = gate.check_rep(inputs, str(corrupted), 0, references)
    assert result.failed_ops > 0 and result.problems

    truncated = tmp_path / "truncated"
    shutil.copytree(good, truncated)
    lines = (truncated / first_csv.name).read_text().splitlines(keepends=True)
    (truncated / first_csv.name).write_text("".join(lines[:-1]))
    assert gate.check_rep(inputs, str(truncated), 0, references).failed_ops > 0

    assert gate.check_rep(inputs, str(good), 1, references).failed_ops == inputs.ops_per_rep


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep_prod", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
