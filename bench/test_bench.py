"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench`` from
the repository root; they take about half a minute."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
                "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.startswith(f"  {metric} = ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert any("error_rate = 0 ratio" in line for line in lines)
    for metric in run.NAMED[name]:
        if metric != "verify_p95_ms":  # needs 200 cells; tiny runs have fewer
            assert any(line.startswith(f"  {metric} = ") for line in lines), metric
    report = json.loads(lines[-2])["report"]
    assert {"python", "numpy", "nproc", "cpu", "loadavg", "seed", "limits"} <= set(
        report["environment"])
    assert report["environment"]["seed"] == 3


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny(cls, tmp_path, seed=5):
    return cls(seed, str(tmp_path), tiny=True)


def test_a_gate_failure_counts_and_is_listed(tmp_path, monkeypatch):
    workload = _tiny(workloads.Verify, tmp_path)
    bad = workload.items[2]
    real = workloads.cli.growth_rate

    def skewed(traj, eq_point, *args, **kwargs):
        rate = real(traj, eq_point, *args, **kwargs)
        x_eq = 2.0 * bad["k"] / (1.0 + 1.5 * bad["a1"])
        return 1.5 * rate if abs(eq_point[0] - x_eq) < 1e-12 else rate

    monkeypatch.setattr(workloads.cli, "growth_rate", skewed)
    result = worker.run_rounds(workload, seconds=0.0)
    assert result["rounds"] == worker.MIN_ROUNDS
    assert result["attempted"] == worker.MIN_ROUNDS * len(workload.items)
    assert result["failed"] == worker.MIN_ROUNDS
    [failure] = result["failures"]
    assert failure["inputs"] is bad and "rate error" in failure["error"]


def test_an_op_that_raises_counts_and_is_listed(tmp_path, monkeypatch):
    workload = _tiny(workloads.Verify, tmp_path)
    bad = f"--mu={workload.items[1]['mu']!r}"
    real = workloads.cli.main

    def broken(argv):
        if bad in argv:
            raise FloatingPointError("injected")
        return real(argv)

    monkeypatch.setattr(workloads.cli, "main", broken)
    with pytest.raises(RuntimeError, match="never completed"):
        worker.best_times(worker.run_rounds(workload, seconds=0.0)["untraced"])
    result = worker.run_rounds(workload, seconds=0.0)
    assert result["failed"] == worker.MIN_ROUNDS
    [failure] = result["failures"]
    assert failure["inputs"] is workload.items[1] and "injected" in failure["error"]


def test_untraced_calls_are_timed_against_the_calibration_kernel(tmp_path):
    workload = _tiny(workloads.Verify, tmp_path)
    result = worker.run_rounds(workload, seconds=0.0)
    assert [len(rel) for rel in result["relative"]] == [worker.MIN_ROUNDS] * len(workload.items)
    assert len(result["cal_s"]) >= 2 * worker.MIN_ROUNDS
    # a call's relative time is its wall time over a calibration pass of this run
    cal = sorted(result["cal_s"])
    for rel, raw in zip(result["relative"], result["untraced"]):
        for r, wall in zip(rel, raw):
            assert wall / cal[-1] <= r <= wall / cal[0]


def test_sweep_gate_catches_a_wrong_coefficient(tmp_path, monkeypatch):
    workload = _tiny(workloads.Sweep, tmp_path)
    real = workloads.cli.char_coeffs
    monkeypatch.setattr(workloads.cli, "char_coeffs",
                        lambda params: real(params)._replace(q=real(params).q * (1 + 1e-9)))
    result = worker.run_rounds(workload, seconds=0.0)
    admissible = workload.record()["admissible"]
    assert admissible > 0
    assert result["failed"] == worker.MIN_ROUNDS * admissible


def test_orbit_gate_catches_jacobi_drift(tmp_path, monkeypatch):
    workload = _tiny(workloads.Orbit, tmp_path)
    real = workloads.dynamics.integrate

    def drifting(state0, params, cfg):
        traj = real(state0, params, cfg)
        return dataclasses.replace(traj, jacobi=traj.jacobi + np.linspace(0, 1e-6, len(traj)))

    monkeypatch.setattr(workloads.dynamics, "integrate", drifting)
    result = worker.run_rounds(workload, seconds=0.0)
    assert result["failed"] == worker.MIN_ROUNDS * len(workload.items)
    assert len(result["failures"]) == len(workload.items)
    assert all("drift 1.000e-06" in f["error"] for f in result["failures"])


def test_traced_run_fails_when_a_public_function_is_missing(monkeypatch):
    monkeypatch.delattr(workloads.stability, "classify")
    monkeypatch.delattr(workloads.cli, "classify")
    assert "stability.classify" not in Tracer().wrapped
    args = ["--workload", "verify", "--seed", "1", "--seconds", "0", "--trace", "--tiny",
            "--src", str(ROOT / "src"), "--workdir", str(BENCH / ".work")]
    (BENCH / ".work").mkdir(exist_ok=True)
    with pytest.raises(RuntimeError, match="stability.classify"):
        worker.main(args)


def test_traced_run_fails_when_a_layer_is_never_called(tmp_path, monkeypatch):
    workload = _tiny(workloads.Verify, tmp_path)
    monkeypatch.setattr(workload, "traced_calls", ("dynamics.integrate", "stability.classify"))
    tracer = Tracer()
    result = worker.run_rounds(workload, seconds=0.0, tracer=tracer)
    with pytest.raises(RuntimeError, match="never called stability.classify"):
        worker.per_layer(result, tracer, workload)


def test_traced_self_times_add_up_to_op_wall_time(tmp_path):
    workload = _tiny(workloads.Verify, tmp_path)
    tracer = Tracer()
    result = worker.run_rounds(workload, seconds=0.0, tracer=tracer)
    layers = worker.per_layer(result, tracer, workload)
    shares = [v for k, v in layers.items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert layers["equilibria.triangular_points_calls_per_op"] == 5
    assert layers["stability.unstable_direction_calls_per_op"] == 2
    traced_calls = sum(len(times) for times in result["traced"])
    assert len(tracer.integrations) == traced_calls == len(tracer.op_ops)


def test_sweep_slabs_write_the_csv_of_one_call_over_the_grid(tmp_path):
    workload = _tiny(workloads.Sweep, tmp_path)
    assert len(workload.items) > 1
    result = worker.run_rounds(workload, seconds=0.0)
    assert result["failed"] == 0
    assert workload.record()["cells"] == workload.ops_per_item * len(workload.items)
    whole = workload.items[0][:1] + workload.grid + ["--output", str(tmp_path / "whole.csv")]
    assert workload._run_cli(whole)["code"] == 0
    assert (tmp_path / "whole.csv").read_bytes() == workload.whole_csv()
