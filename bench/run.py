"""Benchmark for robe3bp, run from the root of a checkout:

    python3 bench/run.py --workload sweep|verify|orbit --seed N --seconds S --trace 0|1

Each invocation runs one workload in a fresh single-threaded interpreter
(``worker.py``) with the package imported from ``src/``.  Set-up time is the
median over several fresh interpreters, each timed from its start to the end
of set-up (imports, inputs, one warm-up op).  Every op is checked against the
workload's correctness gates outside the timed region; failed ops count in
``failed`` and are listed with their inputs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the full report (environment, workload record, accuracy, failures).
Timing is process-local: no CPU pinning, no cache dropping, no system-wide
profiling.  End-to-end times are measured relative to a fixed calibration
kernel timed around every call (``worker.calibrate``) and reported at
``CAL_NOMINAL_S`` per calibration pass, so that the wandering speed of a
shared host cancels; the raw wall-clock figures are in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / ".work"
WORKLOADS = ("sweep", "verify", "orbit")
SETUP_RUNS = 8  # set-up-only interpreters, on top of the measuring ones
MEASURE_RUNS = 2
DEADLINE_S = 170.0
# end-to-end times are reported on a host where one calibration pass takes this
CAL_NOMINAL_S = 0.01
LIMITS = ("process-local wall-clock timing only: no CPU pinning, no cache dropping, "
          "no system-wide profiling; end-to-end times are scaled to "
          f"{1e3 * CAL_NOMINAL_S:g} ms per calibration pass")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_numpy_s": "s",
    "setup.import_robe3bp_s": "s",
    "setup.inputs_s": "s",
    "setup.warmup_s": "s",
    "model.rhs_evals": "count",
    "model.self_share": "ratio",
    "dynamics.integrate_self_ms": "ms",
    "dynamics.us_per_step": "us",
    "dynamics.steps": "count",
    "dynamics.rejections": "count",
    "dynamics.accept_ratio": "ratio",
    "dynamics.growth_rate_us": "us",
    "dynamics.self_share": "ratio",
    "dynamics.max_rate_rel_err": "ratio",
    "dynamics.max_jacobi_drift": "abs",
    "stability.solve_us": "us",
    "stability.classify_us": "us",
    "stability.char_coeffs_us": "us",
    "stability.unstable_direction_calls_per_op": "count",
    "stability.unstable_direction_us": "us",
    "stability.self_share": "ratio",
    "stability.max_coeff_rel_diff": "ratio",
    "stability.max_coeff_norm_diff": "ratio",
    "stability.max_root_eig_dist": "abs",
    "equilibria.triangular_points_calls_per_op": "count",
    "equilibria.self_us_per_op": "us",
    "equilibria.self_share": "ratio",
    "cli.self_share": "ratio",
    "cli.bytes_per_op": "B",
    "bench.self_share": "ratio",
    "trace.overhead": "ratio",
    "trace.op_ms": "ms",
    "trace.spans_per_op": "count",
}
# workload-specific names printed beside the generic end-to-end metrics
NAMED = {
    "sweep": {"cells_per_s": ("ops_per_s", "1/s")},
    "verify": {"verify_per_s": ("ops_per_s", "1/s"), "verify_p50_ms": ("call_p50_ms", "ms"),
               "verify_p95_ms": ("call_p95_ms", "ms")},
    "orbit": {"orbits_per_s": ("ops_per_s", "1/s"), "sim_time_per_s": ("sim_time_per_s", "tu/s")},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and fewer set-up runs, for the benchmark's own tests")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "seed": seed,
        "limits": LIMITS,
    }


class Child:
    """One worker interpreter; ``ready_s`` is its start-to-ready time."""

    def __init__(self, args, deadline: float, seconds: float | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds or 0.0),
               "--src", str(SRC), "--workdir", str(WORKDIR)]
        cmd += ["--trace"] * bool(args.trace) + ["--tiny"] * args.tiny
        cmd += ["--setup-only"] * (seconds is None)
        env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            self.ready_s = time.perf_counter() - start
            if not line.startswith("ready "):
                self.finish(deadline)
                raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")
            self.setup = json.loads(line[len("ready "):])
        except BaseException:
            self.kill()
            raise

    def finish(self, deadline: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args) -> tuple[list[float], list[dict], list[dict]]:
    """Start the set-up-only and measuring interpreters, alternating.

    Untraced runs split ``--seconds`` over ``MEASURE_RUNS`` interpreters
    spread across the run, so one slow stretch of the shared host or one
    unlucky process layout does not set the result; a traced run uses one.
    Returns every interpreter's start-to-ready time relative to its own
    calibration passes, its set-up breakdown, and the measuring interpreters'
    results.
    """
    deadline = time.monotonic() + DEADLINE_S
    runs = 1 if args.trace else MEASURE_RUNS
    setup_only = 1 if args.tiny else SETUP_RUNS // runs
    ready, setups, results = [], [], []
    for _ in range(runs):
        for seconds in [None] * setup_only + [args.seconds / runs]:
            child = Child(args, deadline, seconds)
            out = json.loads(child.finish(deadline).strip().splitlines()[-1])
            ready.append(child.ready_s / statistics.median(out["cal_s"]))
            setups.append(child.setup)
            if seconds is not None:
                results.append(out)
    return ready, setups, results


def end_to_end(results: list[dict], ready: list[float]) -> dict:
    """End-to-end numbers from the measuring interpreters.

    An item's time is the median over every untraced round of every
    interpreter of its call time relative to the calibration passes around
    it, times ``CAL_NOMINAL_S``.  The raw wall-clock equivalents (best round,
    ``raw_*``) are returned beside them.
    """
    calls = [CAL_NOMINAL_S * statistics.median(sum(rel, []))
             for rel in zip(*(r["relative"] for r in results))]
    best = [min(times) for times in zip(*(r["best_s"] for r in results))]
    ops = results[0]["ops_per_item"] * len(calls)
    out = {
        "setup_s": CAL_NOMINAL_S * statistics.median(ready),
        "ops_per_s": ops / sum(calls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "items": len(calls),
        "cal_median_s": statistics.median(c for r in results for c in r["cal_s"]),
        "raw_ops_per_s": ops / sum(best),
        "raw_call_p50_ms": 1e3 * statistics.median(best),
    }
    if len(calls) >= 200:  # ten samples beyond the 95th percentile
        out["call_p95_ms"] = 1e3 * statistics.quantiles(calls, n=20)[18]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robe3bp" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'robe3bp'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    try:
        ready, setups, results = measure(args)
    except RuntimeError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = results[0]["numpy"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    shas = {r["accuracy"]["csv_sha256"] for r in results if "csv_sha256" in r["accuracy"]}
    if len(shas) > 1:
        ops = results[0]["ops_per_item"] * len(results[0]["best_s"])
        failed += ops
        failures.append({"error": f"sweep CSV differs between interpreters: {sorted(shas)}",
                         "ops": ops})
    accuracy = {}
    for r in results:
        for key, value in r["accuracy"].items():
            accuracy[key] = value if isinstance(value, str) else max(value, accuracy.get(key, 0.0))

    e2e = end_to_end(results, ready)
    if "t_end" in results[0]["record"]:  # orbit: simulated time units per second
        e2e["sim_time_per_s"] = results[0]["record"]["t_end"] * e2e["ops_per_s"]
    if args.trace:
        metrics = {f"setup.{key}": statistics.median(s[key] for s in setups)
                   for key in setups[0]}
        metrics.update(results[0]["per_layer"])
        units = PER_LAYER
    else:
        metrics = {name: e2e[name] for name in END_TO_END}
        units = END_TO_END
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} missing or unknown",
              file=sys.stderr)
        return 1

    for fail in failures:
        print(f"bench: failed op: {json.dumps(fail, default=str)}", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(error_rate = {failed / attempted:.6g} ratio)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, (key, unit) in NAMED[args.workload].items():
        if key in e2e:
            print(f"  {name} = {e2e[key]:.6g} {unit}  "
                  f"({e2e['items']} calls, each the median of its untraced rounds)")
    print(f"  raw wall clock: ops_per_s = {e2e['raw_ops_per_s']:.6g} 1/s, "
          f"call_p50_ms = {e2e['raw_call_p50_ms']:.6g} ms (best rounds), one calibration "
          f"pass = {1e3 * e2e['cal_median_s']:.4g} ms (reported at {1e3 * CAL_NOMINAL_S:g} ms)")
    report = {
        "workload": args.workload, "environment": env, "record": results[0]["record"],
        "accuracy": accuracy, "failures": failures, "error_rate": failed / attempted,
        "end_to_end": e2e, "rounds": [r["rounds"] for r in results],
        "setup_ready_rel": ready, "setup_runs": setups,
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
