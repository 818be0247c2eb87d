"""Run one benchmark workload in this (fresh) interpreter.

Started by ``run.py``, never imported by the package.  Protocol on stdout:
a ``ready {...}`` line once set-up is done (imports, inputs, one warm-up op),
then, unless ``--setup-only``, one JSON line with the measurements.

The op loop runs all of the workload's items once per round, in rounds, until
``--seconds`` of timed calls have accumulated (at least ``MIN_ROUNDS``), and
reports each item's time in every round, raw and relative to the calibration
kernel timed around it (see ``calibrate``).  With ``--trace`` the rounds
alternate untraced and traced, so one process gives both the per-layer
numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

MIN_ROUNDS = 2
MAX_LISTED_FAILURES = 100
CHUNK_S = 0.25  # timed calls between two calibration passes
SETUP_CAL_PASSES = 5


def calibrate() -> float:
    """Time one pass of a fixed kernel that does not touch the package.

    The kernel mixes what the package's calls are made of (interpreter
    arithmetic, 6-vector numpy operations, float formatting) and takes about
    10 ms.  The speed of a shared host wanders by tens of percent over
    seconds to minutes; a call's time divided by the calibration passes timed
    just before and after it cancels most of that, and changes only when the
    package's own code does.  Called only after set-up, so importing numpy
    here costs nothing.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(40000):
        total += (i * 0.5) % 3.0
    matrix = np.eye(6) * 0.5
    vec = np.linspace(0.0, 1.0, 6)
    out = []
    for i in range(500):
        vec = np.sqrt(matrix @ vec + 1.0) * 0.9
        out.append(f"{float(vec[0]) * 1.5 + i!r},{vec[1]:.17g}")
    ",".join(out)
    return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True, help="source tree the package must come from")
    parser.add_argument("--workdir", required=True)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, tracer=None) -> dict:
    """Time the workload's items in rounds and gate every output.

    Returns each item's untraced and traced call times, its untraced call
    times relative to the calibration kernel, every calibration time, the
    bytes each item wrote, the op tally, every distinct failure with its
    inputs, and the accuracy record.
    """
    n = len(workload.items)
    times = {False: [[] for _ in range(n)], True: [[] for _ in range(n)]}
    relative = [[] for _ in range(n)]
    cal_s = []
    out_bytes = [0] * n
    failures, seen, acc = [], set(), {}
    attempted = failed = rounds = 0
    measured = 0.0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        done, chunks, chunk_s = [], [[]], 0.0
        cal_s.append(calibrate())
        with tracer.installed() if traced else contextlib.nullcontext():
            for index, item in enumerate(workload.items):
                if chunk_s >= CHUNK_S:
                    chunks.append([])
                    cal_s.append(calibrate())
                    chunk_s = 0.0
                span = tracer.op_span(workload.ops_per_item) if traced else contextlib.nullcontext()
                try:
                    with span:
                        start = time.perf_counter()
                        raw = workload.call(item)
                        wall = time.perf_counter() - start
                    rec = workload.digest(item, raw)
                except Exception:  # an op that raises is a failed op, with its inputs
                    wall, rec = None, {"exception": traceback.format_exc()}
                done.append((wall, rec))
                chunks[-1].append(index)
                chunk_s += wall or 0.0
        cal_s.append(calibrate())
        rounds += 1
        if not traced:
            # each chunk's calls against the mean of the passes around it
            cals = cal_s[-len(chunks) - 1:]
            for chunk, before, after in zip(chunks, cals, cals[1:]):
                for index in chunk:
                    if done[index][0] is not None:
                        relative[index].append(2.0 * done[index][0] / (before + after))
        for index, (item, (wall, rec)) in enumerate(zip(workload.items, done)):
            attempted += workload.ops_per_item
            if wall is None:
                fails = [{"inputs": _jsonable(item), "error": rec["exception"],
                          "ops": workload.ops_per_item}]
            else:
                fails = workload.gate(item, rec, acc)
                times[traced][index].append(wall)
                out_bytes[index] = rec.get("bytes", 0)
                measured += wall
            for fail in fails:
                failed += fail["ops"]
                key = json.dumps(fail, sort_keys=True, default=str)
                if key not in seen:
                    seen.add(key)
                    failures.append(fail)
        if rounds >= MIN_ROUNDS + (tracer is not None) and \
                measured * (1.0 + 0.5 / rounds) >= seconds:
            break
    return {"untraced": times[False], "traced": times[True], "relative": relative,
            "cal_s": cal_s, "bytes": out_bytes,
            "rounds": rounds, "attempted": attempted, "failed": failed,
            "failures": failures, "accuracy": acc}


def _jsonable(item):
    return item if isinstance(item, (dict, list)) else repr(item)


def best_times(per_item: list[list[float]]) -> list[float]:
    best = [min(ts) for ts in per_item if ts]
    if len(best) < len(per_item):
        raise RuntimeError(f"{len(per_item) - len(best)} items never completed")
    return best


def per_layer(run: dict, tracer, workload) -> dict:
    """Per-layer numbers from the traced rounds; 0 where a layer is not used."""
    summ = tracer.summary()
    calls, self_s = summ["calls"], summ["self_s"]
    missing = [name for name in workload.traced_calls if not calls.get(name)]
    if missing:
        raise RuntimeError(f"traced {workload.name}: never called {', '.join(missing)}")
    ops, op_wall = summ["ops"], summ["op_wall_s"]

    def per_call_us(name):
        return 1e6 * self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    layer_self = {}
    for name, seconds in self_s.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    if abs(sum(layer_self.values()) - op_wall) > 1e-6 * op_wall:
        raise RuntimeError(f"layer self times add up to {sum(layer_self.values())} s, "
                           f"traced op wall time is {op_wall} s")

    steps = sum(s for s, _ in tracer.integrations)
    rejections = sum(r for _, r in tracer.integrations)
    attempts = steps + rejections
    integrate_s = self_s.get("dynamics.integrate", 0.0)
    acc = run["accuracy"]
    metrics = {
        "model.rhs_evals": sum(6 * (s + r) + 1 for s, r in tracer.integrations) / ops,
        "dynamics.integrate_self_ms": 1e3 * integrate_s / ops,
        "dynamics.us_per_step": 1e6 * integrate_s / attempts if attempts else 0.0,
        "dynamics.steps": steps / ops,
        "dynamics.rejections": rejections / ops,
        "dynamics.accept_ratio": steps / attempts if attempts else 0.0,
        "dynamics.growth_rate_us": per_call_us("dynamics.growth_rate"),
        "stability.solve_us": per_call_us("stability.solve_characteristic"),
        "stability.classify_us": per_call_us("stability.classify"),
        "stability.char_coeffs_us": per_call_us("stability.char_coeffs"),
        "stability.unstable_direction_calls_per_op":
            calls.get("stability.unstable_direction", 0) / ops,
        "stability.unstable_direction_us": per_call_us("stability.unstable_direction"),
        "equilibria.triangular_points_calls_per_op":
            calls.get("equilibria.triangular_points", 0) / ops,
        "equilibria.self_us_per_op": 1e6 * layer_self.get("equilibria", 0.0) / ops,
        "cli.bytes_per_op": sum(run["bytes"]) / (workload.ops_per_item * len(run["bytes"])),
        "stability.max_coeff_rel_diff": acc.get("max_coeff_rel_diff", 0.0),
        "stability.max_coeff_norm_diff": acc.get("max_coeff_norm_diff", 0.0),
        "stability.max_root_eig_dist": acc.get("max_root_eig_dist", 0.0),
        "dynamics.max_rate_rel_err": acc.get("max_rate_rel_err", 0.0),
        "dynamics.max_jacobi_drift": acc.get("max_jacobi_drift", 0.0),
        "trace.overhead": sum(best_times(run["traced"])) / sum(best_times(run["untraced"])),
        "trace.op_ms": 1e3 * op_wall / ops,
        "trace.spans_per_op": summ["spans"] / ops,
    }
    for layer in ("bench", "cli", "model", "equilibria", "stability", "dynamics"):
        metrics[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / op_wall
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    import numpy

    t_numpy = time.perf_counter()
    import robe3bp.cli

    t_package = time.perf_counter()
    src = os.path.realpath(args.src)
    if not os.path.realpath(robe3bp.__file__).startswith(src + os.sep):
        print(f"worker: robe3bp imported from {robe3bp.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    t_inputs = time.perf_counter()
    workload.warmup()
    t_ready = time.perf_counter()
    setup = {"import_numpy_s": t_numpy - t_start, "import_robe3bp_s": t_package - t_numpy,
             "inputs_s": t_inputs - t_package, "warmup_s": t_ready - t_inputs}
    print("ready " + json.dumps(setup), flush=True)
    if args.setup_only:
        print(json.dumps({"cal_s": [calibrate() for _ in range(SETUP_CAL_PASSES)]}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        unknown = {n for w in WORKLOADS.values() for n in w.traced_calls} - tracer.wrapped
        if unknown:
            raise RuntimeError(f"public functions not found: {', '.join(sorted(unknown))}")
    run = run_rounds(workload, args.seconds, tracer)
    result = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"][:MAX_LISTED_FAILURES],
        "failures_distinct": len(run["failures"]),
        "best_s": best_times(run["untraced"]),
        "relative": run["relative"],
        "cal_s": run["cal_s"],
        "ops_per_item": workload.ops_per_item,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": run["accuracy"],
        "record": workload.record(),
        "rounds": run["rounds"],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(run, tracer, workload)
        tracer.save(os.path.join(args.workdir, f"spans-{args.workload}.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
