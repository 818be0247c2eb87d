"""The benchmark workloads: inputs from a seed, one timed call, gates.

A workload is a list of *items*; one item is one call into the package as a
user makes it.  ``call`` is the only code inside the timed region.
``digest`` reduces the raw result right after the call without calling the
package (it may run while spans are being recorded); ``gate`` runs later,
outside both timing and tracing, and may use the package's independent
routes.

- ``sweep``: ``robe3bp sweep`` over a dense grid, one command per slab of
  two ``mu`` values; the op is a grid cell.  Stresses ``equilibria``, ``stability`` and the CSV writer in
  ``cli``; bypasses ``dynamics``.
- ``verify``: one ``robe3bp integrate --from-equilibrium --offset 1e-8``
  command per admissible cell; the op is a cell.  Many short integrations,
  so the step loop and per-call overhead in every layer show.
- ``orbit``: library ``integrate`` on bounded orbits of the confining
  potential, tolerance 1e-12, ``t_end`` 100; the op is an orbit.  All time
  goes to the step loop; the linear layer and ``cli`` do nothing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from robe3bp import cli, dynamics, model, stability
from robe3bp.equilibria import triangular_points

# gate bounds: acceptance criteria 2, 3 and 6 and the Jacobi-drift bound
COEFF_REL_TOL = 1e-12
EIG_TOL = 1e-8
RATE_REL_TOL = 0.05
DRIFT_TOL = 1e-9

CANONICAL = model.Params(mu=0.1, k=-0.01, a1_oblate=0.02)
CANONICAL_T_END = 60.0
VERIFY_OFFSET = 1e-8


def _positive_root(params) -> float:
    """lambda+ by the polynomial route (the CLI reports the 6x6 eigen route)."""
    return float(np.max(stability.solve_characteristic(stability.char_coeffs(params)).real))


class Workload:
    name = ""
    ops_per_item = 1
    # public functions a traced run must see called; a refactor that renames
    # or bypasses one fails the traced run instead of reporting a layer as 0
    traced_calls: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.items = self.make_items(tiny)

    def make_items(self, tiny: bool) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def digest(self, item, raw) -> dict:
        return raw

    def gate(self, item, rec: dict, acc: dict) -> list[dict]:
        """Check one item's outputs; return one failure dict per failed op."""
        raise NotImplementedError

    def record(self) -> dict:
        """Measured shares of the inputs, for claims that help only some of them."""
        return {}

    def _run_cli(self, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# ---------------------------------------------------------------------------

class Sweep(Workload):
    """A dense ``sweep`` over the README ranges, bounds jittered by the seed.

    The grid is swept in slabs of two ``mu`` values, one CLI call each:
    together the slabs cover exactly the cells of one call over the whole
    grid, with the same values (``linspace`` returns both ends of a two-point
    range exactly) and the same CSV rows, but each call is short enough to
    be timed between two calibration passes.
    """

    name = "sweep"
    traced_calls = ("cli.main", "model.mean_motion_sq", "equilibria.triangular_points",
                    "stability.char_coeffs", "stability.solve_characteristic",
                    "stability.classify")
    RANGES = {"mu": (0.05, 0.5), "k": (-0.3, -0.001), "a1": (0.0, 0.1)}
    SLAB = 2  # mu values per call

    def make_items(self, tiny):
        n = 4 if tiny else 30
        self.output = os.path.join(self.workdir, "sweep.csv")
        bounds = {}
        for axis, (lo, hi) in self.RANGES.items():
            jitter = 0.01 * (hi - lo)
            bounds[axis] = (lo + self.rng.uniform(0, jitter), hi - self.rng.uniform(0, jitter))
        self.grid = [f"--grid-{axis}={lo!r}:{hi!r}:{n}" for axis, (lo, hi) in bounds.items()]
        mus = np.linspace(*bounds["mu"], n).tolist()
        self.ops_per_item = self.SLAB * n * n
        self.reference = {}  # slab -> (csv bytes, failures) of its first gated output
        self.shares = {}  # slab -> (cells, admissible)
        return [["sweep", f"--grid-mu={mus[i]!r}:{mus[i + self.SLAB - 1]!r}:{self.SLAB}",
                 *self.grid[1:], "--output", self.output]
                for i in range(0, n, self.SLAB)]

    def warmup(self):
        self._run_cli(["sweep", "--grid-mu=0.1:0.1:1", "--grid-k=-0.01:-0.01:1",
                       "--grid-a1=0.02:0.02:1", "--output", self.output])

    def call(self, argv):
        return self._run_cli(argv)

    def digest(self, argv, raw):
        with open(self.output, "rb") as fh:
            raw["csv"] = fh.read()
        raw["bytes"] = len(raw["csv"]) + len(raw["stdout"])
        return raw

    def gate(self, argv, rec, acc):
        if rec["code"] != 0:
            return [{"inputs": argv, "error": f"exit {rec['code']}: {rec['stderr'].strip()}",
                     "ops": self.ops_per_item}]
        data = rec["csv"]
        slab = argv[1]
        if slab not in self.reference:
            self.reference[slab] = (data, self._gate_csv(slab, data, acc))
            if len(self.reference) == len(self.items):
                acc["csv_sha256"] = hashlib.sha256(self.whole_csv()).hexdigest()
        ref_data, ref_failures = self.reference[slab]
        if data == ref_data:
            return ref_failures
        failures = self._gate_csv(slab, data, acc)
        ref_rows = ref_data.decode().splitlines()
        changed = [i for i, row in enumerate(data.decode().splitlines())
                   if i >= len(ref_rows) or row != ref_rows[i]]
        failures.append({"inputs": argv, "error": f"CSV differs from the first repeat "
                         f"in {len(changed)} rows", "ops": len(changed)})
        return failures

    def whole_csv(self) -> bytes:
        """The slabs' first outputs joined: the CSV of one call over the grid."""
        parts = [self.reference[argv[1]][0] for argv in self.items]
        header = parts[0].split(b"\n", 1)[0] + b"\n"
        return header + b"".join(part.split(b"\n", 1)[1] for part in parts)

    def _gate_csv(self, slab: str, data: bytes, acc: dict) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        failures, admissible, eig_jobs = [], [], []
        if len(rows) != self.ops_per_item:
            failures.append({"error": f"{len(rows)} rows for {self.ops_per_item} cells",
                             "ops": abs(self.ops_per_item - len(rows))})
        for row in rows:
            mu, k, a1 = float(row["mu"]), float(row["k"]), float(row["a1"])
            cell = {"mu": mu, "k": k, "a1": a1}
            exists_ref = False
            if k < 0.0:
                aux_a = 2.0 * k / (1.0 + 1.5 * a1) + mu - 1.0
                aux_b = (-mu / (2.0 * k)) ** (1.0 / 3.0)
                exists_ref = aux_b * aux_b > aux_a * aux_a
            if (row["exists"] == "true") != exists_ref:
                failures.append({"inputs": cell, "error": f"exists={row['exists']}, "
                                 f"independent check says {exists_ref}", "ops": 1})
                continue
            if not exists_ref:
                continue
            admissible.append(cell)
            p, q, r = (float(row[c]) for c in "pqr")
            if (row["classification"] == "unstable") != (r < 0.0):
                failures.append({"inputs": cell, "error": f"verdict {row['classification']} "
                                 f"but r={r!r}", "ops": 1})
                continue
            params = model.Params(mu=mu, k=k, a1_oblate=a1)
            hess = model.hessian_omega((float(row["x"]), 0.0, float(row["z"])), params)
            oracle = stability.char_coeffs_from_hessian(hess, params.n_sq)
            diffs = [abs(c - o) for c, o in zip((p, q, r), oracle)]
            rel = max(d / max(abs(c), abs(o), 1e-300) for d, c, o in zip(diffs, (p, q, r), oracle))
            acc["max_coeff_rel_diff"] = max(acc.get("max_coeff_rel_diff", 0.0), rel)
            # Normwise over the monic cubic (1, p, q, r): near the fold r -> 0
            # and the Hessian route's cancellation in r leaves a per-coefficient
            # relative difference of a few 1e-12 at 1e-16 absolute.  The sign
            # of r, which the verdict rests on, is compared separately.
            norm = max(diffs) / max(1.0, abs(p), abs(q), abs(r))
            acc["max_coeff_norm_diff"] = max(acc.get("max_coeff_norm_diff", 0.0), norm)
            if not (norm < COEFF_REL_TOL and (r < 0.0) == (oracle.r < 0.0)):
                failures.append({"inputs": cell, "error": f"Hessian-route coefficients "
                                 f"{tuple(oracle)} vs {(p, q, r)}", "ops": 1})
                continue
            roots = stability.solve_characteristic(stability.CharCoeffs(p, q, r))
            eig_jobs.append((cell, float(row["max_real_part"]), roots,
                             stability.linearization_matrix(hess, params.n_sq)))
        if eig_jobs:
            eigs = np.linalg.eigvals(np.stack([job[3] for job in eig_jobs]))
            for (cell, max_real, roots, _), eig in zip(eig_jobs, eigs):
                dist = _matched_distance(roots, eig)
                acc["max_root_eig_dist"] = max(acc.get("max_root_eig_dist", 0.0), dist)
                gap = abs(max_real - float(np.max(eig.real)))
                if not (gap < EIG_TOL and dist < EIG_TOL):
                    failures.append({"inputs": cell, "error": f"max_real_part off the 6x6 "
                                     f"eigenvalues by {gap:.3e} (roots by {dist:.3e})", "ops": 1})
        self.shares[slab] = (len(rows), len(admissible))
        return failures

    def record(self):
        cells = sum(c for c, _ in self.shares.values())
        admissible = sum(a for _, a in self.shares.values())
        return {"grid": self.grid, "calls": len(self.items), "cells": cells,
                "admissible": admissible, "admissible_share": admissible / max(cells, 1)}


def _matched_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Worst distance of a greedy nearest-neighbour matching of two root sets."""
    dist = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(len(a)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


# ---------------------------------------------------------------------------

class Verify(Workload):
    """``integrate --from-equilibrium --offset 1e-8`` on admissible cells drawn
    from the acceptance-grid ranges."""

    name = "verify"
    traced_calls = ("cli.main", "equilibria.triangular_points", "model.hessian_omega",
                    "stability.linearization_matrix", "stability.unstable_direction",
                    "dynamics.equilibrium_state", "dynamics.unstable_seed",
                    "dynamics.integrate", "dynamics.growth_rate")
    DRAWS = 280  # about 85% are admissible

    def make_items(self, tiny):
        self.output = os.path.join(self.workdir, "trajectory.csv")
        self.steps = {}  # id(cell) -> accepted steps, for record()
        # t_end * lambda+ is held at the canonical cell's value, so the
        # displacement grows by the same factor, just past the fit window
        exponent = CANONICAL_T_END * _positive_root(CANONICAL)
        # Latin hypercube over (mu, log|k|, A1): every seed covers the box
        # evenly, so the cost mix, and with it the timings, moves little
        # from seed to seed
        draws = 10 if tiny else self.DRAWS
        u = (np.array([self.rng.permutation(draws) for _ in range(3)]).T
             + self.rng.uniform(size=(draws, 3))) / draws
        items = []
        for u_mu, u_k, u_a1 in u.tolist():
            mu = 0.05 + 0.45 * u_mu
            k = -0.001 * 300.0 ** u_k
            a1 = 0.2 * u_a1
            params = model.Params(mu=mu, k=k, a1_oblate=a1)
            if triangular_points(params).exists:
                rate = _positive_root(params)
                items.append({"mu": mu, "k": k, "a1": a1, "linear_rate": rate,
                              "t_end": exponent / rate})
        return items

    def argv(self, cell):
        return ["integrate", f"--mu={cell['mu']!r}", f"--k={cell['k']!r}",
                f"--a1={cell['a1']!r}", "--from-equilibrium",
                f"--offset={VERIFY_OFFSET!r}", f"--t-end={cell['t_end']!r}",
                "--output", self.output]

    def warmup(self):
        rate = _positive_root(CANONICAL)
        self.call({"mu": CANONICAL.mu, "k": CANONICAL.k, "a1": CANONICAL.a1_oblate,
                   "linear_rate": rate, "t_end": CANONICAL_T_END})

    def call(self, cell):
        return self._run_cli(self.argv(cell))

    def digest(self, cell, raw):
        raw["bytes"] = len(raw["stdout"]) + os.path.getsize(self.output)
        return raw

    def gate(self, cell, rec, acc):
        def fail(error):
            return [{"inputs": cell, "error": error, "ops": 1}]

        if rec["code"] != 0:
            return fail(f"exit {rec['code']}: {rec['stderr'].strip()}")
        summary = json.loads(rec["stdout"])
        self.steps[id(cell)] = summary["steps"]
        drift = summary["jacobi_drift"]
        acc["max_jacobi_drift"] = max(acc.get("max_jacobi_drift", 0.0), drift)
        if summary["growth_rate"] is None:
            return fail(f"no growth rate: {summary.get('growth_fit_error')}")
        rel = abs(summary["growth_rate"] - cell["linear_rate"]) / cell["linear_rate"]
        acc["max_rate_rel_err"] = max(acc.get("max_rate_rel_err", 0.0), rel)
        if summary["status"] != "completed" or not rel < RATE_REL_TOL or not drift < DRIFT_TOL:
            return fail(f"status {summary['status']}, rate error {rel:.3e}, drift {drift:.3e}")
        return []

    def record(self):
        rates = [c["linear_rate"] for c in self.items]
        steps = sorted(self.steps.values()) or [None]
        return {"cells": len(self.items), "lambda_plus_min": min(rates),
                "lambda_plus_max": max(rates), "steps_min": steps[0],
                "steps_median": steps[len(steps) // 2], "steps_max": steps[-1]}


# ---------------------------------------------------------------------------

class Orbit(Workload):
    """Library ``integrate`` on bounded orbits of the confining potential,
    initial states drawn from the box the tests use."""

    name = "orbit"
    traced_calls = ("dynamics.integrate",)
    PARAMS = model.Params(mu=0.1, k=0.6, a1_oblate=0.02)  # k > n^2/2: orbits stay bounded
    ORBITS = 6
    T_END = 100.0
    JITTER = 0.05  # share of the box by which the seed moves each coordinate

    def make_items(self, tiny):
        self.cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12,
                                             t_end=1.0 if tiny else self.T_END)
        self.steps = {}  # id(state) -> (accepted, rejected), for record()
        # A fixed Latin hypercube over the box (position in [-0.4, 0.4]^3,
        # velocity in [-0.2, 0.2]^3) places the orbits; the seed moves each
        # initial state within 5% of the box around its place.  Step counts
        # differ by tens of percent between orbits, so drawing the states
        # freely would make the work, not the program, differ between seeds.
        count = 3 if tiny else self.ORBITS
        design = np.random.default_rng(0)
        u = (np.array([design.permutation(count) for _ in range(6)]).T + 0.5) / count
        u = np.clip(u + self.rng.uniform(-0.5, 0.5, size=u.shape) * self.JITTER, 0.0, 1.0)
        half = np.array([0.4, 0.4, 0.4, 0.2, 0.2, 0.2])
        return [dynamics.PhaseState.from_vector(half * (2.0 * row - 1.0)) for row in u]

    def warmup(self):
        dynamics.integrate(self.items[0], self.PARAMS,
                           dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, t_end=1.0))

    def call(self, state0):
        return dynamics.integrate(state0, self.PARAMS, self.cfg)

    def digest(self, state0, traj):
        return {"status": traj.status, "steps": traj.steps, "rejections": traj.rejections,
                "drift": float(np.max(np.abs(traj.jacobi - traj.jacobi[0]))),
                "t_final": float(traj.times[-1])}

    def gate(self, state0, rec, acc):
        self.steps[id(state0)] = (rec["steps"], rec["rejections"])
        acc["max_jacobi_drift"] = max(acc.get("max_jacobi_drift", 0.0), rec["drift"])
        if rec["status"] != "completed" or rec["t_final"] != self.cfg.t_end \
                or not rec["drift"] < DRIFT_TOL:
            return [{"inputs": state0.vector().tolist(), "error": f"status {rec['status']} at "
                     f"t={rec['t_final']}, drift {rec['drift']:.3e}", "ops": 1}]
        return []

    def record(self):
        steps = [s for s, _ in self.steps.values()]
        rejections = [r for _, r in self.steps.values()]
        return {"orbits": len(self.items), "t_end": self.cfg.t_end,
                "accepted_steps": sum(steps), "rejected_steps": sum(rejections),
                "steps_min": min(steps, default=None), "steps_max": max(steps, default=None)}


WORKLOADS = {w.name: w for w in (Sweep, Verify, Orbit)}
