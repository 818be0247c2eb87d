"""Command-line front end: locate / stability / integrate / sweep.

Output contracts: CSV has LF line endings and fixed 17-significant-digit float
formatting, so identical runs are byte-identical.  Trajectory and ``sweep``
rows are written with ``%``-templates (``"%.17g" % x`` is
``format(x, ".17g")``); the one row of a ``locate`` or ``stability`` report
joins its ``_fmt`` fields.  ``sweep`` formats each grid-axis value once and
labels a cell ``mu,k,a1`` from the product of the axes' labels; a cell
without a point is its label and ``,false`` with empty fields, and a cell
with one formats only its six computed floats.  No field the CLI writes holds
a comma, quote or line break, so none needs quoting.  JSON is one top-level
object per run with lower_snake_case keys.
Exit codes: 0 success, 2 no equilibrium, 64 usage error, 1 runtime or
integration failure (also a trajectory that starts beyond the escape radius,
and a request too large for memory, such as a ``sweep`` grid numpy cannot
allocate).
One flag table per command builds its parser and reads its config file;
``main`` alone writes what a command returns and maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from .errors import ConvergenceError, NoGrowthError, SingularityError
from .model import Params, grad_omega, hessian_omega
from .equilibria import triangular_points
from .stability import (_closed_form, char_coeffs, char_coeffs_from_hessian, classify,
                        unstable_direction)
from .dynamics import (
    ESCAPE_RADIUS,
    IntegratorConfig,
    equilibrium_state,
    growth_rate,
    integrate,
    unstable_seed,
)

EX_OK = 0
EX_RUNTIME = 1
EX_NO_EQUILIBRIUM = 2
EX_USAGE = 64

TRAJECTORY_COLUMNS = ["t", "x", "y", "z", "vx", "vy", "vz", "jacobi"]
SWEEP_COLUMNS = [
    "mu", "k", "a1", "exists", "x", "z", "p", "q", "r",
    "max_real_part", "classification",
]
_TRAJECTORY_ROW = ",".join(["%.17g"] * len(TRAJECTORY_COLUMNS)) + "\n"
_SWEEP_ROW = "%s,true,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"  # label mu,k,a1 first
_SWEEP_NO_POINT_TAIL = ",false,,,,,,,\n"
_SWEEP_NO_POINT = (None,) * 6 + ("",)  # JSON x ... classification of a cell without a point


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class _NoEquilibrium(Exception):
    """The command needs a triangular point and the parameters admit none."""


class _NothingIntegrated(Exception):
    """The trajectory starts beyond the escape radius, so no step is taken."""


def _fmt(value) -> str:
    """One field of a one-row report: 17 significant digits, lowercase booleans."""
    if type(value) is float:
        return format(value, ".17g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # str or int


def _csv_text(header, lines) -> str:
    """The header and the already formatted, LF-terminated lines."""
    return ",".join(header) + "\n" + "".join(lines)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _report_text(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report)
    return _csv_text(report.keys(), [",".join(map(_fmt, report.values())) + "\n"])


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to stdout if ``path`` is None, else to the file ``path`` in place.

    A report is ASCII (JSON escapes the rest; CSV and SVG hold numbers and
    fixed words), so its bytes are the same in any locale.  An existing file
    is opened without ``O_TRUNC``, written from its start, and cut to the new
    length only if it was longer: on ext4 (``auto_da_alloc``) a truncate to
    zero makes the next close start writeback of the new data, which a call
    that overwrites its report would pay every time; a truncate to a non-zero
    length does not.  If the write fails (a full disk, EIO, an interrupt),
    the file is cut to the bytes that reached it before the error goes on, so
    it holds the written prefix and nothing of an older, longer report, as
    ``open(path, "w")`` left it.  Devices, FIFOs and terminals are only
    written: ``O_TRUNC`` does nothing there and ``ftruncate`` fails.
    """
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        rest = memoryview(data)
        try:
            while rest:
                rest = rest[os.write(fd, rest):]
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):  # the write's error is the one to report
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            raise
        if regular and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# flag types

def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _grid(spec: str) -> np.ndarray:
    """MIN:MAX:N as N evenly spaced values (just MIN when N is 1)."""
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must look like MIN:MAX:N, got {spec!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {count}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range must be ordered (MIN <= MAX), got {spec!r}")
    return np.linspace(lo, hi, count) if count > 1 else np.array([lo])


# ---------------------------------------------------------------------------
# existence-region SVG

def _region_svg(cells: list[tuple[float, float, bool]]) -> str:
    """Standalone SVG scatter of (mu, 2k/n^2) cells over the existence region.

    The admissible region is bounded by the lines 2k/n^2 = 0 (k = 0), mu = 1,
    and 2k/n^2 + mu = 0.
    """
    width, height, margin = 480, 360, 40
    ys = [y for _, y, _ in cells] + [0.0, -1.0]
    y_min = min(ys) - 0.05
    y_max = max(0.05, max(ys) + 0.05)
    x_min, x_max = -0.05, 1.1

    def sx(x):
        return margin + (x - x_min) / (x_max - x_min) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_min) / (y_max - y_min) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        # boundary lines: k = 0, mu = 1, 2k/n^2 + mu = 0
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" y2="{sy(0):.1f}" '
        'stroke="#555" stroke-width="1"/>',
        f'<line x1="{sx(1):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" y2="{sy(-1):.1f}" '
        'stroke="#555" stroke-width="1"/>',
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" y2="{sy(-1):.1f}" '
        'stroke="#555" stroke-width="1"/>',
        f'<text x="{sx(0.45):.1f}" y="{sy(0) - 6:.1f}" font-size="11" fill="#555">k = 0</text>',
        f'<text x="{sx(1) + 4:.1f}" y="{sy(-0.5):.1f}" font-size="11" fill="#555">mu = 1</text>',
        f'<text x="{sx(0.25):.1f}" y="{sy(-0.45):.1f}" font-size="11" fill="#555">'
        "2k/n^2 + mu = 0</text>",
    ]
    for mu, y, exists in cells:
        color = "#2a7d4f" if exists else "#c0392b"
        parts.append(
            f'<circle cx="{sx(mu):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# commands: (ns, params) -> (exit code, [(text, path or None for stdout)])

def _existing_points(params: Params):
    pts = triangular_points(params)
    if not pts.exists:
        raise _NoEquilibrium
    return pts


def _locate(ns, params):
    """triangular points and existence region"""
    pts = triangular_points(params)
    # the -z point is the mirror image, with the same residual bit for bit
    residual = float(np.max(np.abs(grad_omega(pts.point(+1), params)))) if pts.exists else None
    out = {
        "command": "locate",
        "mu": params.mu,
        "k": params.k,
        "a1": params.a1_oblate,
        "n_sq": params.n_sq,
        "k_negative": params.k < 0.0,
        "region_ok": 2.0 * params.k / params.n_sq + params.mu > 0.0,  # exists implies it
        "exists": pts.exists,
        "a1_aux": pts.a1_aux,
        "b1_aux": pts.b1_aux,
        "x": pts.x_eq,
        "z_plus": pts.z_plus,
        "grad_residual_plus": residual,
    }
    code = EX_OK if pts.exists else EX_NO_EQUILIBRIUM
    return code, [(_report_text(out, ns.format), ns.output)]


def _hessian_r_error(hess, k: float, z: float) -> float:
    """Rounding bound of r_hessian = -(Oyy (Oxx Ozz - Oxz^2)) at a triangular point.

    The expression alone is rounded to within 4 eps |Oyy| (|Oxx Ozz| + Oxz^2).
    But the digits of r come from Ozz = -2k - mu/r2^3 + 3 mu z^2/r2^5, and at
    the point its first two terms, 2|k| each, cancel.  So |Ozz| is replaced by
    4|k| + 2|Ozz|: the size of the cancelling terms, plus the last term (about
    Ozz) counted twice for the roundings of mu/r2^3 and 1/r2^2 within it.
    Once 3 mu/r2^5 underflows (|k| below about 1e-185 at mu = 0.1), the last
    term can also be off by a subnormal ulp times z^2.
    """
    eps = sys.float_info.epsilon
    zz_terms = 4.0 * abs(k) + 2.0 * abs(hess.zz)
    return (4.0 * eps * abs(hess.yy) * (abs(hess.xx) * zz_terms + hess.xz * hess.xz)
            + abs(hess.yy * hess.xx) * math.ulp(0.0) * z * z)


def _stability(ns, params):
    """characteristic coefficients, roots and verdict"""
    pts = _existing_points(params)
    closed = _closed_form(pts, params)
    hess = hessian_omega(pts.point(+1), params)
    oracle = char_coeffs_from_hessian(hess, params.n_sq)
    rel_diff = None  # the Hessian route carries no digit of r: no check to report
    if abs(oracle.r) > _hessian_r_error(hess, params.k, pts.z_plus):
        rel_diff = max(abs(c - o) / max(abs(c), abs(o), 1e-300) for c, o in zip(closed, oracle))
    verdict = classify(closed)
    roots = verdict.roots[np.lexsort((verdict.roots.imag, verdict.roots.real))]
    out = {
        "command": "stability",
        "mu": params.mu,
        "k": params.k,
        "a1": params.a1_oblate,
        "n_sq": params.n_sq,
        "p": closed.p,
        "q": closed.q,
        "r": closed.r,
        "p_hessian": oracle.p,
        "q_hessian": oracle.q,
        "r_hessian": oracle.r,
        "coeff_rel_diff": rel_diff,
    }
    for i, root in enumerate(roots, 1):
        out[f"root{i}_re"] = float(root.real)
        out[f"root{i}_im"] = float(root.imag)
    out["sign_changes"] = verdict.sign_changes
    out["max_real_part"] = verdict.max_real_part
    out["positive_real_root_count"] = verdict.positive_real_root_count
    out["classification"] = verdict.classification.value
    return EX_OK, [(_report_text(out, ns.format), ns.output)]


def _integrate(ns, params):
    """nonlinear trajectory from the triangular point"""
    _existing_points(params)
    if ns.offset is None:
        state0, linear_rate = equilibrium_state(params), None
    else:
        state0, linear_rate = unstable_seed(params, ns.offset), unstable_direction(params)[0]
    traj = integrate(state0, params, IntegratorConfig(rel_tol=ns.tol, abs_tol=ns.tol,
                                                      t_end=ns.t_end))
    if traj.status == "escape" and traj.steps == 0:
        raise _NothingIntegrated(
            "the start lies beyond the escape radius (|pos| = "
            f"{math.hypot(*state0.pos.tolist()):.3g} > {ESCAPE_RADIUS:g}), so no step was taken")
    summary = {
        "command": "integrate",
        "mu": params.mu,
        "k": params.k,
        "a1": params.a1_oblate,
        "t_end": ns.t_end,
        "offset": ns.offset,
        "rows": len(traj),
        "steps": traj.steps,
        "rejections": traj.rejections,
        "status": traj.status,
        "jacobi_initial": float(traj.jacobi[0]),
        "jacobi_drift": abs(traj.jacobi - traj.jacobi[0]).max().item(),
        "linear_rate": linear_rate,
        "growth_rate": None,
        "trajectory_file": ns.output,
    }
    if ns.offset is not None:
        try:
            summary["growth_rate"] = growth_rate(traj, equilibrium_state(params).pos)
        except NoGrowthError as exc:
            summary["growth_fit_error"] = str(exc)
    rows = zip(traj.times.tolist(), *traj.states.T.tolist(), traj.jacobi.tolist())
    text = _csv_text(TRAJECTORY_COLUMNS, map(_TRAJECTORY_ROW.__mod__, rows))
    return EX_OK, [(text, ns.output), (_json_text(summary), None)]


def _sweep(ns, _):
    """stability map over a parameter grid"""
    axes = (ns.grid_mu, ns.grid_k, np.array([ns.a1]) if ns.grid_a1 is None else ns.grid_a1)
    mu, k, a1 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    params = Params(mu=mu, k=k, a1_oblate=a1)
    pts = triangular_points(params)
    ok = pts.exists
    coeffs = char_coeffs(Params(mu=mu[ok], k=k[ok], a1_oblate=a1[ok]))
    verdict = classify(coeffs)
    point = [v.tolist() for v in (pts.x_eq[ok], pts.z_plus[ok], *coeffs,
                                  verdict.max_real_part, verdict.classification)]
    exists = ok.tolist()
    if ns.format == "json":
        found = zip(*point)
        rows = [dict(zip(SWEEP_COLUMNS, (*cell, e, *(next(found) if e else _SWEEP_NO_POINT))))
                for cell, e in zip(zip(mu.tolist(), k.tolist(), a1.tolist()), exists)]
        text = _json_text({"command": "sweep", "rows": rows})
    else:
        # each grid value is formatted once; the product of the axes' labels
        # runs in the cells' meshgrid(indexing="ij").ravel() order
        labels = list(map(",".join, itertools.product(
            *(["%.17g" % v for v in axis.tolist()] for axis in axes))))
        found = map(_SWEEP_ROW.__mod__, zip(itertools.compress(labels, exists), *point))
        text = _csv_text(SWEEP_COLUMNS, [next(found) if e else label + _SWEEP_NO_POINT_TAIL
                                         for label, e in zip(labels, exists)])
    outputs = [(text, ns.output)]
    if ns.svg_region is not None:
        cells = list(zip(mu.tolist(), (2 * k / params.n_sq).tolist(), exists))
        outputs.append((_region_svg(cells), ns.svg_region))
    return EX_OK, outputs


# ---------------------------------------------------------------------------
# flag tables: dest -> add_argument keywords, one table per command

_POINT = {
    "mu": {"type": float, "required": True, "help": "mass ratio in (0, 1)"},
    "k": {"type": float, "required": True, "help": "buoyancy parameter"},
}
_A1 = {"type": float, "default": 0.0, "help": "oblateness coefficient A1 (default 0)"}
_OUTPUT = {"help": "report file (default stdout)"}


def _format(default: str) -> dict:
    return {"choices": ("csv", "json"), "default": default,
            "help": "report format (default %(default)s)"}


_COMMANDS = {
    "locate": (_locate, {
        **_POINT, "a1": _A1, "format": _format("json"), "output": _OUTPUT,
    }),
    "stability": (_stability, {
        **_POINT, "a1": _A1, "format": _format("json"), "output": _OUTPUT,
    }),
    "integrate": (_integrate, {
        **_POINT, "a1": _A1,
        "from_equilibrium": {"action": "store_true", "required": True,
                             "help": "start at the triangular point (+z branch)"},
        "offset": {"type": _positive,
                   "help": "displacement along the unstable eigendirection"},
        "t_end": {"type": _positive, "default": 60.0,
                  "help": "integration span (default %(default)g)"},
        "tol": {"type": _positive, "default": IntegratorConfig.rel_tol,
                "help": "relative and absolute integration tolerance (default %(default)g)"},
        "output": {"default": "trajectory.csv", "help": "trajectory CSV (default %(default)s)"},
    }),
    "sweep": (_sweep, {
        "grid_mu": {"type": _grid, "required": True, "help": "MIN:MAX:N"},
        "grid_k": {"type": _grid, "required": True, "help": "MIN:MAX:N"},
        "grid_a1": {"type": _grid, "help": "MIN:MAX:N (default: the single --a1 value)"},
        "a1": _A1, "format": _format("csv"), "output": _OUTPUT,
        "svg_region": {"help": "also write an existence-region SVG scatter to this path"},
    }),
}

_CONFIG_KEYS = {dest for _, flags in _COMMANDS.values() for dest in flags}
_VALUE_FLAGS = {"--" + dest.replace("_", "-") for _, flags in _COMMANDS.values()
                for dest, spec in flags.items() if "action" not in spec}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Merge '--k -1e-5' into '--k=-1e-5' for every flag that takes a value.

    argparse reads '-1e-5', '-inf' or '-0.3:-0.001:10' as an option, not a value.
    A token of '-' then a digit, '.', or 'inf', 'infinity' or 'nan' in any case
    is joined; '-' alone or another '-name' is not.
    """
    out = []
    for tok in argv:
        negative = len(tok) > 1 and tok[0] == "-" and (
            tok[1] in "0123456789." or tok[1:].lower() in ("inf", "infinity", "nan"))
        if negative and out and out[-1] in _VALUE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def _build_parser() -> _Parser:
    """The two-level parser; ``commands`` maps each command to its own parser."""
    parser = _Parser(prog="robe3bp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (command, flags) in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=command.__doc__)
        for dest, spec in flags.items():
            p.add_argument("--" + dest.replace("_", "-"), **spec)
        p.add_argument("--config", help="key=value file of flags; command-line flags win")
    return parser


def _config_tokens(path: str, flags: dict) -> list[str]:
    """The config file's ``key = value`` lines as ``--key=value`` tokens.

    Keys of another command's flags are skipped; a key no command takes is an
    error.  A switch is set by a true value (1, true, yes, on).
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    tokens = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if dest not in flags:
            continue  # key applies to another command
        flag = "--" + dest.replace("_", "-")
        if flags[dest].get("action") != "store_true":
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return tokens


@functools.cache
def _build_config_parser(command: str) -> _Parser:
    """The parser that finds a command's --config path before the full parse."""
    pre = _Parser(prog=f"robe3bp {command}", add_help=False)
    pre.add_argument("--config")
    return pre


def _may_name_config(tok: str) -> bool:
    """Whether argparse can read ``tok`` as --config: the flag or an abbreviation
    of it, alone or with ``=value``."""
    flag = tok.split("=", 1)[0]
    return len(flag) > 2 and "--config".startswith(flag)


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse the command line with the --config file's flags ahead of it.

    A line that starts with a command is parsed by that command's parser
    alone, as the two-level parser would hand it on, and what that parser
    leaves over is reported by the top-level parser, as ``parse_args`` does.
    Help, no arguments, an unknown command or an option before the command
    take the two-level parse.
    """
    parser = _build_parser()
    if not argv or argv[0] not in _COMMANDS:
        return parser.parse_args(argv)
    command, args = argv[0], argv[1:]
    if any(map(_may_name_config, args)):
        path = _build_config_parser(command).parse_known_args(args)[0].config
        if path:
            args = [*_config_tokens(path, _COMMANDS[command][1]), *args]
    ns = argparse.Namespace(command=command)
    extras = parser.commands[command].parse_known_args(args, ns)[1]
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return ns


def main(argv=None) -> int:
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        ns = _parse(argv)
        params = Params(mu=ns.mu, k=ns.k, a1_oblate=ns.a1) if hasattr(ns, "mu") else None
        code, outputs = _COMMANDS[ns.command][0](ns, params)
        for text, path in outputs:
            _emit(text, path)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except _NoEquilibrium:
        print("robe3bp: no triangular equilibrium for these parameters", file=sys.stderr)
        return EX_NO_EQUILIBRIUM
    except (ConvergenceError, SingularityError, _NothingIntegrated) as exc:
        message, code = str(exc), EX_RUNTIME
    except ValueError as exc:
        message, code = str(exc), EX_USAGE
    except OSError as exc:
        message, code = f"i/o failure: {exc}", EX_RUNTIME
    except MemoryError as exc:
        message, code = f"out of memory: {exc}" if str(exc) else "out of memory", EX_RUNTIME
    print(f"robe3bp: error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
