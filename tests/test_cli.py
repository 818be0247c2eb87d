import contextlib
import csv
import errno
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from robe3bp import Classification, Params, char_coeffs, classify, triangular_points
from robe3bp import cli, equilibria, stability
from robe3bp.cli import main
from conftest import FROZEN, acceptance_grid, any_cell, fold_k

CANONICAL_ARGS = ["--mu", "0.1", "--k", "-0.01", "--a1", "0.02"]


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_locate_canonical_json(capsys):
    code, rep = _run_json(capsys, ["locate", *CANONICAL_ARGS])
    assert code == 0
    assert rep["exists"] is True
    npt.assert_allclose(rep["x"], -0.0194175, atol=1e-7)
    npt.assert_allclose(rep["z_plus"], 1.4417660, atol=1e-7)
    assert rep["grad_residual_plus"] < 1e-12


def test_locate_no_equilibrium_exit_2(capsys):
    code, rep = _run_json(capsys, ["locate", "--mu", "0.1", "--k", "0.01", "--a1", "0"])
    assert code == 2
    assert rep["exists"] is False


def test_missing_required_flag_exits_64(capsys):
    code = main(["locate", "--k", "-0.01"])
    assert code == 64
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_64(capsys):
    code = main(["locate", *CANONICAL_ARGS, "--bogus", "1"])
    assert code == 64
    assert "usage" in capsys.readouterr().err


def test_invalid_mu_exits_64(capsys):
    code = main(["locate", "--mu", "1.5", "--k", "-0.01"])
    assert code == 64


def test_locate_csv_matches_json(tmp_path, capsys):
    code, rep = _run_json(capsys, ["locate", *CANONICAL_ARGS])
    assert code == 0
    out = tmp_path / "locate.csv"
    assert main(["locate", *CANONICAL_ARGS, "--format", "csv",
                 "--output", str(out)]) == 0
    header, row = _read_csv(out)
    assert header == list(rep.keys())
    for key, field in zip(header, row):
        value = rep[key]
        if isinstance(value, bool):
            assert field == ("true" if value else "false")
        elif isinstance(value, float):
            npt.assert_allclose(float(field), value, rtol=1e-15)
        else:
            assert field == str(value)


def test_stability_canonical(capsys):
    code, rep = _run_json(capsys, ["stability", *CANONICAL_ARGS])
    assert code == 0
    npt.assert_allclose(rep["p"], 2.0, atol=1e-9)
    npt.assert_allclose(rep["q"], FROZEN["q"], atol=1e-5)
    npt.assert_allclose(rep["r"], FROZEN["r"], atol=1e-5)
    assert rep["coeff_rel_diff"] < 1e-12
    assert rep["sign_changes"] == 1
    assert rep["classification"] == "unstable"
    assert rep["positive_real_root_count"] == 1
    npt.assert_allclose(rep["max_real_part"], FROZEN["lambda_plus"], rtol=1e-9)
    roots = [complex(rep[f"root{i}_re"], rep[f"root{i}_im"]) for i in range(1, 7)]
    assert sum(abs(z.imag) < 1e-9 and z.real > 0 for z in roots) == 1


def test_stability_finds_the_point_once(monkeypatch, capsys):
    # the coefficients come from the point the command has already found
    calls = []
    counted = lambda params: calls.append(params) or equilibria.triangular_points(params)
    monkeypatch.setattr(cli, "triangular_points", counted)
    monkeypatch.setattr(stability, "triangular_points", counted)
    assert main(["stability", *CANONICAL_ARGS]) == 0
    assert len(calls) == 1


def test_stability_no_equilibrium_exit_2(capsys):
    assert main(["stability", "--mu", "0.1", "--k", "0.01"]) == 2
    assert "no triangular equilibrium" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["-1e-300", "-1e-20"])
def test_verdict_follows_sign_certificate_at_tiny_k(k, tmp_path, capsys):
    # the positive root (~1e-150, ~1e-10) is below any fixed tolerance, but r < 0
    # certifies it, in the library as in both commands
    code, rep = _run_json(capsys, ["stability", "--mu", "0.1", f"--k={k}"])
    assert code == 0
    assert rep["r"] < 0 and rep["sign_changes"] == 1
    assert rep["max_real_part"] < 1e-9
    assert rep["classification"] == "unstable"
    assert rep["positive_real_root_count"] >= 1
    out = tmp_path / "cell.csv"
    assert main(["sweep", "--grid-mu", "0.1:0.1:1", f"--grid-k={k}:{k}:1",
                 "--output", str(out)]) == 0
    header, row = _read_csv(out)
    assert dict(zip(header, row))["classification"] == "unstable"
    verdict = classify(char_coeffs(Params(mu=0.1, k=float(k))))
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.sign_changes == 1 and verdict.max_real_part == rep["max_real_part"]


@pytest.mark.parametrize("mu, k", [
    ("0.1", "-1e-300"),  # mu/r2^5 underflows: r_hessian is positive
    ("0.1", "-1e-200"),  # r_hessian is a normal float of the wrong sign
    ("0.1", repr(fold_k(0.1, 0.0))),  # first cell inside the fold: r is rounding noise
])
def test_hessian_check_inconclusive(mu, k, tmp_path, capsys):
    code, rep = _run_json(capsys, ["stability", "--mu", mu, f"--k={k}"])
    assert code == 0 and rep["r"] < 0
    assert rep["coeff_rel_diff"] is None
    out = tmp_path / "stab.csv"
    assert main(["stability", "--mu", mu, f"--k={k}", "--format", "csv",
                 "--output", str(out)]) == 0
    header, row = _read_csv(out)
    assert dict(zip(header, row))["coeff_rel_diff"] == ""


@pytest.mark.parametrize("argv", [CANONICAL_ARGS, ["--mu", "0.1", "--k=-1e-20"]])
def test_hessian_check_reported(argv, capsys):
    code, rep = _run_json(capsys, ["stability", *argv])
    assert code == 0
    pairs = [(rep[c], rep[f"{c}_hessian"]) for c in "pqr"]
    assert rep["coeff_rel_diff"] == max(abs(c - o) / max(abs(c), abs(o), 1e-300)
                                        for c, o in pairs)
    assert rep["coeff_rel_diff"] < 1e-12


def test_stability_csv_matches_json(tmp_path, capsys):
    code, rep = _run_json(capsys, ["stability", *CANONICAL_ARGS])
    out = tmp_path / "stab.csv"
    assert main(["stability", *CANONICAL_ARGS, "--format", "csv",
                 "--output", str(out)]) == 0
    header, row = _read_csv(out)
    assert header == list(rep.keys())
    for key, field in zip(header, row):
        value = rep[key]
        if isinstance(value, float):
            npt.assert_allclose(float(field), value, rtol=1e-15, atol=1e-300)
        elif isinstance(value, bool):
            assert field == ("true" if value else "false")
        else:
            assert field == str(value)


def test_integrate_growth_summary(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    code, summary = _run_json(capsys, [
        "integrate", *CANONICAL_ARGS, "--from-equilibrium",
        "--offset", "1e-8", "--t-end", "60", "--output", str(traj_path),
    ])
    assert code == 0
    assert summary["status"] == "completed"
    assert abs(summary["growth_rate"] - FROZEN["lambda_plus"]) < 0.05 * FROZEN["lambda_plus"]
    assert summary["jacobi_drift"] < 1e-9
    rows = _read_csv(traj_path)
    assert rows[0] == ["t", "x", "y", "z", "vx", "vy", "vz", "jacobi"]
    assert len(rows) - 1 == summary["rows"] == summary["steps"] + 1


@pytest.mark.parametrize("offset", [
    ["--offset", "1e-8"],
    [],
    ["--a1", "1", "--offset", "1e-8"],
])
def test_integrate_starting_beyond_escape_radius_exits_1(offset, tmp_path, capsys):
    # at k = -1e-20 the point lies at |pos| = 1.7e6, beyond ESCAPE_RADIUS = 1e3
    out = tmp_path / "t.csv"
    code = main(["integrate", "--mu", "0.1", "--k=-1e-20", "--from-equilibrium", *offset,
                 "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("robe3bp: error:")
    assert "|pos| = 1.71e+06 > 1000" in captured.err


@pytest.mark.filterwarnings("error")  # a numpy warning would reach the user's stderr
def test_integrate_escape_error_reports_a_finite_radius(tmp_path, capsys):
    # an offset of 1e300 puts the start far past ESCAPE_RADIUS, where the sum
    # of squares of the position overflows
    code = main(["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium",
                 "--offset", "1e300", "--t-end", "0.5", "--output", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    radius = float(err.split("|pos| = ")[1].split()[0])
    assert 1e299 < radius < math.inf


def test_integrate_linear_rate_is_stabilitys_max_real_part(tmp_path, capsys):
    for mu, k, a1 in acceptance_grid():
        if not triangular_points(Params(mu=mu, k=k, a1_oblate=a1)).exists:
            continue
        cell = ["--mu", repr(mu), f"--k={k!r}", "--a1", repr(a1)]
        assert main(["stability", *cell, "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert main(["integrate", *cell, "--from-equilibrium", "--offset", "1e-8",
                     "--t-end", "1", "--output", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["linear_rate"] == verdict["max_real_part"], cell


@pytest.mark.parametrize("argv", [
    ["--a1", "0.02", "--tol", "1e-300"],  # an error term too large to square
    ["--a1", "1e100"],  # the gradient overflows at the first stage
])
@pytest.mark.filterwarnings("error")  # a numpy warning would reach the user's stderr
def test_integrate_overflow_ends_in_step_size_underflow(argv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["integrate", "--mu", "0.1", "--k=-0.01", *argv, "--from-equilibrium",
                 "--offset", "1e-8", "--t-end", "5", "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("robe3bp: error: step size underflow at t=0")
    if "--tol" in argv:  # steps were tried, and none met the tolerance
        assert "the error estimate stayed above the tolerance" in captured.err


def test_step_size_underflow_before_the_first_try_names_the_starting_step(tmp_path, capsys):
    # at A1 = 1e100 the start rule's step from the seed, 4.838e-43, is already
    # below the step floor: no step is tried, so no error estimate is formed
    out = tmp_path / "t.csv"
    code = main(["integrate", "--mu", "0.1", "--k=-0.01", "--a1", "1e100", "--from-equilibrium",
                 "--offset", "1e-8", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("robe3bp: error: step size underflow at t=0 (h=4.838e-43); no step was "
                   "tried: the starting step is already below the smallest step, "
                   "1e-14 * max(1, t)\n")


def test_step_size_underflow_names_the_error_estimate(tmp_path, capsys):
    # at A1 = 1e30 the frame turns at n ~ 1.2e15, far from the second primary
    # (r2 = b1 ~ 1.71), so every try fails the tolerance down to the step
    # floor; along lambda+ = 0.208 the seed takes a few steps before that
    out = tmp_path / "t.csv"
    code = main(["integrate", "--mu", "0.1", "--k=-0.01", "--a1", "1e30", "--from-equilibrium",
                 "--offset", "1e-8", "--t-end", "5", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("robe3bp: error: step size underflow at t=3.46828e-14 ")
    assert "error estimate stayed above the tolerance" in err and "singularity" not in err


def test_integrate_rejects_zero_t_end(capsys):
    code = main(["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--t-end", "0"])
    assert code == 64


def test_integrate_requires_from_equilibrium(capsys):
    assert main(["integrate", *CANONICAL_ARGS, "--t-end", "10"]) == 64


def test_integrate_no_equilibrium_exit_2(tmp_path, capsys):
    code = main(["integrate", "--mu", "0.1", "--k", "0.01", "--from-equilibrium",
                 "--output", str(tmp_path / "t.csv")])
    assert code == 2


def test_sweep_contract(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code = main([
        "sweep", "--grid-mu", "0.05:0.5:10", "--grid-k=-0.3:-0.001:10",
        "--grid-a1", "0:0.1:2", "--output", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    header, data = rows[0], rows[1:]
    assert header == ["mu", "k", "a1", "exists", "x", "z", "p", "q", "r",
                      "max_real_part", "classification"]
    assert len(data) == 10 * 10 * 2
    for row in data:
        if row[3] == "true":
            assert row[10] == "unstable"
        else:
            assert row[4] == "" and row[10] == ""


def test_sweep_grid_flag_without_equals(tmp_path, capsys):
    out = tmp_path / "map.csv"
    code = main(["sweep", "--grid-mu", "0.1:0.1:1", "--grid-k", "-0.01:-0.01:1",
                 "--output", str(out)])
    assert code == 0
    assert len(_read_csv(out)) == 2
    assert main(["sweep", "--grid-mu", "0.1:0.1:1", "--grid-k", "-1e-3:-1e-4:2",
                 "--output", str(out)]) == 0
    assert [row[1] for row in _read_csv(out)[1:]] == ["-0.001", "-0.0001"]


@pytest.mark.parametrize("command", ["locate", "stability"])
def test_negative_value_in_any_spelling(command, capsys):
    # argparse alone takes '-0.00001' as a value but reads '-1e-5' or '-inf' as an option
    def report(*spellings):
        reports = []
        for k in spellings:
            code = main([command, "--mu", "0.1", *k, "--format", "csv"])
            reports.append((code, *capsys.readouterr()))
        assert all(r == reports[0] for r in reports)
        return reports[0]

    code, out, err = report(["--k", "-1e-5"], ["--k", "-0.00001"], ["--k=-1e-5"])
    assert code == 0 and out != "" and err == ""
    for value in ("-inf", "-nan", "-Infinity", "-NaN", "-INF"):
        # refused for being non-finite, not for a missing value
        code, out, err = report(["--k", value], [f"--k={value}"])
        assert code == 64 and out == "" and "must be finite" in err


def test_sweep_single_cell_matches_stability(tmp_path, capsys):
    code, rep = _run_json(capsys, ["stability", *CANONICAL_ARGS])
    out = tmp_path / "one.csv"
    assert main(["sweep", "--grid-mu", "0.1:0.1:1", "--grid-k", "-0.01:-0.01:1",
                 "--grid-a1", "0.02:0.02:1", "--output", str(out)]) == 0
    header, row = _read_csv(out)
    cell = dict(zip(header, row))
    for key in ("p", "q", "r", "max_real_part"):
        npt.assert_allclose(float(cell[key]), rep[key], rtol=1e-15)
    assert cell["classification"] == rep["classification"]


def test_sweep_row_count_is_grid_product(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--grid-mu", "0.1:0.4:3", "--grid-k=-0.05:-0.01:4",
                 "--grid-a1", "0:0.2:2", "--output", str(out)]) == 0
    assert len(_read_csv(out)) - 1 == 3 * 4 * 2


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--grid-mu", "0.05:0.5:5", "--grid-k=-0.2:-0.001:5"]
    assert main([*argv, "--output", str(a)]) == 0
    assert main([*argv, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()  # LF line endings


def test_sweep_json_matches_csv(tmp_path, capsys):
    argv = ["sweep", "--grid-mu", "0.1:0.3:2", "--grid-k=-0.05:-0.01:2"]
    out_csv = tmp_path / "s.csv"
    assert main([*argv, "--output", str(out_csv)]) == 0
    code, payload = _run_json(capsys, [*argv, "--format", "json"])
    assert code == 0
    header, *data = _read_csv(out_csv)
    assert len(payload["rows"]) == len(data)
    for obj, row in zip(payload["rows"], data):
        for key, field in zip(header, row):
            value = obj[key]
            if value is None:
                assert field == ""
            elif isinstance(value, bool):
                assert field == ("true" if value else "false")
            elif isinstance(value, float):
                assert float(field) == value  # %.17g round-trips every double
            else:
                assert field == str(value)


def test_sweep_requires_grids(capsys):
    assert main(["sweep", "--grid-mu", "0.1:0.2:2"]) == 64


def test_sweep_rejects_unordered_grid(capsys):
    # and the other grid specs that argparse refuses
    for spec, message in [("0.5:0.1:3", "range must be ordered"),
                          ("0.1:0.2", "must look like MIN:MAX:N"),
                          ("0.1:0.2:0", "count must be >= 1")]:
        assert main(["sweep", "--grid-mu", spec, "--grid-k=-0.05:-0.01:2"]) == 64
        assert f"argument --grid-mu: {message}" in capsys.readouterr().err


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.1\nk = -0.5\na1 = 0.02\n# comment\n")
    code, rep = _run_json(capsys, ["locate", "--config", str(cfg), "--k", "-0.01"])
    assert code == 0
    assert rep["k"] == -0.01 and rep["mu"] == 0.1 and rep["a1"] == 0.02


def test_config_file_unknown_key(tmp_path, capsys):
    # and a line that is no key=value at all
    cfg = tmp_path / "run.cfg"
    for text, message in [("nope = 1\n", "unknown key 'nope'"),
                          ("mu 0.1\n", "expected key=value")]:
        cfg.write_text(text)
        assert main(["locate", "--config", str(cfg), *CANONICAL_ARGS]) == 64
        assert f"{cfg}:1: {message}" in capsys.readouterr().err


def test_config_file_missing(capsys):
    assert main(["locate", "--config", "/does/not/exist", *CANONICAL_ARGS]) == 64


@pytest.mark.parametrize("spelling", [["--config", ""], ["--config="], ["--conf", ""]])
def test_empty_config_path_is_a_missing_file(spelling, capsys):
    # an empty path names no file: it fails as a missing file does, and is not
    # read as a line without --config
    assert main(["locate", *spelling, "--mu", "0.1", "--k", "-0.01"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("robe3bp: error: cannot read config file: ")


def test_unwritable_output_exits_1(capsys):
    code = main(["locate", *CANONICAL_ARGS, "--output", "/no/such/dir/out.json"])
    assert code == 1
    assert "robe3bp: error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium", "--t-end", "0.1",
     "--output", ""],
    ["integrate", "--config", "{tmp}/empty_output.cfg"],
    ["locate", *CANONICAL_ARGS, "--output="],
    ["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.02:-0.01:2", "--output", "{tmp}/m.csv",
     "--svg-region", ""],
])
def test_empty_output_path_is_an_io_failure(argv, tmp_path, capsys):
    # an empty path is not stdout: it fails to open as any path that cannot be
    # opened fails, and no report (integrate's JSON summary included) is printed
    (tmp_path / "empty_output.cfg").write_text(
        "output =\nmu = 0.1\nk = -0.01\nfrom_equilibrium = true\nt_end = 0.1\n")
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("robe3bp: error: i/o failure: ")


# --------------------------------------------------------------------------
# --output rewrites an existing file in place

_SWEEP_5X5 = ["sweep", "--grid-mu", "0.05:0.5:5", "--grid-k=-0.2:-0.001:5"]
_SWEEP_2X2 = ["sweep", "--grid-mu", "0.05:0.5:2", "--grid-k=-0.2:-0.001:2"]
_LOCATE = ["locate", *CANONICAL_ARGS]


def _written(argv, path):
    """The bytes ``main`` writes to ``path`` for ``argv``."""
    assert main([*argv, "--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("before, after", [
    (_SWEEP_5X5, _SWEEP_2X2),  # shorter over longer: the file is cut
    (_SWEEP_5X5, _LOCATE),
    (_SWEEP_2X2, _SWEEP_5X5),  # longer over shorter: the file grows
])
def test_rewritten_report_is_the_fresh_report(before, after, tmp_path, capsys):
    same, link = tmp_path / "same", tmp_path / "link"
    _written(before, same)
    os.link(same, link)
    inode = same.stat().st_ino
    assert _written(after, same) == _written(after, tmp_path / "fresh")
    # the same inode is rewritten, so a hard link sees the new report
    assert same.stat().st_ino == inode
    assert link.read_bytes() == same.read_bytes()


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks here")
def test_rewrite_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    target, alias = tmp_path / "target", tmp_path / "alias"
    _written(_SWEEP_5X5, target)
    alias.symlink_to(target)
    assert _written(_LOCATE, alias) == _written(_LOCATE, tmp_path / "fresh")
    assert alias.is_symlink() and target.read_bytes() == alias.read_bytes()


@pytest.mark.parametrize("prefix", [0, 10])
def test_failed_write_leaves_only_the_written_prefix(prefix, tmp_path, monkeypatch, capsys):
    report = _written(_LOCATE, tmp_path / "fresh")
    out = tmp_path / "out"
    assert len(_written(_SWEEP_5X5, out)) > len(report)
    capsys.readouterr()
    real_write, calls = os.write, []

    def write_then_fail(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:prefix])

    monkeypatch.setattr(os, "write", write_then_fail)
    code = main([*_LOCATE, "--output", str(out)])
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("robe3bp: error: i/o failure: ")
    # what open(path, "w") left: the prefix, and nothing of the older report
    assert out.read_bytes() == report[:prefix]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_fifo_output_gets_the_whole_report(tmp_path, capsys):
    # more than a pipe's 64 KiB buffer, so the writer waits on the reader
    argv = ["sweep", "--grid-mu", "0.05:0.5:20", "--grid-k=-0.3:-0.001:20", "--grid-a1=0:0.1:2"]
    report = _written(argv, tmp_path / "fresh")
    assert len(report) > 1 << 16
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, "--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert got == [report]
    assert capsys.readouterr().err == ""


def test_devnull_output_is_written_only(capsys):
    assert main([*_LOCATE, "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_new_file_mode_is_that_of_open_w(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        _written(_LOCATE, tmp_path / "by_main")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("by_open", "by_main")}
    assert len(modes) == 1


def test_unallocatable_sweep_grid_exits_1(capsys):
    # 1e14 grid values are 728 TiB of float64, more than any address space
    # holds, so numpy refuses the array at once
    code = main(["sweep", "--grid-mu", "0.1:0.2:100000000000000", "--grid-k=-0.01:-0.01:1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("robe3bp: error: out of memory: ")


def test_svg_region_output(tmp_path, capsys):
    svg = tmp_path / "region.svg"
    assert main(["sweep", "--grid-mu", "0.05:0.5:5", "--grid-k=-0.2:-0.001:5",
                 "--output", str(tmp_path / "m.csv"), "--svg-region", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "circle" in text and "2k/n^2 + mu = 0" in text


@pytest.mark.parametrize("argv, message", [
    (["locate", "--mu", "0.1", "--k", "nan"], "k must be finite"),
    (["locate", "--mu", "0.1", "--k", "-0.01", "--a1", "nan"], "must be finite"),
    (["locate", "--mu", "0.1", "--k", "-0.01", "--a1", "inf"], "must be finite"),
    # b1 = (-mu/2k)^(1/3) overflows, which only a negative subnormal k reaches
    pytest.param(["locate", "--mu", "0.1", "--k=-1e-320"], "k=-1e-320 is a negative subnormal",
                 id="argv3-overflows"),
    pytest.param(["stability", "--mu", "0.1", "--k=-1e-320"], "k=-1e-320 is a negative subnormal",
                 id="argv4-overflows"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.3:nan:2"], "k must be finite"),
    pytest.param(["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.01:-1e-320:2"],
                 "k=-1e-320 is a negative subnormal", id="argv6-overflows"),
    (["locate", "--mu", "0.1", "--k=-2e-309"], "k=-2e-309 is a negative subnormal"),
    (["stability", "--mu", "0.1", "--k=-2e-309"], "k=-2e-309 is a negative subnormal"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-2e-309:-2e-309:1"], "subnormal"),
    (["locate", "--mu", "0.1", "--k=-1e308"], "a1 = 2k/n^2 + mu - 1 overflows for k=-1e+308"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-1e308:-0.01:2"], "a1 = 2k/n^2"),
    (["locate", "--mu", "0.1", "--k=-0.01", "--a1", "1.7e308"], "n^6 overflows"),
    (["stability", "--mu", "0.1", "--k=-0.01", "--a1", "1e200"], "n^6 overflows"),
    (["stability", "--mu", "0.1", "--k=-0.01", "--a1", "1e150"], "n^6 overflows"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.01:-0.01:1", "--grid-a1",
      "1e200:1e200:1"], "n^6 overflows"),
    (["sweep", "--grid-mu", "0:inf:2", "--grid-k=-0.1:-0.01:2"],
     "argument --grid-mu: MIN, MAX and MAX - MIN must be finite, got '0:inf:2'"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-inf:-0.01:2"],
     "argument --grid-k: MIN, MAX and MAX - MIN must be finite, got '-inf:-0.01:2'"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-1e308:1e308:3"],
     "argument --grid-k: MIN, MAX and MAX - MIN must be finite, got '-1e308:1e308:3'"),
    (["locate", "--mu", "0.9", "--k=-2.5e-309"], "k=-2.5e-309 is a negative subnormal"),
    (["stability", "--mu", "0.5", "--k=-5e-324"], "k=-5e-324 is a negative subnormal"),
    (["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-5e-324:-5e-324:1"],
     "k=-5e-324 is a negative subnormal"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would reach the user's stderr
def test_non_finite_inputs_exit_64(argv, message, capsys):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    if message.startswith("argument "):  # a grid spec argparse refuses, after its usage
        assert captured.err.startswith(f"usage: robe3bp {argv[0]} ")
        assert captured.err.endswith(f"\nrobe3bp {argv[0]}: error: {message}\n")
    else:
        assert captured.err.startswith("robe3bp: error:") and message in captured.err


@pytest.mark.parametrize("argv", [
    ["locate", *CANONICAL_ARGS, "--tol", "1e-9"],
    ["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--format", "json"],
    ["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.05:-0.01:2", "--mu", "0.1"],
    ["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.05:-0.01:2", "--k", "-0.01"],
    ["locate", *CANONICAL_ARGS, "--svg-region", "region.svg"],
    ["stability", *CANONICAL_ARGS, "--svg-region", "region.svg"],
    ["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--svg-region", "region.svg"],
    ["sweep", "--grid-mu", "0.1:0.2:2", "--grid-k=-0.05:-0.01:2", "--tol", "1e-9"],
    ["stability", *CANONICAL_ARGS, "--tol", "1e-9"],
])
def test_flag_without_meaning_for_command_exits_64(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", "out"]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, text", [
    ("integrate", "mu = 0.1\nk = -0.01\nfrom_equilibrium = true\ntol = 0\n"),
    ("locate", "mu = abc\nk = -0.01\n"),
])
def test_config_values_are_validated_like_flags(command, text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_config_key_of_another_command_is_skipped(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_mu = 0.1:0.2:2\nt_end = 5\ntol = 0\nmu = 0.1\nk = -0.01\n")
    code, rep = _run_json(capsys, ["locate", "--config", str(cfg)])
    assert code == 0
    assert rep["mu"] == 0.1 and rep["k"] == -0.01 and rep["a1"] == 0.0


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--conf", "{}"], ["--co={}"]])
def test_config_flag_and_its_abbreviations_read_the_file(spelling, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 0.1\nk = -0.01\na1 = 0.02\n")
    assert main(["stability", *CANONICAL_ARGS, "--format", "csv"]) == 0
    expected = capsys.readouterr().out
    assert main(["stability", *(t.format(cfg) for t in spelling), "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("tok, names", [
    ("--config", True), ("--config=f", True), ("--c", True), ("--co=f", True),
    ("--", False), ("--=f", False), ("-c", False), ("--configs", False), ("--k", False),
    ("f", False),
])
def test_may_name_config(tok, names):
    assert cli._may_name_config(tok) is names


def test_command_line_without_config_builds_no_config_parser(monkeypatch, capsys):
    def refuse(command):
        raise AssertionError("the --config pre-parser was built")

    monkeypatch.setattr(cli, "_build_config_parser", refuse)
    code, rep = _run_json(capsys, ["locate", *CANONICAL_ARGS])
    assert code == 0 and rep["exists"] is True


def _two_level_parse(argv):
    """The config file's flags ahead of the line, then the two-level parser on
    all of it, and a flag that argparse hands no value (``--flag=--``) refused
    as one given none: what ``cli._parse`` must match."""
    if argv and argv[0] in cli._COMMANDS and any(map(cli._may_name_config, argv[1:])):
        path = cli._build_config_parser(argv[0]).parse_known_args(argv[1:])[0].config
        if isinstance(path, str):
            argv = [argv[0], *cli._config_tokens(path, cli._COMMANDS[argv[0]][1]), *argv[1:]]
    ns = cli._build_parser().parse_args(argv)
    for dest, value in vars(ns).items():
        if isinstance(value, list):
            cli._build_parser().commands[ns.command].error(
                f"argument --{dest.replace('_', '-')}: expected one argument")
    return ns


def _parse_outcome(parse, argv, capsys):
    """The Namespace's items in order (arrays as lists), or the exit code or
    error message; and what was written to stdout and stderr."""
    try:
        ns = parse(argv)
        got = [(k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(ns).items()]
    except SystemExit as exc:
        got = ("exit", exc.code)
    except ValueError as exc:
        got = ("ValueError", str(exc))
    out = capsys.readouterr()
    return got, out.out, out.err


# a value for each dest of the flag tables
_FLAG_VALUES = {"mu": "0.1", "k": "-0.01", "a1": "0.02", "format": "csv", "output": "out.csv",
                "offset": "1e-8", "t_end": "5", "tol": "1e-9", "grid_mu": "0.1:0.2:2",
                "grid_k": "-0.02:-0.01:2", "grid_a1": "0:0.1:2", "svg_region": "r.svg"}
# read by every command from its own keys; a1 by all, the rest by some
_CONFIG = ("mu = 0.2\nk = -0.02\na1 = 0.01\nfrom_equilibrium = yes\ngrid_mu = 0.1:0.3:3\n"
           "grid_k = -0.02:-0.01:2\nformat = json\n")


def _flag_tokens(flags, joined):
    """Every flag of a table with a value, as ``--flag=value`` or ``--flag value``."""
    tokens = []
    for dest, spec in flags.items():
        flag = "--" + dest.replace("_", "-")
        if "action" in spec:
            tokens.append(flag)
        elif joined:
            tokens.append(f"{flag}={_FLAG_VALUES[dest]}")
        else:
            tokens += [flag, _FLAG_VALUES[dest]]
    return tokens


def _parse_cases():
    """(id, argv) pairs: every flag of each table, abbreviations, --config,
    help, and usage errors before, in and after a command."""
    cases = [("empty", []), ("h", ["-h"]), ("help", ["--help"]),
             ("unknown-command", ["frobnicate"]),
             ("option-before-command", ["--mu", "0.1", "integrate"]),
             ("h-before-command", ["-h", "locate"]),
             ("dashes-before-command", ["--", "locate", "--mu", "0.1", "--k=-0.01"])]
    for name, (_, flags) in cli._COMMANDS.items():
        required = [d for d, spec in flags.items() if spec.get("required")]
        minimal = _flag_tokens({d: flags[d] for d in required}, joined=False)
        joined = _flag_tokens({d: flags[d] for d in required}, joined=True)
        foreign = min(cli._CONFIG_KEYS - set(flags))  # a flag of another command
        cases += [(f"{name}-{case}", [name, *argv]) for case, argv in [
            ("joined", _flag_tokens(flags, joined=True)),
            ("separate", _flag_tokens(flags, joined=False)),
            ("required", minimal),
            ("given-twice", [*minimal, minimal[0], "0.3:0.4:2" if name == "sweep" else "0.3"]),
            ("h", ["-h"]), ("help-after-flags", [*minimal, "--help"]),
            ("unknown-flag", [*minimal, "--bogus"]),
            ("unknown-flag-and-values", [*minimal, "--bogus", "1", "extra"]),
            ("dashes-then-value", [*minimal, "--", "extra"]),
            ("other-commands-flag", [*minimal, f"--{foreign.replace('_', '-')}=1"]),
            ("bad-choice", [*minimal, "--format=xml"]),
            ("config", ["--config", "flags.cfg"]),
            ("config-abbreviated", ["--conf=flags.cfg", *minimal]),
            ("config-unknown-key", ["--co", "bad.cfg"]),
            ("config-missing", ["--config", "missing.cfg"]),
            ("config-empty-path", ["--config", "", *minimal]),
            ("config-without-path", ["--config"]),
            ("config-dashes", ["--config=--", *joined]),
            ("first-value-dashes", [f"{minimal[0]}=--", *joined[1:]]),
            ("output-dashes", [*joined, "--output=--"]),
            *((f"without-{minimal[i][2:]}", minimal[:i] + minimal[i + 2:])
              for i in range(0, len(minimal), 2)),
        ]]
    return cases + [
        ("integrate-abbreviated", ["integrate", "--mu", "0.1", "--k=-0.01", "--from-eq",
                                   "--t-e", "5"]),
        ("integrate-abbreviated-joined", ["integrate", "--mu=0.1", "--k=-0.01",
                                          "--from-equilibrium", "--t-e=5", "--off=1e-8"]),
        ("integrate-ambiguous-abbreviation", ["integrate", "--mu", "0.1", "--k=-0.01",
                                              "--from-equilibrium", "--t", "5"]),
        ("integrate-bad-value", ["integrate", "--mu", "abc", "--k=-0.01", "--from-equilibrium"]),
        ("integrate-bad-t-end", ["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium",
                                 "--t-end=0"]),
        ("sweep-ambiguous-abbreviation", ["sweep", "--grid-m=0.1:0.2:2",
                                          "--grid-k=-0.02:-0.01:2", "--grid"]),
        ("sweep-bad-grid", ["sweep", "--grid-mu=0.1:0.2:0", "--grid-k=-0.02:-0.01:2"]),
        ("locate-abbreviated", ["locate", "--mu", "0.1", "--k", "-0.01", "--form", "csv",
                                "--out", "o.csv"]),
        ("stability-abbreviated", ["stability", "--m", "0.1", "--k", "-0.01"]),
    ]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=i) for i, argv in _parse_cases()])
def test_parse_matches_the_two_level_parse(argv, tmp_path, monkeypatch, capsys):
    # a command's own parser gives the Namespace, exit code, stdout and stderr
    # of the parser that dispatches to it, usage errors and help included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flags.cfg").write_text(_CONFIG)
    (tmp_path / "bad.cfg").write_text("mu = 0.1\nnot_a_flag = 1\n")
    expected = _parse_outcome(_two_level_parse, argv, capsys)
    assert _parse_outcome(cli._parse, argv, capsys) == expected


# values that each flag's type or choices take or refuse; no NaN, which no
# two parses give equal
_VALUE_POOL = {
    float: ["0.1", "-0.01", "1e-8", "inf", "abc", ""],
    cli._positive: ["5", "1e-9", "0", "-1", "x"],
    cli._grid: ["0.1:0.2:2", "-0.02:-0.01:2", "0:0.1:1", "0.1:0.2:0", "0.2:0.1:2", "1:2"],
    "choices": ["csv", "json", "xml", "-x", "--"],
    None: ["out.csv", "", "-x", "--", "a=b"],
}
# tokens that are not a flag of the line's command spelled in full
_NOISE = ["--bogus", "extra", "--", "-h", "--help", "--config", "--config=flags.cfg",
          "--co", "bad.cfg", "--config=", "--config=missing.cfg", "-0.01", "-x", "--=1"]


@st.composite
def _command_lines(draw):
    """A command and a line of its flags, with negative values joined or not:
    most spelled in full, some abbreviated, repeated, left out, given ``=1``
    as a switch or a value its type or choices refuse, with foreign flags and
    other tokens among them."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[name][1]
    required = [d for d, spec in flags.items() if spec.get("required")]
    dests = [d for d in required if draw(st.integers(0, 5))]
    dests += draw(st.lists(st.sampled_from(list(flags)), max_size=4))
    groups = []
    for dest in dests:
        flag, spec = cli._flag(dest), flags[dest]
        if not draw(st.integers(0, 9)):
            flag = flag[:draw(st.integers(3, len(flag)))]
        if "action" in spec:
            groups.append([flag + draw(st.sampled_from(["", "", "", "=1"]))])
            continue
        value = draw(st.sampled_from(_VALUE_POOL["choices" if "choices" in spec
                                                 else spec.get("type")]))
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    foreign = [cli._flag(d) + "=1" for d in sorted(cli._CONFIG_KEYS - set(flags))]
    if not draw(st.integers(0, 3)):
        groups += [[tok] for tok in draw(st.lists(st.sampled_from(_NOISE + foreign),
                                                  min_size=1, max_size=2))]
    argv = [name, *itertools.chain.from_iterable(draw(st.permutations(groups)))]
    return cli._join_negative_values(argv) if draw(st.booleans()) else argv


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
@example(argv=["locate", "--mu=0.1", "--k=-0.01", "--output=--"])
@example(argv=["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium=1"])
@example(argv=["sweep", "--grid-mu=0.1:0.2:2", "--grid-k", "-0.02:-0.01:2"])
@example(argv=["stability", "--mu", "0.1", "--k=-0.01", "--mu", "abc"])
@example(argv=["locate", "--mu=0.1", "--k=-0.01", "--format=xml"])
def test_parse_of_drawn_lines_matches_the_two_level_parse(argv, tmp_path, monkeypatch, capsys):
    # the flag table's exact parse gives argparse's Namespace, attribute order
    # included, on the lines it takes, and every other line is argparse's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flags.cfg").write_text(_CONFIG)
    (tmp_path / "bad.cfg").write_text("mu = 0.1\nnot_a_flag = 1\n")
    expected = _parse_outcome(_two_level_parse, argv, capsys)
    assert _parse_outcome(cli._parse, argv, capsys) == expected


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_command_lines())
def test_no_parse_hands_a_command_a_list(argv, tmp_path, monkeypatch, capsys):
    # argparse turns a value of "--" given with "=" into []: no command sees it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flags.cfg").write_text(_CONFIG)
    (tmp_path / "bad.cfg").write_text("mu = 0.1\nnot_a_flag = 1\n")
    with contextlib.suppress(SystemExit, ValueError):
        ns = cli._parse(argv)
        assert not any(isinstance(value, list) for value in vars(ns).values())
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["locate", "--mu", "0.1", "--k=-0.01", "--output=--"], "--output"),
    (["locate", "--mu=--", "--k=-0.01"], "--mu"),
    (["stability", "--mu", "0.1", "--k=-0.01", "--format=--"], "--format"),
    (["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium", "--t-end=--"], "--t-end"),
    (["sweep", "--grid-mu=--", "--grid-k=-0.02:-0.01:2"], "--grid-mu"),
    (["locate", "--mu", "0.1", "--k=-0.01", "--config=--"], "--config"),
    (["locate", "--config", "dashes.cfg"], "--output"),
    (["locate", "--mu", "0.1", "--k=-0.01", "--format=--"], "--format"),
])
def test_value_of_dashes_is_a_usage_error(argv, flag, tmp_path, monkeypatch, capsys):
    # as a flag given no value, and not a traceback from a command handed []
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dashes.cfg").write_text("mu = 0.1\nk = -0.01\noutput = --\n")
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith(
        f"robe3bp {argv[0]}: error: argument {flag}: expected one argument\n")
    assert not any(p.name != "dashes.cfg" for p in tmp_path.iterdir())


def test_leftover_arguments_are_reported_by_the_top_level_parser(capsys):
    argv = ["integrate", "--mu", "0.1", "--k=-0.01", "--from-equilibrium", "--bogus"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage: robe3bp [-h] {locate,stability,integrate,sweep} ...\n"
                            "robe3bp: error: unrecognized arguments: --bogus\n")


def _as_config(flags):
    """`--key value`, `--key=value` and `--switch` tokens as config lines."""
    lines, i = [], 0
    while i < len(flags):
        key, sep, value = flags[i][2:].partition("=")
        if not sep:
            if i + 1 < len(flags) and not flags[i + 1].startswith("--"):
                value, i = flags[i + 1], i + 1
            else:
                value = "true"
        lines.append(f"{key} = {value}\n")
        i += 1
    return "".join(lines)


@pytest.mark.parametrize("argv", [
    ["stability", *CANONICAL_ARGS, "--a1", "0.05", "--format", "csv"],
    ["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--offset", "1e-8",
     "--t-end", "20"],
    ["sweep", "--grid-mu", "0.1:0.3:2", "--grid-k=-0.05:-0.01:2", "--grid-a1", "0:0.1:2",
     "--format", "json"],
    # at a tolerance of 1e300 every scaled error estimate squares to 0
    ["integrate", "--mu", "0.1", "--k=-0.01", "--tol", "1e300", "--from-equilibrium",
     "--offset", "1e-8", "--t-end", "5"],
])
def test_config_file_and_flags_give_identical_bytes(argv, tmp_path, capsys):
    command, *flags = argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_as_config(flags))
    out, svg = tmp_path / "out", tmp_path / "region.svg"
    svg_flag = ["--svg-region", str(svg)] if command == "sweep" else []
    results = []
    for run in ([command, *flags], [command, "--config", str(cfg)]):
        code = main([*run, "--output", str(out), *svg_flag])
        results.append((code, capsys.readouterr().out, out.read_bytes(),
                        svg.read_bytes() if svg_flag else None))
    assert results[0][0] == 0
    assert results[0] == results[1]


# --------------------------------------------------------------------------
# CSV formatting: rows come from %-templates, never from a quoting CSV writer

@settings(max_examples=2000)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7976931348623157e308)
def test_percent_template_is_format_17g(x):
    assert "%.17g" % x == format(x, ".17g")


def test_csv_string_fields_need_no_quoting():
    # every str the CLI writes into a CSV: command names, classifications,
    # trajectory statuses and column names
    words = [*cli._COMMANDS, *(c.value for c in Classification),
             "completed", "collision", "escape",
             *cli.SWEEP_COLUMNS, *cli.TRAJECTORY_COLUMNS]
    for word in words:
        assert not set(word) & set(',"\r\n'), word


def _fold_grid(mu, a1, ulps=3):
    """A --grid-k flag spanning the fold, ``ulps`` floats either side."""
    lo = hi = fold_k(mu, a1)
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return f"--grid-k={lo!r}:{hi!r}:{2 * ulps + 1}"


# sha256 of the output file and of stdout: a change to how a report is
# formatted that moves a single byte of it shows here
_NO_STDOUT = hashlib.sha256(b"").hexdigest()
_PINNED_OUTPUTS = {
    "sweep_readme_grid": (
        ["sweep", "--grid-mu", "0.05:0.5:10", "--grid-k=-0.3:-0.001:10", "--grid-a1", "0:0.1:2"],
        "b1983b0cde8c3eeb89e5d859fe38b855ee56675f28e5234fe88ad97e3ff76080", _NO_STDOUT),
    "sweep_readme_grid_json": (
        ["sweep", "--grid-mu", "0.05:0.5:10", "--grid-k=-0.3:-0.001:10", "--grid-a1", "0:0.1:2",
         "--format", "json"],
        "3c69966f4b13f9c44d2148c5c2a289db77f490d722be62e005ee75fb38c6c30c", _NO_STDOUT),
    "sweep_without_grid_a1": (
        ["sweep", "--grid-mu=0.02:0.9:7", "--grid-k=-0.4:-1e-6:6", "--a1", "0.03"],
        "acac1ea499a419f1b7f577aed5ae7c5dad6d00cefd721630fc5436ea402a5a39", _NO_STDOUT),
    "sweep_k_reaches_zero": (
        ["sweep", "--grid-mu=0.05:0.5:4", "--grid-k=-0.3:0.1:9", "--grid-a1=0:0.1:2"],
        "f94ee4f2c67eb6db7b23bcd5a0dbaee62f91e35f71db8912ff36e0ccef9dd2d4", _NO_STDOUT),
    "sweep_one_cell": (
        ["sweep", "--grid-mu=0.1:0.1:1", "--grid-k=-0.01:-0.01:1", "--grid-a1=0.02:0.02:1"],
        "5d633482f6fc3456ebad902bbf6cf9b48b65eb1d8949e4a92fa3bd220b4ba43f", _NO_STDOUT),
    "sweep_fold": (
        ["sweep", "--grid-mu=0.1:0.1:1", _fold_grid(0.1, 0.0), "--grid-a1=0:0:1"],
        "1d41bfa2e76c5351738e197793319e250e18b4eb4601aed7d463442da2153e9f", _NO_STDOUT),
    "integrate_offset": (
        ["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--offset", "1e-8"],
        "0101bae51706f3abb5c82bf6463da757717000fb138ff6eb0b4fee2615721877",
        "22e089fbf7557e7e8018488b05964066df679d2e4d405d5d5a9f4293f9ad43df"),
    "stability_canonical_json": (
        ["stability", *CANONICAL_ARGS, "--format", "json"],
        "39a739eccf2058e5a97ccee81151e7c4103973ba18f6c685ff105b42ebbed5c7", _NO_STDOUT),
    # r_hessian carries no digit of r here, so coeff_rel_diff is the empty field
    "stability_null_coeff_rel_diff_csv": (
        ["stability", "--mu", "0.1", "--k=-1e-300", "--format", "csv"],
        "109d82c94a93c8be4663a3c51501e31dacc63f1d1a5fa62d573bb439b0cb27bf", _NO_STDOUT),
    "locate_canonical_json": (
        ["locate", *CANONICAL_ARGS, "--format", "json"],
        "80fce8c8e1aa354c83342fec00a27a28488a86d04bdaee20d50a14d558957cc5", _NO_STDOUT),
}


@pytest.mark.parametrize("name", sorted(_PINNED_OUTPUTS))
def test_output_bytes_pinned(name, tmp_path, monkeypatch, capsys):
    argv, file_digest, stdout_digest = _PINNED_OUTPUTS[name]
    monkeypatch.chdir(tmp_path)  # the integrate summary names its relative output file
    assert main([*argv, "--output", "out"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == file_digest
    assert hashlib.sha256(stdout).hexdigest() == stdout_digest


@pytest.mark.parametrize("name, argv", [
    # the verify workload's spelling of the integrate_offset pin
    ("integrate_offset", ["integrate", "--mu=0.1", "--k=-0.01", "--a1=0.02",
                          "--from-equilibrium", "--offset=1e-08", "--t-end=60"]),
    ("sweep_readme_grid", _PINNED_OUTPUTS["sweep_readme_grid"][0]),
])
def test_exact_line_builds_no_parser(name, argv, tmp_path, monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("an argparse parser was built")

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(cli, "_build_config_parser", refuse)
    monkeypatch.chdir(tmp_path)  # the integrate summary names its relative output file
    assert main([*argv, "--output", "out"]) == 0
    _, file_digest, stdout_digest = _PINNED_OUTPUTS[name]
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == file_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


# numpy's dispatch targets above the x86-64 baseline, and the features whose
# loops round differently: an FMA rounds a * b + c once, not twice
_SIMD_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR X86_V3 AVX2 FMA3"


def _simd_features_to_disable():
    """The features of _SIMD_FEATURES that this CPU has and that
    NPY_DISABLE_CPU_FEATURES can turn off, if numpy dispatches to any of them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath as umath
    has = getattr(umath, "__cpu_features__", {})
    baseline = set(getattr(umath, "__cpu_baseline__", ()))
    features = [f for f in _SIMD_FEATURES.split() if has.get(f) and f not in baseline]
    return features if set(features) & set(getattr(umath, "__cpu_dispatch__", ())) else []


# run in the child interpreter with the SIMD features off: each pin in its own
# directory, as test_output_bytes_pinned (the integrate summary names its
# output file), and the file and stdout digests of each as JSON
_PINS_WITHOUT_SIMD = """\
import contextlib, hashlib, io, json, os
import test_cli
assert test_cli._simd_features_to_disable() == [], "features still on"
digests, top = {}, os.getcwd()
for name, (argv, _, _) in test_cli._PINNED_OUTPUTS.items():
    os.mkdir(os.path.join(top, name))
    os.chdir(os.path.join(top, name))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert test_cli.main([*argv, "--output", "out"]) == 0, name
    with open("out", "rb") as out:
        digests[name] = [hashlib.sha256(out.read()).hexdigest(),
                         hashlib.sha256(stdout.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def digests_without_simd_features(tmp_path_factory):
    """Every pin's (file, stdout) digests from one interpreter under
    NPY_DISABLE_CPU_FEATURES."""
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_simd_features_to_disable()),
           "PYTHONPATH": os.pathsep.join(
               [os.path.dirname(__file__), os.path.dirname(os.path.dirname(cli.__file__))])}
    done = subprocess.run([sys.executable, "-c", _PINS_WITHOUT_SIMD], env=env,
                          cwd=tmp_path_factory.mktemp("without_simd"),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(not _simd_features_to_disable(),
                    reason=f"numpy dispatches to none of {_SIMD_FEATURES} here")
@pytest.mark.parametrize("name", sorted(_PINNED_OUTPUTS))
def test_pinned_output_bytes_without_simd_features(name, digests_without_simd_features):
    # the roots come from real +, -, *, / and sqrt and complex sqrt, the
    # growth rate from math.log and math.fsum, and locate's point from Python
    # floats, which give the same bits whichever vector loops numpy picks
    _, file_digest, stdout_digest = _PINNED_OUTPUTS[name]
    got_file, got_stdout = digests_without_simd_features[name]
    assert got_file == file_digest
    assert got_stdout == stdout_digest


@pytest.mark.parametrize("argv", [
    # k >= 0 cells, cells without a point and cells with one
    ["sweep", "--grid-mu=0.05:0.5:4", "--grid-k=-0.3:0.1:9", "--grid-a1=0:0.1:2"],
    # |k| down to 1e-300
    ["sweep", "--grid-mu=0.1:0.3:2", "--grid-k=-1e-12:-1e-300:5"],
    # both sides of the fold, one ulp apart
    ["sweep", "--grid-mu=0.1:0.1:1", _fold_grid(0.1, 0.0), "--grid-a1=0:0:1"],
    ["integrate", *CANONICAL_ARGS, "--from-equilibrium", "--offset", "1e-8",
     "--t-end", "20"],
    ["stability", "--mu", "0.1", "--k=-1e-300", "--format", "csv"],
    ["locate", "--mu", "0.1", "--k", "0.01", "--format", "csv"],
])
def test_csv_output_is_what_a_csv_writer_writes(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) in (0, 2)
    text = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text
    words = {"", "true", "false", *cli._COMMANDS, *(c.value for c in Classification)}
    numbers = [field for row in rows[1:] for field in row if field not in words]
    assert numbers
    for field in numbers:
        assert format(float(field), ".17g") == field


_FLAT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.text())


@settings(max_examples=500)
@given(st.dictionaries(st.text(), _FLAT_VALUES, min_size=1))
@example({"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "zero": -0.0, "sub": 5e-324,
          "text": 'q"b\\n\n\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600', "": 10 ** 30})
def test_flat_json_is_json_dumps_indent_2(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {}, {"rows": []}, {"a": {}}, {"a": {"b": 1.5}}, {"t": (1, None)},
    {"command": "sweep", "rows": [{"mu": 0.1, "x": None, "classification": ""}]},
])
def test_empty_and_nested_json_take_indent_2(obj, monkeypatch):
    def refuse(_):
        raise AssertionError("the flat writer was used")

    monkeypatch.setattr(cli, "_FLAT_JSON", refuse)
    assert cli._json_text(obj) == json.dumps(obj, indent=2) + "\n"


# --------------------------------------------------------------------------
# exit codes as properties

def _main_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@settings(max_examples=150, deadline=None)
@given(any_cell)
def test_locate_exit_code_follows_existence(cell):
    mu, k, a1 = cell
    code, out, _ = _main_quiet(["locate", f"--mu={mu!r}", f"--k={k!r}", f"--a1={a1!r}"])
    exists = triangular_points(Params(mu=mu, k=k, a1_oblate=a1)).exists
    assert code == (0 if exists else 2)
    rep = json.loads(out, parse_constant=_refuse_constant)
    assert rep["exists"] is exists
    assert rep["k_negative"] is (k < 0)
    assert rep["region_ok"] or not exists


_NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
_NOT_POSITIVE = st.floats(max_value=0.0).map(repr)
_BAD_VALUE = {
    "mu": st.one_of(_NON_FINITE, _NOT_POSITIVE, st.floats(min_value=1.0).map(repr)),
    "k": st.one_of(_NON_FINITE, st.floats(max_value=-9e307).map(repr),
                   st.floats(-2.2250738585072009e-308, -5e-324).map(repr)),
    "a1": st.one_of(_NON_FINITE, st.floats(max_value=-5e-324).map(repr),
                    st.floats(min_value=3.8e102).map(repr)),
    "offset": st.one_of(_NON_FINITE, _NOT_POSITIVE),
    "t-end": st.one_of(_NON_FINITE, _NOT_POSITIVE),
    "tol": st.one_of(_NON_FINITE, _NOT_POSITIVE),
}
_GRID_OF = {"mu": "grid-mu", "k": "grid-k", "a1": "grid-a1"}


@st.composite
def bad_argv(draw):
    """A valid command line with one flag set to a non-finite or out-of-range value."""
    flag = draw(st.sampled_from(sorted(_BAD_VALUE)))
    value = draw(_BAD_VALUE[flag])
    if flag in _GRID_OF and draw(st.booleans()):
        grids = {"grid-mu": "0.1:0.2:2", "grid-k": "-0.05:-0.01:2", "grid-a1": "0:0.1:2"}
        grids[_GRID_OF[flag]] = f"{value}:{value}:{draw(st.sampled_from([1, 2]))}"
        return ["sweep", *(f"--{name}={spec}" for name, spec in grids.items())]
    command = "integrate" if flag not in _GRID_OF else draw(
        st.sampled_from(["locate", "stability", "integrate"]))
    flags = {"mu": "0.1", "k": "-0.01", "a1": "0.02", flag: value}
    if command == "integrate":
        flags.setdefault("offset", "1e-8")
    argv = [command, *(f"--{name}={v}" for name, v in flags.items())]
    return argv + (["--from-equilibrium", "--output", os.devnull]
                   if command == "integrate" else [])


@settings(max_examples=150, deadline=None)
@given(bad_argv())
def test_non_finite_or_out_of_range_flag_exits_64(argv):
    code, out, err = _main_quiet(argv)
    assert code == 64
    assert out == "" and "error" in err
