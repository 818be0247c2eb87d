"""The README stays true to the code: its per-command flag lists match the
CLI parser, its output schemas match what the commands write, its list of
``IntegratorConfig`` settings matches the dataclass, and its Python examples
run."""

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

import pytest

from robe3bp import IntegratorConfig
from robe3bp.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    """Each ```python block, padded with blank lines to its README line numbers."""
    text = README.read_text()
    return ["\n" * text.count("\n", 0, m.start(1)) + m.group(1)
            for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]


PYTHON_BLOCKS = _python_blocks()


def _documented_flags() -> dict[str, set[str]]:
    """``- `cmd` - `--flag ...` `` lines of the README, wrapped or not."""
    text = README.read_text()
    return {cmd: set(flags.split())
            for cmd, flags in re.findall(r"^- `(\w+)` - `(--[^`]*)`", text, re.M)}


def _parser_flags() -> dict[str, set[str]]:
    return {cmd: {opt for action in parser._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
            for cmd, parser in _build_parser().commands.items()}


def test_readme_lists_each_commands_flags():
    assert _documented_flags() == _parser_flags()


ROOT_KEYS = [f"root{i}_{part}" for i in range(1, 7) for part in ("re", "im")]


def _documented_schema(label: str) -> list[str]:
    """The backquoted names after ``label:`` under "Output schemas", in order,
    with the stability report's ``root1_re, root1_im, ..., root6_re, root6_im``
    written out."""
    text = README.read_text().split("### Output schemas", 1)[1]
    names = re.split(r"[,\s]+", re.search(re.escape(label) + r":\s*`([^`]*)`", text)[1])
    if "..." in names:
        i = names.index("...")
        assert names[i - 2:i] + names[i + 1:i + 3] == ROOT_KEYS[:2] + ROOT_KEYS[-2:]
        names[i - 2:i + 3] = ROOT_KEYS
    return names


def _json_keys(capsys, argv) -> list[str]:
    assert main(argv) == 0
    return list(json.loads(capsys.readouterr().out))


def _csv_header(path: Path) -> list[str]:
    return path.read_text().split("\n", 1)[0].split(",")


POINT = ["--mu", "0.1", "--k", "-0.01", "--a1", "0.02"]


def test_readme_lists_each_reports_keys(capsys):
    assert _documented_schema("`locate` JSON keys") == _json_keys(capsys, ["locate", *POINT])
    assert _documented_schema("`stability` JSON keys") == \
        _json_keys(capsys, ["stability", *POINT])


def test_readme_lists_the_csv_headers_and_integrate_keys(tmp_path, capsys):
    sweep, trajectory = tmp_path / "sweep.csv", tmp_path / "trajectory.csv"
    assert main(["sweep", "--grid-mu", "0.1:0.1:1", "--grid-k=-0.01:-0.01:1",
                 "--output", str(sweep)]) == 0
    assert _documented_schema("Sweep CSV columns") == _csv_header(sweep)
    # a span too short for the growth fit: the summary gains growth_fit_error
    keys = _json_keys(capsys, ["integrate", *POINT, "--from-equilibrium", "--offset", "1e-8",
                               "--t-end", "1", "--output", str(trajectory)])
    assert _documented_schema("Trajectory CSV columns") == _csv_header(trajectory)
    optional = re.search(r"summary keys: `[^`]*` \(plus `(\w+)`", README.read_text())[1]
    assert keys[-1] == optional == "growth_fit_error"
    assert _documented_schema("`integrate` summary keys") == keys[:-1]


def test_readme_lists_the_integrator_settings():
    text = " ".join(README.read_text().split())  # the sentence wraps
    names = re.search(r"`IntegratorConfig` values must be [^(]*\(([^)]*)\)", text)[1]
    assert re.findall(r"`(\w+)`", names) == [f.name for f in dataclasses.fields(IntegratorConfig)]


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
@pytest.mark.filterwarnings("error")
def test_readme_python_block_runs(source):
    # each block runs in a namespace of its own, so it imports what it uses;
    # a traceback gives README line numbers
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
