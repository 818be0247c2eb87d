"""The README stays true to the code: its per-command flag lists match the
CLI parser, and its Python examples run."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from robe3bp.cli import _build_parser

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
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {cmd: {opt for action in parser._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
            for cmd, parser in sub.choices.items()}


def test_readme_lists_each_commands_flags():
    assert _documented_flags() == _parser_flags()


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
