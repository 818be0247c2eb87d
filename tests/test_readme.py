"""The README's per-command flag lists match the CLI parser."""

import argparse
import re
from pathlib import Path

from robe3bp.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
