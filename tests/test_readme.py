"""The README's command-line block runs as written, on a small corpus."""

import argparse
import re
import shlex
from pathlib import Path

from facestack.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_block():
    """argv lists of the ```sh block under "## Command line", one per command."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _command_block()
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "facestack"
        argv = argv[1:]
        if "--per-class" in argv:  # the README's corpus size, cut to keep the test short
            argv[argv.index("--per-class") + 1] = "12"
        assert main(argv) == 0, argv


def _parser_flags(parser):
    """Every option string of parser and of its subcommands' parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_names_only_flags_of_the_cli():
    text = README.read_text(encoding="utf-8")
    install = text.split("## Install", 1)[1].split("\n## ", 1)[0]  # pip's flags
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text.replace(install, "")))
    flags = _parser_flags(build_parser())
    assert {"--grid", "--folds", "--stage"} <= named
    assert {"--variance", "--train-manifest", "--grid"} <= flags  # subcommands' flags too
    assert sorted(named - flags) == []
