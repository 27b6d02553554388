"""The README's command-line block runs as written, on a small corpus."""

import shlex
from pathlib import Path

from facestack.cli import main

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
