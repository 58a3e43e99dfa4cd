"""The README's Library example and CLI commands run as written, so an API
or option change cannot leave them stale."""

import re
import shlex
from pathlib import Path

from apvar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str, text: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_library_example_runs():
    blocks = _blocks("python", README.read_text())
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_commands_run(tmp_path, capsys, monkeypatch):
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = _blocks("sh", section)
    assert len(blocks) == 1
    commands = [shlex.split(line, comments=True) for line in blocks[0].splitlines()]
    assert commands and all(argv[0] == "apvar" for argv in commands)
    monkeypatch.chdir(tmp_path)  # the commands write their files here
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        capsys.readouterr()
