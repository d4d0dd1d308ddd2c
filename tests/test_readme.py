"""The README's quick start runs, and its commands parse, against the current package.

The python block under "Quick start" is executed as written; a renamed
import or a changed default fails here instead of in a reader's shell.
Its last line prints the betting decider's verdict and sample count on
a seeded stream, pinned below.  Every ``anytime`` command in the shell
blocks must parse and build a valid config (none is run).
"""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from anytime import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Quick start"
    return match.group(1)


def test_quick_start_runs():
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(compile(quick_start(), str(README), "exec"), {"__name__": "readme"})
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("Interval(lo=") and lines[1].startswith("Interval(lo=")
    assert lines[-1] == "less 1192"


def documented_commands() -> list[list[str]]:
    """The arguments of every ``anytime`` command in the README's shell blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("anytime "):
                words = shlex.split(line, comments=True)
                commands.append(words[1 : words.index(">")] if ">" in words else words[1:])
    return commands


def test_the_documented_commands_build_their_configs():
    commands = documented_commands()
    assert {argv[0] for argv in commands} == {"coverage", "width", "decide", "certify", "thresholds"}
    parser = cli.build_parser()
    for argv in commands:
        cli._build_config(parser.parse_args(argv))
