"""The README's quick start runs against the current package.

The python block under "Quick start" is executed as written; a renamed
import or a changed default fails here instead of in a reader's shell.
Its last line prints the betting decider's verdict and sample count on
a seeded stream, pinned below.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

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
