"""The scripts under ``scripts/`` import against the current package.

The experiments run as ``anytime`` commands; ``scripts/`` keeps only the
protocols no command has, today ``width_envelopes.py`` (the run behind
criterion 06's frozen width-envelope constants).  Each script keeps its
work behind a ``__main__`` guard, so importing it only resolves its
imports: a public name removed from the package fails here instead of at
the next run of the script.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
