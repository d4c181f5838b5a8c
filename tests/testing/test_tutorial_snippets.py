"""The TUTORIAL's conformance-harness snippets must keep running: every
``python`` block in TUTORIAL.md that imports from ``repro.testing`` is
executed as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).resolve().parents[2] / "TUTORIAL.md"

SNIPPETS = [
    block
    for block in re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(), re.M | re.S)
    if "from repro.testing import" in block
]


def test_tutorial_has_harness_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("snippet", SNIPPETS, ids=range(len(SNIPPETS)))
def test_harness_snippet_runs(snippet, capsys):
    exec(compile(snippet, str(TUTORIAL), "exec"), {"__name__": "__tutorial__"})
    assert "CONFORMS" in capsys.readouterr().out
