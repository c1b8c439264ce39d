"""The README's library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first fenced Python block under ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no Python block under {heading!r}"
    return match.group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("Quick start (library)"), str(README), "exec"), {})
    approved, examined = out.getvalue().split()
    assert approved in ("True", "False") and 0 < int(examined) <= 10000
