"""The README's library example and household-file census config run, and
its command lines parse as documented."""

import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

from electaudit.cli import build_parser, main

from .helpers import household_files

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


def _audit_command_lines() -> list[str]:
    """Every ``audit ...`` command of the README's shell blocks, its
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```(?:bash|sh|shell)\n(.*?)```", text, re.DOTALL)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("audit "):
                commands.append(line)
    return commands


def test_readme_command_lines_parse():
    """Every ``audit`` command line of the README parses with the CLI's own
    parser, its optional ``[...]`` parts included, so a removed or renamed
    flag fails here."""
    commands = _audit_command_lines()
    assert {line.split()[1] for line in commands} == {"run", "margins"}
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line.replace("[", " ").replace("]", " "))[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None


def test_household_file_census_config_runs(tmp_path):
    """The README's household-file census config, pointed at a small district
    and household file, runs through ``audit run`` as one audit of the file."""
    match = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert match, "no JSON block in the README"
    config = json.loads(match.group(1))
    districts, households = household_files(tmp_path)
    config.update(districts=str(districts), households=str(households))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out/risk_curve.csv", newline="", encoding="utf-8") as f:
        assert [r["sample_fraction"] for r in csv.DictReader(f)] == ["file"]
