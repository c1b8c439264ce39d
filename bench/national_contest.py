"""The contest of the ``national_early`` workloads: the shipped synthetic
contest scaled to a Knesset-scale electorate.

Rule: each row's count v in ``configs/contest_synthetic.csv`` (120,237
ballots) becomes round(v * 4,400,000 / 120,237), rounding halves up.  That
gives 4,399,999 ballots.  ``bench/inputs/national_contest.csv`` is the
committed output of this rule.

    python3 bench/national_contest.py            # check the committed file
    python3 bench/national_contest.py --write    # regenerate it
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "configs" / "contest_synthetic.csv"
COMMITTED = ROOT / "bench" / "inputs" / "national_contest.csv"
TARGET_BALLOTS = 4_400_000


def scaled_rows(source: Path = SOURCE, target: int = TARGET_BALLOTS) -> list[tuple[str, int]]:
    """``(party, votes)`` rows of ``source`` scaled so the total is about ``target``."""
    with open(source, newline="", encoding="utf-8") as f:
        rows = [(row["party"], int(row["reported_votes"])) for row in csv.DictReader(f)]
    total = sum(v for _, v in rows)
    return [(party, (2 * v * target + total) // (2 * total)) for party, v in rows]


def render(rows: list[tuple[str, int]]) -> str:
    return "party,reported_votes\n" + "".join(f"{party},{votes}\n" for party, votes in rows)


def write(path: Path, target: int = TARGET_BALLOTS) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render(scaled_rows(target=target)), encoding="utf-8")


def check() -> None:
    """Raise if the committed contest is not the rule's output."""
    expected = render(scaled_rows())
    if COMMITTED.read_text(encoding="utf-8") != expected:
        raise ValueError(f"{COMMITTED} does not match the scaling rule; rerun with --write")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the committed file")
    args = parser.parse_args(argv)
    if args.write:
        write(COMMITTED)
    check()
    print(f"{COMMITTED.relative_to(ROOT)} matches the scaling rule")
    return 0


if __name__ == "__main__":
    sys.exit(main())
