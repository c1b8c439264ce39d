"""Fast self-test of the benchmark runner.

    python3 bench/selftest.py

Runs one seed of a scaled-down ``national_early`` (220,000 ballots) through
the runner, untraced and traced.  Asserts that every metric
``BENCHMARK.json`` names is emitted with its unit, that the committed
national contest matches its scaling rule, and that a trial whose output is
broken on purpose is counted as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import national_contest  # noqa: E402
import run_bench  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SMALL_BALLOTS = 220_000


def break_margin(out_dir: Path) -> None:
    """Add one ballot to the first margin in results.csv."""
    path = out_dir / "results.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)  # trial,seed,assertion,margin,...
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    national_contest.check()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    small = run_bench.OUT / "selftest" / "national_contest_small.csv"
    national_contest.write(small, SMALL_BALLOTS)

    workload = WORKLOADS["national_early"]
    config = workload.load_config()
    config["contest"] = str(small)
    for trace in (False, True):
        result = run_bench.Run(workload, 0, 0, trace, config=config).measure()
        failures = [f for t in result["trials"] for f in t["failures"]]
        assert result["correct"] and result["failed"] == 0, failures
        assert units(result) == expected[trace], (
            f"trace={trace}: emitted {units(result)}, expected {expected[trace]}"
        )
    print("every metric of BENCHMARK.json is emitted with its unit")
    broken = run_bench.Run(workload, 0, 0, False, config=config, corrupt=break_margin).measure()
    trials = len(workload.kinds)
    assert (broken["attempted"], broken["failed"], broken["correct"]) == (trials, trials, False), broken
    print("a broken output counts as failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
