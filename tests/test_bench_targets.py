"""The benchmark's hooks into the package still hold.

``bench/tracer.py`` rebinds each ``TARGETS`` entry at run time,
``bench/workloads.py`` checks a trial's margins by dealing its batches again
through ``deal_batches`` and ``inject_ballot_errors``, and both bench
modules read fields of the audits' outcomes and the trial reports.  A break
in any would otherwise show only when a benchmark run starts.
"""

import ast
import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from electaudit.alpha import AssertionOutcome, AuditOutcome
from electaudit.census import CensusOutcome
from electaudit.harness import TrialReport

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, attr, span in tracer.TARGETS:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"span {span}: {module_name}.{attr} is not a callable"


def test_every_workloads_import_resolves():
    """Every name ``bench/workloads.py`` imports from the package, at module
    level or inside a function, exists: a removed name would otherwise fail
    only inside a benchmark trial's check."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "electaudit"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name} is gone"


# The fields ``bench/run_bench.py`` reads off a traced audit's outcome and
# ``bench/workloads.py`` reads off a trial's reports.
BENCH_READS = {
    CensusOutcome: ("households_examined",),
    AuditOutcome: ("total_ballots", "assertions"),
    AssertionOutcome: ("approvable", "approved", "examined", "batches_examined"),
    TrialReport: ("approved", "full_count", "ballots_examined", "total_ballots", "risk_limit",
                  "sample_fraction", "per_assertion"),
}


def test_every_field_the_bench_reads_exists():
    for cls, names in BENCH_READS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        missing = [name for name in names if name not in fields]
        assert not missing, f"{cls.__name__} lost {missing}"


def test_bench_selftest_passes():
    """One small seed through the runner, untraced and traced: every trial
    passes its checks and every metric of ``BENCHMARK.json`` is emitted."""
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
