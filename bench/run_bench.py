"""Benchmark of the electaudit package: trial time per audit kind, traced self time per module.

    python3 bench/run_bench.py --workload knesset_compare --seed 0 --seconds 55 --trace 0
    python3 bench/run_bench.py --workload all --seed 0      # every workload, one process each

A workload is one input set and the audit kinds run on it (see
``workloads.py``).  ``BENCHMARK.json`` lists ``knesset_compare`` and
``cyprus_census``; ``national_early`` takes about 35 s per seed, too long
for a steady figure within one run, so it is run by name or with ``all``
and its result files back claims at national scale.  The load is a closed loop in one process: one
``harness.run_experiment(..., trials=1)`` call at a time, ``jobs=1``.  Seed
i of the workload's list is ``1000 * root + i``; each seed runs one trial of
every kind of the workload, and seeds continue while the next one is
expected to end within ``--seconds`` (at least one seed runs).

``--trace 0`` reports the end-to-end metrics, timed from outside the calls:

* ``seed_mean_s``: mean wall time of one seed, one trial of each kind (data
  generation, assertions, margins, audit, CSV writing), over the run's
  seeds: the run's trial time divided by its seeds;
* ``setup_s``: median over fresh processes, one started before each seed,
  of process start to ``electaudit`` imported and the workload's inputs
  loaded;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``seed_mean_s`` is a mean, not a median, because the cores of a shared host
switch between an uncontended and a contended speed 1.3x to 1.6x apart, in
phases from seconds to minutes, so a run's seed times mix two speeds.  The
median of such a mixture jumps between them as the contended share of the
run passes one half, while the mean moves in proportion to that share.  On
a 2-core Xeon VM, ten runs of the same code spread (quartile distance over
median) by up to 0.22 with the median and up to 0.16 with the mean.  The
median seed time (``seed_median_s``) and the median time of each kind's
trials (``<kind>_trial_s``) are printed beside the metrics and kept in the
result file.

``--trace 1`` runs each seed untraced and then traced, with spans around
the layer functions (``tracer.py``), and reports per seed: per-layer self
times (``<module>.<function>.self_s``), call counts, counts read off the
layers' results and ``trace.overhead_frac``, each a median over seeds.

Every trial is checked (``workloads.Checker``); a trial that raises or
fails a check counts in ``failed``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the run exits 1 when a
check failed.  A result file with provenance, per-trial times and output
hashes goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread of native numeric code: the benchmark is a single-process closed loop
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import ROOT_SPAN, TARGETS, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Checker, Workload, load_inputs, output_hashes  # noqa: E402

OUT = BENCH / "out"
SEEDS_PER_ROOT = 1000
KINDS = ("alpha", "alpha_batch", "batchcomp")  # election audit kinds

# span names whose call counts are reported next to their self time
COUNTED = (
    "core.assorter_mean",
    "alpha.combined_reported",
    "batchcomp.make_batch_assorter",
    "batchcomp.batch_assorter_value",
    "knesset.assertion_margin",
    "apportionment.highest_averages",
    "census.inject_survey_disagreement",
)
AUDITS = {"alpha.alpha_audit": "alpha", "alpha.alpha_batch_audit": "alpha_batch",
          "batchcomp.batchcomp_audit": "batchcomp"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for _, _, name in TARGETS}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({f"{name}.values_used_ratio": "ratio" for name in AUDITS})
    units.update({f"alpha.early_stop_frac.{kind}": "ratio" for kind in KINDS})
    units.update({
        "knesset.min_margin": "ballots",
        "census.inject_accept_ratio": "ratio",
        "census.households_examined": "count",
        "trace.overhead_frac": "ratio",
        "trace.uncovered_s": "s",
        "trace.wall_s": "s",
    })
    return units


def seed_list(root_seed: int) -> list[int]:
    return [SEEDS_PER_ROOT * root_seed + i for i in range(SEEDS_PER_ROOT)]


def import_package():
    """Import electaudit from this checkout's ``src``, never from elsewhere."""
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import electaudit
    from electaudit import harness

    if Path(electaudit.__file__).resolve().parent != ROOT / "src" / "electaudit":
        raise RuntimeError(f"electaudit imported from {electaudit.__file__}, not from {ROOT / 'src'}")
    return harness


def setup_probe(workload: Workload) -> None:
    """Body of one fresh set-up process: import, load inputs, report ready."""
    import_package()
    load_inputs(workload.load_config())
    print("ready", flush=True)


def measure_setup(workload: Workload) -> float:
    """Wall time from spawning a fresh set-up process to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload.name]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def _audit_summary(computed_rows: str):
    """Values the test consumed and computed, and early stops, read off an audit's outcome.

    Computed values are what the current code evaluates before testing:
    ``n`` per approvable assertion for ``alpha_audit`` (one full trajectory
    each), and ``B`` per assertion for the batch audits, where
    ``batchcomp_audit`` skips assertions it cannot approve.
    """

    def summary(args, kwargs, outcome):
        n = outcome.total_ballots
        approvable = [r for r in outcome.assertions if r.approvable]
        if computed_rows == "ballots":
            computed = len(approvable) * n
            used = sum(r.examined for r in approvable)
        else:
            rows = outcome.assertions if computed_rows == "all" else approvable
            computed = len(rows) * len(args[0])
            used = sum(r.batches_examined for r in approvable)
        early = sum(1 for r in approvable if r.approved and r.examined < n)
        return used, computed, early, len(approvable)

    return summary


KEEP = {
    "alpha.alpha_audit": _audit_summary("ballots"),
    "alpha.alpha_batch_audit": _audit_summary("all"),
    "batchcomp.batchcomp_audit": _audit_summary("approvable"),
    "knesset.assertion_margin": lambda args, kwargs, margin: margin,
    "census.census_rla": lambda args, kwargs, outcome: outcome.households_examined,
}


class Run:
    """One workload measured in this process."""

    def __init__(self, workload: Workload, root_seed: int, seconds: float, trace: bool,
                 config: dict | None = None, corrupt=None):
        self.workload = workload
        self.root_seed = root_seed
        self.seconds = seconds
        self.trace = trace
        self.corrupt = corrupt  # test hook: called on a trial's output dir before checking
        self.harness = import_package()
        self.config = config if config is not None else workload.load_config()
        self.checker = Checker(workload, self.config)
        self.out_dir = OUT / workload.name
        self.trials: list[dict] = []

    def _trial(self, seed: int, kind: str, tracer: Tracer | None = None) -> None:
        out = self.out_dir / "trial"
        config = dict(self.config, audit=kind)
        gc.collect()
        record = {"seed": seed, "kind": kind, "traced": tracer is not None, "failures": []}
        start = time.perf_counter()
        try:
            call = (lambda: self.harness.run_experiment(config, out, seed=seed, trials=1))
            reports = call() if tracer is None else tracer.call(seed, call)
        except Exception as exc:  # a failing trial is counted, not fatal
            record["wall_s"] = time.perf_counter() - start
            record["failures"].append(f"raised {exc!r}")
            self.trials.append(record)
            return
        record["wall_s"] = time.perf_counter() - start
        if self.corrupt is not None:
            self.corrupt(out)
        try:
            record["failures"] = self.checker.check(seed, kind, reports, out)
        except Exception as exc:
            record["failures"].append(f"check raised {exc!r}")
        record["sha256"] = output_hashes(out)
        self.trials.append(record)

    def _seed(self, seed: int, tracer: Tracer | None = None) -> None:
        """One trial of every kind on ``seed``."""
        for kind in self.workload.kinds:
            self._trial(seed, kind, tracer)

    def measure(self) -> dict:
        """Run seeds for the time budget; return the result dict."""
        setup = []  # untraced runs start one set-up probe before each seed, spanning the run's speed phases
        tracer = Tracer(keep=KEEP) if self.trace else None
        started = time.perf_counter()
        per_seed = []  # wall time of each seed's untraced and traced passes
        for seed in seed_list(self.root_seed):
            if not self.trace:
                setup.append(measure_setup(self.workload))
            unit_start = time.perf_counter()
            self._seed(seed)
            if tracer is not None:
                tracer.install()
                try:
                    self._seed(seed, tracer)
                finally:
                    tracer.uninstall()
            per_seed.append(time.perf_counter() - unit_start)
            if time.perf_counter() - started + statistics.median(per_seed) > self.seconds:
                break
        if tracer is not None:
            tracer.write_spans(self.out_dir / "spans.csv")
            metrics = self._per_layer(tracer)
        else:
            metrics = self._end_to_end(setup)
        failed = sum(1 for t in self.trials if t["failures"])
        return {
            "correct": failed == 0,
            "attempted": len(self.trials),
            "failed": failed,
            "metrics": metrics,
            "seed_median_s": statistics.median(self._seed_walls(traced=False)),
            "kind_trial_s": {
                kind: statistics.median(t["wall_s"] for t in self.trials
                                        if t["kind"] == kind and not t["traced"])
                for kind in self.workload.kinds
            },
            "setup_wall_s": setup,
            "trials": self.trials,
        }

    def _seed_walls(self, traced: bool) -> list[float]:
        walls: dict[int, float] = {}
        for t in self.trials:
            if t["traced"] == traced:
                walls[t["seed"]] = walls.get(t["seed"], 0.0) + t["wall_s"]
        return list(walls.values())

    def _end_to_end(self, setup: list[float]) -> dict:
        seeds = self._seed_walls(traced=False)
        return {
            "seed_mean_s": _metric(statistics.fmean(seeds), "s", len(seeds)),
            "setup_s": _metric(statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }

    def _per_layer(self, tracer: Tracer) -> dict:
        """Per traced seed: layer self times, call counts and counts; medians over seeds."""
        units = per_layer_units()
        per_seed: list[dict[str, float]] = []
        for seed in sorted({t["seed"] for t in self.trials if t["traced"]}):
            stats = tracer.trial_stats(seed)
            wall = tracer.root_duration(seed)
            self_sum = sum(s for s, _ in stats.values())
            if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
                for t in self.trials:
                    if t["seed"] == seed and t["traced"]:
                        t["failures"].append(f"self times sum to {self_sum}, traced wall is {wall}")
            values = {name: 0.0 for name in units}
            for name, (self_s, calls) in stats.items():
                if f"{name}.self_s" in values:
                    values[f"{name}.self_s"] = self_s
                if f"{name}.calls" in values:
                    values[f"{name}.calls"] = calls
            kept = [(name, v) for trial, name, v in tracer.kept if trial == seed]
            for name, (used, computed, early, approvable) in ((n, v) for n, v in kept if n in AUDITS):
                values[f"{name}.values_used_ratio"] = used / computed if computed else 0.0
                values[f"alpha.early_stop_frac.{AUDITS[name]}"] = early / approvable if approvable else 0.0
            margins = [v for n, v in kept if n == "knesset.assertion_margin"]
            values["knesset.min_margin"] = min(margins) if margins else 0
            values["census.households_examined"] = sum(v for n, v in kept if n == "census.census_rla")
            attempts = values["census.inject_survey_disagreement.calls"]
            census_trials = self.workload.kinds.count("census")
            values["census.inject_accept_ratio"] = census_trials / attempts if attempts else 0.0
            values["trace.uncovered_s"] = stats[ROOT_SPAN][0]
            values["trace.wall_s"] = wall
            per_seed.append(values)
        overhead = (statistics.median(self._seed_walls(traced=True))
                    / statistics.median(self._seed_walls(traced=False)) - 1)
        metrics = {name: _metric(statistics.median(v[name] for v in per_seed), unit, len(per_seed))
                   for name, unit in units.items()}
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio", len(per_seed))
        return metrics


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def provenance(run: Run) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "root_seed": run.root_seed,
        "seeds": sorted({t["seed"] for t in run.trials}),
        "trials_per_kind": {k: sum(1 for t in run.trials if t["kind"] == k) for k in run.workload.kinds},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").exists():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).exists():
        return (git / name).read_text().strip()
    if (git / "packed-refs").exists():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_lines(workload: Workload, result: dict) -> list[str]:
    """Human-readable lines: every metric by name, value, unit and sample count."""
    prov = result["provenance"]
    lines = [f"{workload.name}: root seed {prov['root_seed']}, {len(prov['seeds'])} seeds, "
             f"{result['attempted']} trials, trace {int(result['trace'])}"]

    def line(name, value, unit, note):
        lines.append(f"  {name:<48} {value:>14.6g} {unit:<7} {note}")

    for name, m in result["metrics"].items():
        line(name, m["value"], m["unit"], f"n={m['samples']}")
    if not result["trace"]:
        line("seed_median_s", result["seed_median_s"], "s", f"n={len(prov['seeds'])}")
        for kind, value in result["kind_trial_s"].items():
            line(f"{kind}_trial_s", value, "s", f"n={prov['trials_per_kind'][kind]}")
    failed, attempted = result["failed"], result["attempted"]
    line("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} trials")
    for t in result["trials"]:
        for failure in t["failures"]:
            lines.append(f"  FAILED seed {t['seed']} {t['kind']}: {failure}")
    return lines


def run_one(workload: Workload, args) -> int:
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    result = run.measure()
    result.update(workload=workload.name, trace=bool(args.trace), provenance=provenance(run))
    path = OUT / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for line in report_lines(workload, result):
        print(line)
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
    print(json.dumps(final), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        child = json.loads(lines[-1])
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="root seed of the seed list")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0
    (OUT / workload.name).mkdir(parents=True, exist_ok=True)
    from national_contest import check

    check()
    return run_one(workload, args)


if __name__ == "__main__":
    sys.exit(main())
