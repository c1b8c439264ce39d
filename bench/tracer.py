"""Spans around the package's layer functions, recorded from outside the program.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every loaded ``electaudit`` module that holds it (``from .core import
assorter_mean`` makes a second reference that must be rebound too), and
``uninstall`` puts the originals back.  The program's source is unchanged.

A span records its id, its parent's id, the trial id, its name, start and
end.  Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import csv
import functools
import sys
import time

PACKAGE = "electaudit"
ROOT_SPAN = "bench.trial"

# (module, attribute, span name).  "Class.method" wraps a method on the class
# itself, so isinstance checks against the class keep working.
TARGETS = (
    ("core", "assorter_mean", "core.assorter_mean"),
    ("alpha", "combined_reported", "alpha.combined_reported"),
    ("alpha", "_draw_batches_without_replacement", "alpha.draw_order"),
    ("alpha", "batch_audit_loop", "alpha.batch_audit_loop"),
    ("alpha", "alpha_audit", "alpha.alpha_audit"),
    ("alpha", "alpha_batch_audit", "alpha.alpha_batch_audit"),
    ("batchcomp", "batchcomp_audit", "batchcomp.batchcomp_audit"),
    ("batchcomp", "make_batch_assorter", "batchcomp.make_batch_assorter"),
    ("batchcomp", "batch_assorter_value", "batchcomp.batch_assorter_value"),
    ("knesset", "allocate_seats", "knesset.allocate_seats"),
    ("knesset", "generate_assertions", "knesset.generate_assertions"),
    ("knesset", "assertion_margin", "knesset.assertion_margin"),
    ("apportionment", "highest_averages", "apportionment.highest_averages"),
    ("harness", "deal_batches", "harness.deal_batches"),
    ("harness", "inject_ballot_errors", "harness.inject_ballot_errors"),
    ("harness", "run_election_trial", "harness.run_election_trial"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("census", "generate_census_population", "census.generate_census_population"),
    ("census", "CensusData.__init__", "census.CensusData"),
    ("census", "inject_survey_disagreement", "census.inject_survey_disagreement"),
    ("census", "census_rla", "census.census_rla"),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, keep=None):
        # keep: span name -> f(args, kwargs, result), whose value is stored
        # per call in ``kept`` for counts read off a layer's return value
        self.keep = dict(keep or {})
        self.spans: list[tuple] = []  # (id, parent id, trial, name, start, end, self_s)
        self.kept: list[tuple] = []  # (trial, name, value)
        self.trial = None
        self._stack: list[list] = []  # [span id, children's duration] per open span
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        summarize = self.keep.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent else -1, self.trial, name,
                              start, end, duration - frame[1]))
            if summarize is not None:
                self.kept.append((self.trial, name, summarize(args, kwargs, result)))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    def call(self, trial, fn, *args, **kwargs):
        """Run ``fn`` under a root span that belongs to ``trial``.

        The root's self time is the part of the trial no layer span covers.
        """
        self.trial = trial
        try:
            return self._wrap(fn, ROOT_SPAN)(*args, **kwargs)
        finally:
            self.trial = None

    def trial_stats(self, trial) -> dict[str, tuple[float, int]]:
        """name -> (summed self time, calls) over the spans of one trial."""
        out: dict[str, tuple[float, int]] = {}
        for _, _, t, name, _, _, self_s in self.spans:
            if t == trial:
                total, calls = out.get(name, (0.0, 0))
                out[name] = (total + self_s, calls + 1)
        return out

    def root_duration(self, trial) -> float:
        """Summed duration of the trial's root spans: its traced wall time."""
        return sum(end - start for _, _, t, name, start, end, _ in self.spans
                   if t == trial and name == ROOT_SPAN)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["span", "parent", "trial", "name", "start", "end", "self_s"])
            w.writerows(self.spans)
