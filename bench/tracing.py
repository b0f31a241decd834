"""Spans around fairmw's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function under the name through
which its caller looks it up (``solve_q`` is called as
``fairmw.engines.solve_q``, so that is the attribute wrapped) and each
traced method on its class.  A name that no longer exists is recorded as
absent instead of failing, so a refactor that merges or renames functions
leaves the benchmark running and the affected metrics marked absent.

Each span holds a name, a start, an end and the index of its parent span.
Spans are kept in flat in-memory arrays and written out once, when the run
ends; ``layer_stats`` then derives calls, inclusive time and self time (a
span's duration minus the part its child spans cover) per name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

# (span name, module, attribute path).  "*" stands for every class of the
# module that defines the method itself.
TARGETS = (
    ("cli.write_rounds_csv", "fairmw.cli", "write_rounds_csv"),
    ("ingest.synth_stream", "fairmw.cli", "synth_stream"),
    ("ingest.load_dataset", "fairmw.cli", "load_dataset"),
    ("ingest.split_shuffle", "fairmw.cli", "split_shuffle"),
    ("ingest.reshuffle", "fairmw.cli", "reshuffle"),
    ("experts.train_builtin", "fairmw.cli", "train_builtin"),
    ("engines.run_trial", "fairmw.cli", "run_trial"),
    ("metrics.validate_bounds", "fairmw.cli", "validate_bounds"),
    ("engines.step", "fairmw.engines", "mw_step"),
    ("engines.step", "fairmw.engines", "group_aware_step"),
    ("engines.step", "fairmw.engines", "rmw_step"),
    ("qopt.assemble_constraint_system", "fairmw.engines", "assemble_constraint_system"),
    ("qopt.solve_q", "fairmw.engines", "solve_q"),
    ("engines.Trajectory.record", "fairmw.engines", "Trajectory.record"),
    ("domain.WeightTable.update", "fairmw.domain", "WeightTable.update"),
    ("estimators.RateEstimates.update", "fairmw.estimators", "RateEstimates.update"),
    ("experts.round_predictions", "fairmw.experts", "*.round_predictions"),
)

# (metric, unit, better, span it is read from, quantity).  Per-round
# quantities divide by trials x horizon, as the workload's config sets them.
PER_LAYER = (
    ("cli.write_rounds_csv.s", "s", "lower", "cli.write_rounds_csv", "total_s"),
    ("cli.output.bytes", "bytes", "lower", None, "output_bytes"),
    ("cli.trial_series.bytes", "bytes", "lower", "cli.write_rounds_csv", "counter"),
    ("ingest.synth_stream.us_per_round", "us/round", "lower", "ingest.synth_stream",
     "us_per_round"),
    ("ingest.load_dataset.s", "s", "lower", "ingest.load_dataset", "total_s"),
    ("ingest.load_dataset.rows", "count", "higher", "ingest.load_dataset", "counter"),
    ("ingest.split_shuffle.s", "s", "lower", "ingest.split_shuffle", "total_s"),
    ("ingest.reshuffle.us_per_round", "us/round", "lower", "ingest.reshuffle",
     "us_per_round"),
    ("experts.train_builtin.s", "s", "lower", "experts.train_builtin", "total_s"),
    ("experts.round_predictions.us_per_round", "us/round", "lower",
     "experts.round_predictions", "us_per_round"),
    ("engines.rounds", "count", "higher", "engines.run_trial", "counter"),
    ("engines.run_trial.us_per_round", "us/round", "lower", "engines.run_trial",
     "us_per_round"),
    ("engines.run_trial.self_us_per_round", "us/round", "lower", "engines.run_trial",
     "self_us_per_round"),
    ("engines.step.self_us_per_round", "us/round", "lower", "engines.step",
     "self_us_per_round"),
    ("engines.Trajectory.record.us_per_round", "us/round", "lower",
     "engines.Trajectory.record", "us_per_round"),
    ("engines.trajectory.bytes", "bytes", "lower", "engines.run_trial", "counter"),
    ("domain.WeightTable.update.us_per_call", "us/call", "lower",
     "domain.WeightTable.update", "us_per_call"),
    ("estimators.RateEstimates.update.us_per_call", "us/call", "lower",
     "estimators.RateEstimates.update", "us_per_call"),
    ("qopt.assemble_constraint_system.us_per_call", "us/call", "lower",
     "qopt.assemble_constraint_system", "us_per_call"),
    ("qopt.solve_q.us_per_call", "us/call", "lower", "qopt.solve_q", "us_per_call"),
    ("qopt.solve_q.calls", "count", "lower", "qopt.solve_q", "calls"),
    ("metrics.validate_bounds.us_per_call", "us/call", "lower", "metrics.validate_bounds",
     "us_per_call"),
    ("trace.overhead_pct", "%", "lower", None, "overhead_pct"),
)


def _array_bytes(values) -> int:
    """Bytes held by the numpy arrays among ``values``."""
    return sum(v.nbytes for v in values if hasattr(v, "nbytes") and hasattr(v, "dtype"))


def _count_rounds(counters, args, kwargs, traj):
    counters["engines.rounds"] = counters.get("engines.rounds", 0) + int(traj.T)
    size = _array_bytes(vars(traj).values())
    counters["engines.trajectory.bytes"] = max(counters.get("engines.trajectory.bytes", 0),
                                               size)


def _count_rows(counters, args, kwargs, result):
    _, report = result
    counters["ingest.load_dataset.rows"] = (counters.get("ingest.load_dataset.rows", 0)
                                            + int(report.rows_read))


def _count_series(counters, args, kwargs, result):
    results = kwargs["results"] if "results" in kwargs else args[2]
    counters["cli.trial_series.bytes"] = (counters.get("cli.trial_series.bytes", 0)
                                          + _array_bytes(r["series"] for r in results))


# Counters read from a traced call's arguments or result.
HOOKS = {
    "engines.run_trial": _count_rounds,
    "ingest.load_dataset": _count_rows,
    "cli.write_rounds_csv": _count_series,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []   # span name ids index this list
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: set[str] = set()
        self.failed_hooks: set[str] = set()

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note span names with none left."""
        found: dict[str, bool] = {}
        for span, module_name, path in targets:
            found.setdefault(span, False)
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                owners = [v for v in vars(module).values()
                          if isinstance(v, type) and v.__module__ == module_name
                          and attr in vars(v)]
            elif owner_name:
                owner = getattr(module, owner_name, None)
                owners = [owner] if owner is not None and attr in vars(owner) else []
            else:
                owners = [module] if hasattr(module, attr) else []
            for owner in owners:
                setattr(owner, attr, self._wrap(getattr(owner, attr), span))
                found[span] = True
        self.absent = {span for span, ok in found.items() if not ok}

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        sid = self.names.index(span)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack, clock, hook = self.stack, time.perf_counter, HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.failed_hooks.add(span)
            return result

        return traced

    def dump(self, prefix) -> None:
        """Write the spans (``<prefix>.bin``) and their index (``<prefix>.json``)."""
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"names": self.names, "count": len(self.span_name),
                "counters": self.counters, "absent": sorted(self.absent),
                "failed_hooks": sorted(self.failed_hooks)}
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def load_spans(prefix):
    """Read a dump back: (meta, name ids, parents, starts, ends) as numpy arrays."""
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["count"]
    with open(f"{prefix}.bin", "rb") as fh:
        name = np.fromfile(fh, dtype=np.uint16, count=n)
        parent = np.fromfile(fh, dtype=np.int32, count=n)
        start = np.fromfile(fh, dtype=np.float64, count=n)
        end = np.fromfile(fh, dtype=np.float64, count=n)
    return meta, name, parent, start, end


def layer_stats(names, name, parent, start, end) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    return {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(names)}


def per_layer_metrics(stats: dict, meta: dict, rounds: int, output_bytes: int,
                      overhead_pct: float) -> tuple[dict[str, float], list[str]]:
    """Every PER_LAYER value for one traced run, and the names marked absent.

    A metric is absent when the span it is read from has no function left
    to wrap, or when its counter could not be read from the call; it is
    reported as 0.  A present function that was never called reads 0 too.
    """
    absent_spans = set(meta["absent"])
    values, absent = {}, []
    for metric, _unit, _better, span, quantity in PER_LAYER:
        s = stats.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if span in absent_spans or (quantity == "counter" and span in meta["failed_hooks"]):
            absent.append(metric)
            values[metric] = 0
        elif quantity == "output_bytes":
            values[metric] = output_bytes
        elif quantity == "overhead_pct":
            values[metric] = overhead_pct
        elif quantity == "counter":
            values[metric] = meta["counters"].get(metric, 0)
        elif quantity == "calls":
            values[metric] = s["calls"]
        elif quantity == "total_s":
            values[metric] = s["total_s"]
        elif quantity == "us_per_round":
            values[metric] = 1e6 * s["total_s"] / rounds
        elif quantity == "self_us_per_round":
            values[metric] = 1e6 * s["self_s"] / rounds
        else:  # us_per_call
            values[metric] = 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0
    return values, absent
