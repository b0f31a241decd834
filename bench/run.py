"""fairmw benchmark: ``fairmw run`` end to end, one fresh process per operation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fairmw is imported from ``src/``.
The workload's inputs are made from ``--seed`` (see workloads.py), then
operations run back to back until ``--seconds`` have passed.  Each
operation is one complete ``fairmw run`` in a new process (child.py); its
outputs are checked (checks.py) and one that exits non-zero or fails a
check counts as failed.

``--trace 0`` reports the end-to-end metrics, each the median over the
operations.  ``--trace 1`` runs pairs of operations with one worker, the
first untraced and the second with every public fairmw function wrapped
(tracing.py), and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Generated inputs and outputs live under ``.bench_run/`` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
E2E_UNITS = {"run_s": "s", "setup_s": "s", "rounds_per_s": "rounds/s", "write_s": "s",
             "peak_rss_mb": "MB"}
# Every run ends well inside 180 s: no operation starts after this point
# if the previous one suggests it would not finish by it.
DEADLINE_S = 150.0


class Operation:
    """One ``fairmw run`` process and what it produced."""

    def __init__(self, prep: workloads.Prepared, rundir: Path, workers: int,
                 trace: bool, deadline: float):
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.digest: dict[str, str] = {}
        self.layers: dict[str, float] = {}
        self.absent: list[str] = []
        out, timings = rundir / "out", rundir / "timings.json"
        prefix = rundir / "spans"
        shutil.rmtree(out, ignore_errors=True)
        timings.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), str(timings),
               str(prefix) if trace else "-", *prep.argv(out, workers)]
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=prep.cwd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.errors.append("timed out")
            return
        finally:
            _reap_group(proc.pid)
        exit_ = time.monotonic()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            self.errors.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
            return
        stamps = json.loads(timings.read_text(encoding="utf-8"))
        rounds = int(prep.cfg["trials"]) * checks.expected_horizon(prep.cfg, prep.planted)
        self.metrics = {
            "run_s": exit_ - spawn,
            "setup_s": stamps["exec_start"] - spawn,
            "rounds_per_s": rounds / (stamps["exec_end"] - stamps["exec_start"]),
            "write_s": exit_ - stamps["exec_end"],
            "peak_rss_mb": stamps["peak_rss_kb"] / 1024.0,
        }
        self.errors = checks.check_run(prep.workload.name, out, prep.cfg, prep.planted)
        if self.errors:
            return
        self.digest = checks.digest(out)
        if trace:
            meta, *spans = tracing.load_spans(prefix)
            stats = tracing.layer_stats(meta["names"], *spans)
            self.layers, self.absent = tracing.per_layer_metrics(
                stats, meta, rounds, checks.output_bytes(out), overhead_pct=0.0)


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of an operation's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairmw" / "cli.py").is_file():
        print(f"no fairmw source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass


def measure(workload: workloads.Workload, args, rundir: Path) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    prep = workloads.prepare(workload, ROOT, rundir, args.seed)
    # Import fairmw once untimed, so the first operation does not pay for
    # compiling bytecode that every later run finds cached.
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT), "-", "-"],
                   check=True, cwd=rundir)

    cores = workloads.core_count()
    workers = cores if workload.parallel and not args.trace else 1
    # One round is one operation untraced, a pair (untraced, traced) traced.
    plan = [False, True] if args.trace else [False]
    ops: list[Operation] = []
    while True:
        round_start = time.monotonic()
        for traced in plan:
            ops.append(Operation(prep, rundir, workers, traced, deadline))
            print(f"operation {len(ops)}{' traced' if traced else ''}: "
                  + "  ".join(f"{k} {v:.6g}" for k, v in ops[-1].metrics.items())
                  + "".join(f"  error: {e}" for e in ops[-1].errors[:3]), file=sys.stderr)
        now = time.monotonic()
        if now - start >= args.seconds or now + 1.5 * (now - round_start) > deadline:
            break

    first = next((op.digest for op in ops if op.digest), {})
    for op in ops:
        if op.digest and not op.errors:
            op.errors = checks.same_bytes(first, op.digest)
    failed = [op for op in ops if op.errors]
    for op in failed[:3]:
        print(f"failed operation: {'; '.join(op.errors)}", file=sys.stderr)
    good = [op for op in ops if not op.errors]
    if not good:
        print("no operation succeeded", file=sys.stderr)
        return 1
    correct = not any(op.metrics for op in failed)  # ran to the end, outputs wrong

    print(f"workload {workload.name}  seed {args.seed}  trials {prep.cfg['trials']}  "
          f"workers {workers} of {cores} cores  operations {len(ops)}  failed {len(failed)}")
    if args.trace:
        metrics = trace_metrics(ops)
        if not metrics:
            print("no traced pair completed", file=sys.stderr)
            return 1
    else:
        metrics = {}
        for name, unit in E2E_UNITS.items():
            q1, med, q3 = quartiles([op.metrics[name] for op in good])
            print(f"  {name:<14} {med:>14.6g} {unit:<9} quartiles {q1:.6g} .. {q3:.6g}")
            metrics[name] = {"value": med, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def trace_metrics(ops: list[Operation]) -> dict:
    """Medians over the traced operations of each complete pair."""
    pairs = [(u, t) for u, t in zip(ops[::2], ops[1::2]) if not u.errors and not t.errors]
    if not pairs:
        return {}
    for untraced, traced in pairs:
        traced.layers["trace.overhead_pct"] = 100.0 * (
            untraced.metrics["rounds_per_s"] / traced.metrics["rounds_per_s"] - 1.0)
    absent = set(pairs[0][1].absent)
    metrics = {}
    for name, unit, _better, _span, _quantity in tracing.PER_LAYER:
        value = statistics.median(t.layers[name] for _, t in pairs)
        mark = "  absent" if name in absent else ""
        print(f"  {name:<44} {value:>14.6g} {unit}{mark}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"  absent: {', '.join(sorted(absent)) or 'none'}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
