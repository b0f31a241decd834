"""The benchmark's three workloads and the inputs each one gets from a seed.

Every workload is one ``fairmw run`` invocation with ``--seed``,
``--trials`` and ``--workers`` always given.  ``prepare`` writes whatever
the run reads (only ``dataset_builtin`` needs a generated file) and returns
the command-line arguments together with what the correctness checks
expect.  Nothing here imports fairmw: the expectations come from the
config files and the generator, not from the program under test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import census

BENCH_DIR = Path(__file__).resolve().parent
PRESET_CFG = Path("src", "fairmw", "presets", "synthetic_biased.cfg")


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path            # relative to the checkout root
    trials: int
    parallel: bool          # workers = core count, else 1
    csv_rows: int = 0       # dataset_builtin only
    csv_missing_share: float = 0.0


WORKLOADS = {
    # The paper's headline engine on the reference config: per-round q
    # assembly and solve dominate a trial, and trials spread over the pool.
    "fair_preset": Workload("fair_preset", PRESET_CFG, trials=8, parallel=True),
    # Never calls qopt or estimators; output writing, Trajectory storage
    # and peak memory grow with the horizon.
    "mw_long": Workload("mw_long", Path("bench", "configs", "mw_long.cfg"),
                        trials=2, parallel=False),
    # Set-up (CSV parsing, one-hot encoding, expert training) is a large
    # share of the run, and each round evaluates models on features.
    "dataset_builtin": Workload("dataset_builtin",
                                Path("bench", "configs", "dataset_builtin.cfg"),
                                trials=3, parallel=False, csv_rows=24000,
                                csv_missing_share=0.074),
}


def core_count() -> int:
    """Cores this process may run on (never more than the machine has)."""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def parse_config(path) -> dict[str, str]:
    """Flat ``key = value`` lines; comments and blank lines skipped."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


@dataclass
class Prepared:
    """One workload made concrete for a seed: what to run and what to expect."""

    workload: Workload
    fairmw_args: list[str]     # after "run", minus --out and --workers
    cwd: Path
    cfg: dict[str, str]        # effective config (command-line overrides applied)
    planted: dict | None       # census generator result (dataset_builtin)

    def argv(self, out: Path, workers: int) -> list[str]:
        return ["run", *self.fairmw_args, "--out", str(out), "--workers", str(workers)]


def prepare(workload: Workload, root: Path, rundir: Path, seed: int,
            trials: int | None = None) -> Prepared:
    """Write the workload's generated inputs under ``rundir``."""
    trials = workload.trials if trials is None else trials
    config = (root / workload.config).resolve()
    cfg = parse_config(config)
    cfg.update(seed=str(seed), trials=str(trials))
    planted = None
    if workload.csv_rows:
        planted = census.generate(rundir / cfg["data.path"], seed,
                                  workload.csv_rows, workload.csv_missing_share)
    args = ["--config", str(config), "--seed", str(seed), "--trials", str(trials)]
    return Prepared(workload, args, rundir, cfg, planted)
