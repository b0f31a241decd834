"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test prints exactly one line of the form

    criterion N: PASS|FAIL|SKIP - <what was checked>

so the suite's terminal output doubles as the release checklist.
"""

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairmw.cli import (
    _aggregate,
    build_spec,
    execute_trials,
    main,
    parse_config,
    prepare_payload,
)
from fairmw.domain import RunConfig, trial_seed_sequence
from fairmw.engines import run_trial
from fairmw.errors import DomainError
from fairmw.experts import ErrorProfile, SyntheticEnsemble
from fairmw.ingest import dataset_stats, load_dataset, load_preset, split_shuffle, synth_stream
from fairmw.metrics import gamma, regret, validate_bounds
from fairmw.qopt import REG_WEIGHT
from scalar_reference import ConstraintSystem, dirichlet_rate, objective, solve_q

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
WORKERS = min(4, os.cpu_count() or 1)


@contextlib.contextmanager
def criterion(n, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException as e:
        label = "SKIP" if isinstance(e, pytest.skip.Exception) else "FAIL"
        print(f"criterion {n}: {label} - {desc}", flush=True)
        if label == "SKIP":
            # Captured stdout of a skipped test never reaches the -rA
            # summary, so fold the verdict line into the skip reason too.
            pytest.skip(f"criterion {n}: SKIP - {desc} ({e})")
        raise
    print(f"criterion {n}: PASS - {desc} ({time.monotonic() - start:.1f}s)", flush=True)


def synth_trial_stream(p, mu_a, mu_b, T, seed, trial):
    rng = np.random.default_rng(trial_seed_sequence(seed, trial)[0])
    return synth_stream(p, mu_a, mu_b, T, rng)


def test_criterion_1_mw_regret_bound():
    with criterion(1, "mw regret bound holds on 50 random configurations"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(50):
            d = int(rng.integers(2, 9))
            T = int(rng.integers(100, 5001))
            eta = float(rng.uniform(0.011, 0.489))
            seed = int(rng.integers(1 << 30))
            profiles = [ErrorProfile(*rng.uniform(0.02, 0.5, size=4))
                        for _ in range(d)]
            p = float(rng.uniform(0.2, 0.8))
            mu_a, mu_b = (float(v) for v in rng.uniform(0.1, 0.9, size=2))
            cfg = RunConfig(engine="mw", horizon=T, eta=eta, seed=seed)
            stream = synth_trial_stream(p, mu_a, mu_b, T, seed, 0)
            traj = run_trial(cfg, stream, SyntheticEnsemble(profiles))
            report = validate_bounds(traj, cfg)
            assert report.min_margin() >= -1e-9
        assert time.monotonic() - start < 30.0


BIASED = dict(p=0.85, mu_a=0.26, mu_b=0.16)

FIVE_EXPERTS = [
    ErrorProfile(0.04, 0.46, 0.09, 0.41),
    ErrorProfile(0.30, 0.10, 0.25, 0.15),
    ErrorProfile(0.16, 0.16, 0.11, 0.11),
    ErrorProfile(0.25, 0.25, 0.22, 0.22),
    ErrorProfile(0.42, 0.42, 0.45, 0.45),
]


def test_criterion_2_cell_loss_sandwich():
    with criterion(2, "per-cell loss sandwich holds on 20 seeded runs"):
        start = time.monotonic()
        ens = SyntheticEnsemble(FIVE_EXPERTS)
        for seed in range(20):
            cfg = RunConfig(engine="fairness_aware", horizon=10000, eta=None, seed=seed)
            stream = synth_trial_stream(T=10000, seed=seed, trial=0, **BIASED)
            traj = run_trial(cfg, stream, ens)
            report = validate_bounds(traj, cfg)
            # 4 cells x 5 experts (lemma 1) and 4 cells (lemma 2)
            assert len(report.margins) == 4 * 5 + 4
            assert report.min_margin() >= -1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_3_sublinear_regret():
    with criterion(3, "realized regret is sublinear at the reference horizons"):
        profiles = [ErrorProfile(e, e, e, e) for e in (0.1, 0.2, 0.3, 0.4, 0.5)]
        ens = SyntheticEnsemble(profiles)

        def mean_realized_regret(T):
            cfg = RunConfig(engine="mw", horizon=T, eta=None, seed=300, trials=20)
            total = 0.0
            for trial in range(20):
                stream = synth_trial_stream(0.5, 0.5, 0.5, T, cfg.seed, trial)
                total += regret(run_trial(cfg, stream, ens, trial))[0]
            return total / 20.0

        at_20000 = mean_realized_regret(20000)
        at_5000 = mean_realized_regret(5000)
        bound = 2.0 * math.sqrt(20000 * math.log(5)) + 3.0 * math.sqrt(20000)
        assert at_20000 <= bound
        assert at_20000 / 20000 < at_5000 / 5000


REFERENCE_STATS = {
    # dataset -> ((p, mu_a_pos, mu_b_pos, disparate_impact), test_rounds or None)
    "adult": ((0.851, 0.26, 0.16, 0.59), None),
    "german": ((0.853, 0.73, 0.5, 0.68), 300),
    "compas": ((0.398, 0.54, 0.39, 0.76), 1584),
}


def test_criterion_4_dataset_statistics():
    with criterion(4, "bundled dataset statistics match the reference table"):
        missing = [n for n in REFERENCE_STATS if not (DATA_DIR / f"{n}.csv").is_file()]
        if missing:
            pytest.skip(
                "dataset files not available: "
                + ", ".join(str(DATA_DIR / f"{n}.csv") for n in missing)
                + " (this build environment has no network access to fetch the"
                " public CSVs; place them as described in README 'Datasets'"
                " and re-run)")
        for name, (expected, test_rounds) in REFERENCE_STATS.items():
            (_, group, label), _ = load_dataset(DATA_DIR / f"{name}.csv", load_preset(name))
            stats = dataset_stats(group, label)
            got = (stats.p, stats.mu_a_pos, stats.mu_b_pos, stats.disparate_impact)
            for have, want in zip(got, expected):
                assert abs(have - want) <= 0.01, (name, got, expected)
            if test_rounds is not None:
                _, test = split_shuffle(len(label), 0.7, seed=0)
                assert len(test) == test_rounds, (name, len(test))


def test_criterion_5_fairness_direction():
    with criterion(5, "fairness-aware engine shrinks both rate gaps at small error cost"):
        start = time.monotonic()
        from importlib import resources
        base = parse_config(
            resources.files("fairmw").joinpath("presets", "synthetic_biased.cfg"))
        means = {}
        for engine in ("fairness_aware", "group_aware"):
            cfg = dict(base, engine=engine)
            spec = build_spec(cfg, source=f"synthetic_biased[{engine}]")
            payload, _ = prepare_payload(spec)
            results, _ = execute_trials(payload, WORKERS)
            means[engine] = {k: _aggregate(results, k)["mean"]
                             for k in ("fpr_gap", "fnr_gap", "error_rate")}
        fair, grp = means["fairness_aware"], means["group_aware"]
        assert fair["fpr_gap"] < grp["fpr_gap"], means
        assert fair["fnr_gap"] < grp["fnr_gap"], means
        assert fair["error_rate"] - grp["error_rate"] <= 0.03, means
        assert time.monotonic() - start < 300.0


def oracle_objective(system, resolution=1e-3):
    steps = np.arange(0.0, 1.0 + resolution / 2, resolution)
    a, b = np.meshgrid(steps, steps, indexing="ij")
    q = np.stack([a, b, 1.0 - a, 1.0 - b], axis=-1)
    resid = (q @ system.a.T - system.b) * system.lam
    reg = REG_WEIGHT * float(np.max(system.lam)) ** 2
    total = (resid ** 2).sum(axis=-1) + reg * ((q - 0.5) ** 2).sum(axis=-1)
    return float(total.min())


def test_criterion_6_q_solver_matches_oracle():
    with criterion(6, "q solver matches the 1e-3 grid oracle within 1e-6"):
        rng = np.random.default_rng(606)
        for _ in range(50):
            a = np.zeros((3, 4))
            a[0, 0], a[0, 1] = rng.uniform(-1, 1, size=2)
            a[1, 2], a[1, 3] = rng.uniform(-1, 1, size=2)
            a[2] = rng.uniform(-1, 1, size=4)
            system = ConstraintSystem(
                a=a, b=rng.uniform(-0.5, 0.5, size=3), lam=rng.uniform(0, 2, size=3))
            vec = np.array(solve_q(system))
            assert np.all((vec >= 0.0) & (vec <= 1.0))
            assert abs(vec[0] + vec[2] - 1.0) <= 1e-12
            assert abs(vec[1] + vec[3] - 1.0) <= 1e-12
            assert objective(system, vec) <= oracle_objective(system) + 1e-6


def test_criterion_7_gamma_checks():
    with criterion(7, "gamma coefficient value, limits and monotonicity"):
        assert abs(gamma(0.25) - 0.76778) <= 1e-5
        assert abs(gamma(0.5 - 1e-9) - 0.5) <= 1e-6
        assert 0.999999 < gamma(1e-9) < 1.0
        grid = np.linspace(0.001, 0.499, 100)
        vals = [gamma(float(e)) for e in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        for bad in (0.0, 0.5):
            with pytest.raises(DomainError):
                gamma(bad)


def test_criterion_8_estimator_convergence():
    with criterion(8, "dirichlet cell-rate estimates within 0.02 after 10000 samples"):
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            truth = rng.dirichlet(np.full(4, 5.0))
            cells = rng.choice(4, size=10000, p=truth)
            counts = np.bincount(cells, minlength=4).reshape(2, 2)   # [group, label]
            rates = dirichlet_rate(counts, 10000, 1.0).ravel()
            assert float(np.max(np.abs(rates - truth))) <= 0.02, (seed, rates, truth)


CRITERION_9_CONFIG = """\
engine = fairness_aware
horizon = 300
seed = 11
trials = 8
stream.kind = synthetic
stream.p = 0.85
stream.mu_a = 0.26
stream.mu_b = 0.16
experts.profile.sharp = 0.05,0.45,0.08,0.42
experts.profile.flat = 0.2,0.2,0.22,0.22
experts.profile.noisy = 0.4,0.4,0.4,0.4
"""


def test_criterion_9_replay_determinism(tmp_path):
    with criterion(9, "summary.json and rounds.csv byte-identical across reruns and workers"):
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(CRITERION_9_CONFIG, encoding="utf-8")
        outputs = []
        for name, workers in (("serial_1", 1), ("serial_2", 1), ("pool_4", 4)):
            out = tmp_path / name
            code = main(["run", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)])
            assert code == 0
            outputs.append((out / "summary.json").read_bytes()
                           + (out / "rounds.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
