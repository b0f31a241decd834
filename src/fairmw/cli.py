"""Batch experiment harness.

Subcommands:

* run             -- execute repeated trials, write summary.json + rounds.csv
* stats           -- dataset statistics for a (csv, preset) pair, JSON on stdout
* validate-bounds -- run trials and check every deterministic margin, write bounds.json
* sweep           -- re-run one config across a list of parameter values

Configs are flat ``key = value`` text files (# comments, blank lines ok).
Everything emitted is a pure function of (config, seed): floats are
written as their shortest round-trip repr, trial results are assembled in
trial order whatever the worker count, and no timestamps appear anywhere.

Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime error (out of
memory included), 5 bound violation.  FAIRMW_LOG={error,warn,info,debug}
controls stderr logging (default warn).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import CONFIG_KEY, CONFIG_KEYS, Key, RunConfig, recommended_eta, trial_seed_sequence
from .engines import run_trial
from .errors import (
    ConfigError,
    DegenerateData,
    EmptyDataset,
    FairmwError,
    FormatError,
    SchemaError,
)
from .experts import (
    ErrorProfile,
    MatrixEnsemble,
    SyntheticEnsemble,
    load_prediction_file,
    train_builtin,
)
from .ingest import (
    dataset_stats,
    load_dataset,
    load_preset,
    parse_pairs,
    reshuffle,
    split_shuffle,
    synth_stream,
)
from .metrics import validate_bounds

__all__ = ["main", "parse_config", "build_spec", "ExperimentSpec"]

logger = logging.getLogger("fairmw.cli")

MARGIN_THRESHOLD = -1e-9

ROUNDS_HEADER = ("t,engine,trial_mean_regret_realized,trial_mean_regret_expected,"
                 "fpr_gap,fnr_gap,eer_gap,q_a_neg,q_b_neg")
ROUNDS_CHUNK = 8192  # rounds.csv rows formatted per write

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


# ---------------------------------------------------------------------------
# Config file -> ExperimentSpec


def parse_config(path) -> dict[str, str]:
    """Read a flat key = value file into an ordered dict of raw strings."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    out: dict[str, str] = {}
    for lineno, key, value in parse_pairs(text, path, ConfigError):
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class ExperimentSpec:
    """Fully validated experiment description (before data is touched)."""

    run: RunConfig
    raw: dict[str, str]                 # config echo, post-override
    stream_kind: str                    # "synthetic" | "dataset"
    stream_params: tuple[float, float, float] | None = None   # synthetic (p, mu_a, mu_b)
    data_path: str | None = None
    data_preset: str | None = None
    split_ratio: float = 0.7
    experts_source: str = "synthetic"   # synthetic | file | builtin
    profiles: tuple[tuple[str, ErrorProfile], ...] = ()
    experts_file: str | None = None
    experts_kinds: tuple[str, ...] = ()
    include_group: bool = True
    epochs: int = 500
    epsilon: float | None = None        # fairness-bound plug-in override


def build_spec(cfg: dict[str, str], source: str = "<config>") -> ExperimentSpec:
    """Read raw config keys through their CONFIG_KEYS entries and assemble
    an ExperimentSpec; RunConfig range-checks its own fields."""
    cfg = dict(cfg)
    known: set[str] = set()

    def take(name: str, key: Key | None = None):
        known.add(name)
        key = key or CONFIG_KEY[name]
        raw = cfg.get(name, key.default)
        try:
            value = None if raw is None else key.parse(raw)
        except (ValueError, KeyError):
            raise ConfigError(f"{name}: expected {key.range}, got {raw!r}") from None
        if key.field is None:
            key.check(value, name=name)
        return value

    run = RunConfig(**{key.field: take(key.names[0]) if len(key.names) == 1
                       else tuple(map(take, key.names)) for key in CONFIG_KEYS if key.field})
    epsilon, data_path, data_preset, split_ratio = map(
        take, ("epsilon", "data.path", "data.preset", "data.split_ratio"))
    stream_kind = take("stream.kind") or (
        "dataset" if data_path else "synthetic" if "stream.p" in cfg else None)
    if stream_kind is None:
        raise ConfigError(
            f"{source}: set stream.kind to synthetic or dataset "
            "(dataset mode also needs data.path)")

    rates = ("stream.p", "stream.mu_a", "stream.mu_b")
    stream_params = None
    if stream_kind == "synthetic":
        data_keys = sorted(k for k in cfg if k.startswith("data."))
        if data_keys:
            raise ConfigError(
                f"{', '.join(data_keys)}: stream.kind=synthetic conflicts with data.* keys")
        for key in rates:
            if key not in cfg:
                raise ConfigError(f"synthetic stream needs {key}")
        stream_params = tuple(map(take, rates))
    else:
        if any(k in cfg for k in rates):
            raise ConfigError("stream.* rate keys only apply to synthetic streams")
        if not data_path:
            raise ConfigError("dataset stream needs data.path")
        if not data_preset:
            raise ConfigError("dataset stream needs data.preset")

    experts_source = take("experts.source") or (
        "synthetic" if stream_kind == "synthetic" else "builtin")

    # Only the chosen source's keys are read; any other experts.* key is an error.
    profiles: list[tuple[str, ErrorProfile]] = []
    experts_file, kinds, include_group, epochs = None, (), True, 500
    if experts_source == "synthetic":
        for key in [k for k in cfg if k.startswith("experts.profile.")]:
            name = key[len("experts.profile."):]
            if not name:
                raise ConfigError(f"{key}: profile needs a name suffix")
            profiles.append((name, ErrorProfile(*take(key, CONFIG_KEY["experts.profile.<name>"]))))
        if len(profiles) < 2:
            raise ConfigError("experts.source=synthetic needs at least 2 experts.profile.* keys")
    elif experts_source == "file":
        experts_file = take("experts.file")
        if not experts_file:
            raise ConfigError("experts.source=file needs experts.file")
    else:  # builtin
        if stream_kind != "dataset":
            raise ConfigError("experts.source=builtin needs a dataset stream to train on")
        kinds, include_group, epochs = map(
            take, ("experts.kinds", "experts.include_group", "experts.epochs"))
    stray = sorted(k for k in set(cfg) - known if k.startswith("experts."))
    if stray:
        raise ConfigError(f"{', '.join(stray)}: not read by experts.source={experts_source}")
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(f"{source}: unknown keys: {', '.join(unknown)}")

    return ExperimentSpec(
        run=run, raw=cfg, stream_kind=stream_kind, stream_params=stream_params,
        data_path=data_path, data_preset=data_preset, split_ratio=split_ratio,
        experts_source=experts_source, profiles=tuple(profiles),
        experts_file=experts_file, experts_kinds=kinds,
        include_group=include_group, epochs=epochs, epsilon=epsilon)


def load_config(args) -> dict[str, str]:
    """The config file's keys with the --seed / --trials overrides applied;
    ``--workers`` below 1 is a config error."""
    if args.workers < 1:
        raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
    cfg = parse_config(args.config)
    for key in ("seed", "trials"):
        if getattr(args, key) is not None:
            cfg[key] = str(getattr(args, key))
    return cfg


def load_spec(args) -> ExperimentSpec:
    return build_spec(load_config(args), source=str(args.config))


# ---------------------------------------------------------------------------
# Payload preparation (everything trials share, built once)


@dataclass
class TrialPayload:
    run: RunConfig
    stream_params: tuple[float, float, float] | None    # synthetic (p, mu_a, mu_b)
    test_stream: tuple[np.ndarray, np.ndarray] | None   # dataset: test split's (group, label)
    ensemble: object
    epsilon: float | None


def prepare_payload(spec: ExperimentSpec) -> tuple[TrialPayload, dict]:
    """Resolve data, experts and the effective horizon; returns run info too."""
    run = spec.run
    info: dict = {"ingest_report": None, "data_stats": None}

    test = None   # dataset mode: the test split's (group, label)
    if spec.stream_kind == "dataset":
        schema = load_preset(spec.data_preset)
        (features, group, label), report = load_dataset(spec.data_path, schema)
        info["ingest_report"] = report.to_dict()
        info["data_stats"] = dataset_stats(group, label).to_dict()
        train_idx, test_idx = split_shuffle(len(label), spec.split_ratio, run.seed)
        # Trials read only group and label; only builtin experts read features.
        test = (group[test_idx], label[test_idx])
        if "horizon" not in spec.raw:
            run = dataclasses.replace(run, horizon=len(test_idx))

    if spec.experts_source == "synthetic":
        ensemble = SyntheticEnsemble([p for _, p in spec.profiles],
                                     [n for n, _ in spec.profiles])
    elif spec.experts_source == "file":
        ensemble = load_prediction_file(spec.experts_file)
        if spec.stream_kind == "dataset":
            # One row per kept dataset row, in CSV order: key it to the test split.
            if ensemble.num_rounds != len(label):
                raise FormatError(
                    f"{spec.experts_file}: {ensemble.num_rounds} prediction rows, but "
                    f"the dataset keeps {len(label)} rows (one row per kept row)")
            ensemble = MatrixEnsemble(ensemble.names, ensemble.matrix[test_idx])
    else:  # builtin: every model predicts the test split once
        # The one feature matrix is written in split order, training rows then
        # test rows; the coded columns go before the first model trains.
        x = features.matrix(np.concatenate((train_idx, test_idx)),
                            group if spec.include_group else None)
        del features
        models = [train_builtin(x[:len(train_idx)], label[train_idx], kind, epochs=spec.epochs,
                                seed=run.seed + 7919 * i)
                  for i, kind in enumerate(spec.experts_kinds)]
        ensemble = MatrixEnsemble(
            [f"{kind}_{i}" for i, kind in enumerate(spec.experts_kinds)],
            np.column_stack([m.predict(x[len(train_idx):]) for m in models]))

    epsilon = spec.epsilon
    if epsilon is None and spec.experts_source == "synthetic" and spec.profiles:
        epsilon = max(p.max_cell_gap() for _, p in spec.profiles)

    info["d"] = ensemble.d
    info["experts"] = list(ensemble.names)
    info["eta"] = run.eta if run.eta is not None else recommended_eta(run.horizon, ensemble.d)
    logger.info("prepared %s run: d=%d, horizon=%d, eta=%g",
                run.engine, ensemble.d, run.horizon, info["eta"])
    return TrialPayload(run, spec.stream_params, test, ensemble, epsilon), info


# ---------------------------------------------------------------------------
# Per-trial execution (worker-safe)


_PAYLOAD: TrialPayload | None = None


def _worker_init(payload: TrialPayload) -> None:
    global _PAYLOAD
    _PAYLOAD = payload


def _run_one_trial(trial: int) -> dict:
    pl = _PAYLOAD
    cfg = pl.run
    ensemble = pl.ensemble
    if pl.test_stream is None:
        stream_ss = trial_seed_sequence(cfg.seed, trial)[0]
        rng = np.random.default_rng(stream_ss)
        stream = synth_stream(*pl.stream_params, cfg.horizon, rng)
    else:
        group, label = pl.test_stream
        order = reshuffle(len(group), cfg.seed, trial)
        stream = (group[order], label[order])
        if isinstance(ensemble, MatrixEnsemble):   # keyed to the test split
            ensemble = MatrixEnsemble(ensemble.names, ensemble.matrix[order])
    traj = run_trial(cfg, stream, ensemble, trial)

    report = validate_bounds(traj, cfg, epsilon=pl.epsilon)
    (fpr_a, fpr_b), (fnr_a, fnr_b), (err_a, err_b) = traj.rates.tolist()
    violations = sorted((k, v) for k, v in report.margins.items() if v < MARGIN_THRESHOLD)
    q_final = None   # fairness_aware: q_{z,-} of the last round, then q_{z,+} = 1 - q_{z,-}
    if traj.q_neg is not None:
        q_a, q_b = traj.q_neg[-1].tolist()
        q_final = [q_a, q_b, 1.0 - q_a, 1.0 - q_b]

    summary = {
        "trial": trial,
        "error_rate": traj.error_rate(),
        "err_a": err_a, "err_b": err_b,
        "fpr_a": fpr_a, "fpr_b": fpr_b,
        "fnr_a": fnr_a, "fnr_b": fnr_b,
        **{key: float(getattr(traj, key)[-1]) for key in
           ("fpr_gap", "fnr_gap", "eer_gap", "regret_realized", "regret_expected")},
        "min_bound_margin": report.min_margin(),
        "gamma_eta": report.gamma_eta,
        "epsilon_used": report.epsilon_used,
        "fairness_bound_rhs": report.fairness_bound_rhs,
        "q_final": q_final,
        "alpha_sums": None if traj.alpha_sums is None else traj.alpha_sums.tolist(),
        "counts": traj.counts.tolist(),
    }
    q_neg = traj.q_neg if traj.q_neg is not None else np.full((traj.T, 2), np.nan)
    series = np.column_stack([
        traj.regret_realized, traj.regret_expected,
        traj.fpr_gap, traj.fnr_gap, traj.eer_gap, q_neg])
    return {"trial": trial, "summary": summary, "series": series,
            "margins": report.margins, "violations": violations}


class RoundSums:
    """Per-round sums over trials of the seven rounds.csv series.

    Each trial's (T, 7) series is added in trial order as it arrives and
    then dropped.  NaN entries are skipped and counted out, so ``means``
    is NaN only where no trial has a value.  The sums start from +0.0, as
    numpy's sum over a stacked trial axis does, so the means are bitwise
    those of stacking the trials whenever T >= 2.
    """

    def __init__(self, T: int):
        self.total = np.zeros((T, 7))
        self.count = np.zeros((T, 7), dtype=np.int32)

    def add(self, series: np.ndarray) -> None:
        finite = np.isfinite(series)
        self.total += np.where(finite, series, 0.0)
        self.count += finite

    def means(self, lo: int, hi: int) -> np.ndarray:
        """Trial means of rounds lo+1 .. hi, shape (hi - lo, 7)."""
        count = self.count[lo:hi]
        out = np.full(count.shape, np.nan)
        np.divide(self.total[lo:hi], count, out=out, where=count > 0)
        return out


def _in_order(pool, trials: int, ahead: int):
    """Yield every trial's result in trial order, keeping at most ``ahead``
    trials submitted beyond the one being collected."""
    pending = deque()
    try:
        for trial in range(trials):
            pending.append(pool.submit(_run_one_trial, trial))
            if len(pending) > ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def execute_trials(payload: TrialPayload, workers: int) -> tuple[list[dict], RoundSums]:
    """Run all trials; returns their results in trial order and the round sums.

    Results are collected in trial order regardless of workers; each
    trial's series goes into the sums as it is collected and is not kept.
    A pool has at most 2 * workers trials submitted beyond the one being
    collected, so the parent holds at most that many finished results.
    """
    trials = payload.run.trials
    workers = min(workers, trials)
    sums = RoundSums(payload.run.horizon)

    def collect(outputs) -> list[dict]:
        results = []
        for r in outputs:
            sums.add(r.pop("series"))
            results.append(r)
        return results

    if workers <= 1:
        _worker_init(payload)
        return collect(map(_run_one_trial, range(trials))), sums
    with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                             initargs=(payload,)) as pool:
        return collect(_in_order(pool, trials, 2 * workers)), sums


# ---------------------------------------------------------------------------
# Output assembly


def _jsonsafe(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonsafe(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonsafe(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _aggregate(results: list[dict], key: str) -> dict:
    """Mean, std and count of a summary key over the trials that define it:
    None and NaN are undefined."""
    vals = np.array([r["summary"][key] for r in results], dtype=float)   # None -> NaN
    defined = vals[~np.isnan(vals)]
    if defined.size == 0:
        return {"mean": None, "std": None, "count": 0}
    return {"mean": float(defined.mean()), "std": float(defined.std()),
            "count": int(defined.size)}


_AGG_KEYS = ("error_rate", "err_a", "err_b", "fpr_gap", "fnr_gap", "eer_gap",
             "regret_realized", "regret_expected", "min_bound_margin")


def summary_doc(spec: ExperimentSpec, payload: TrialPayload, info: dict,
                results: list[dict]) -> dict:
    run = payload.run
    agg = {k: _aggregate(results, k) for k in _AGG_KEYS}
    budget = {"fpr": run.fairness_budget[0], "fnr": run.fairness_budget[1]}
    for k in ("fpr", "fnr"):
        mean = agg[f"{k}_gap"]["mean"]
        budget[f"{k}_within"] = None if mean is None else bool(mean <= budget[k])
    return {
        "engine": run.engine,
        "horizon": run.horizon,
        "eta": info["eta"],
        "seed": run.seed,
        "trials": run.trials,
        "d": info["d"],
        "experts": info["experts"],
        "config": dict(spec.raw),
        "ingest_report": info["ingest_report"],
        "data_stats": info["data_stats"],
        "trial_results": [r["summary"] for r in results],
        "aggregate": agg,
        "fairness_budget": budget,
    }


def write_rounds_csv(path: Path, engine: str, sums: RoundSums) -> None:
    """Format the trial means of every round, ROUNDS_CHUNK rounds at a time.

    The two regret columns are divided by t; a cell with no finite value
    in any trial is left empty.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ROUNDS_HEADER + "\n")
        for lo in range(0, len(sums.total), ROUNDS_CHUNK):
            means = sums.means(lo, lo + ROUNDS_CHUNK)
            rounds = range(lo + 1, lo + len(means) + 1)
            means[:, :2] /= np.array(rounds, dtype=float)[:, None]
            cols = [[repr(v) if math.isfinite(v) else "" for v in means[:, j].tolist()]
                    for j in range(7)]
            fh.write("".join(f"{t},{engine},{','.join(cells)}\n"
                             for t, *cells in zip(rounds, *cols)))


# ---------------------------------------------------------------------------
# Subcommands


def _write_run(outdir: Path, spec: ExperimentSpec, payload: TrialPayload, info: dict,
               results: list[dict], sums: RoundSums) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "summary.json", summary_doc(spec, payload, info, results))
    write_rounds_csv(outdir / "rounds.csv", payload.run.engine, sums)


def cmd_run(args) -> int:
    spec = load_spec(args)
    payload, info = prepare_payload(spec)
    results, sums = execute_trials(payload, args.workers)
    _write_run(Path(args.out), spec, payload, info, results, sums)
    logger.info("wrote %s and rounds.csv", Path(args.out) / "summary.json")
    return 0


def cmd_validate_bounds(args) -> int:
    spec = load_spec(args)
    payload, info = prepare_payload(spec)
    results, _ = execute_trials(payload, args.workers)
    violations = [{"trial": r["trial"], "name": name, "margin": margin}
                  for r in results for name, margin in r["violations"]]
    doc = {
        "engine": payload.run.engine,
        "eta": info["eta"],
        "trials": payload.run.trials,
        "threshold": MARGIN_THRESHOLD,
        "ok": not violations,
        "violations": violations,
        "trial_reports": [{
            "trial": r["trial"],
            "gamma_eta": r["summary"]["gamma_eta"],
            "epsilon_used": r["summary"]["epsilon_used"],
            "fairness_bound_rhs": r["summary"]["fairness_bound_rhs"],
            "min_margin": r["summary"]["min_bound_margin"],
            "margins": r["margins"],
        } for r in results],
    }
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "bounds.json", doc)
    if violations:
        first = violations[0]
        print(f"bound violation: trial {first['trial']}, {first['name']}, "
              f"margin {first['margin']!r}", file=sys.stderr)
        return 5
    logger.info("all margins >= %g across %d trials", MARGIN_THRESHOLD, len(results))
    return 0


def cmd_stats(args) -> int:
    CONFIG_KEY["data.split_ratio"].check(args.split_ratio, name="--split-ratio")
    CONFIG_KEY["seed"].check(args.seed, name="--seed")
    schema = load_preset(args.preset)
    (_, group, label), report = load_dataset(args.data, schema)
    stats = dataset_stats(group, label)
    _, test_idx = split_shuffle(len(label), args.split_ratio, args.seed)
    doc = {
        "stats": {**stats.to_dict(), "n_rounds": len(test_idx), "n_total": len(label)},
        "split_ratio": args.split_ratio,
        "ingest_report": report.to_dict(),
    }
    print(json.dumps(_jsonsafe(doc), indent=2, sort_keys=True))
    return 0


def _parse_sweep_values(param: str, text: str) -> list[tuple[str, dict[str, str]]]:
    """Return (label, config-key overrides) per swept value: comma-separated
    values of one key, or semicolon-separated comma triples of three."""
    names = next(k.names for k in CONFIG_KEYS if k.field == {"lambda": "lam"}.get(param, param))
    items = []
    for value in (v.strip() for v in text.split(";" if len(names) > 1 else ",") if v.strip()):
        parts = [v.strip() for v in value.split(",")]
        if len(parts) != len(names):
            raise ConfigError(f"sweep value {value!r}: expected {len(names)} numbers")
        items.append((value, dict(zip(names, parts))))
    if not items:
        raise ConfigError("sweep needs at least one value")
    return items


def cmd_sweep(args) -> int:
    base = load_config(args)
    values = _parse_sweep_values(args.param, args.values)
    outroot = Path(args.out)
    outroot.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, (label, overrides) in enumerate(values):
        cfg = {**base, **overrides}
        spec = build_spec(cfg, source=f"{args.config}[{args.param}={label}]")
        payload, info = prepare_payload(spec)
        results, sums = execute_trials(payload, args.workers)
        sub = outroot / f"{args.param}_{i}"
        _write_run(sub, spec, payload, info, results, sums)
        manifest.append({"index": i, "value": label, "dir": sub.name})
        logger.info("sweep %s=%s done", args.param, label)
    _write_json(outroot / "sweep.json", {"parameter": args.param, "values": manifest})
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmw",
        description="Run online expert-selection experiments with fairness accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="parallel trial workers")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trials", type=int, default=None, help="override config trials")

    p_run = sub.add_parser("run", help="execute trials, write summary.json/rounds.csv")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate-bounds", help="check deterministic bound margins")
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate_bounds)

    p_stats = sub.add_parser("stats", help="dataset statistics as JSON on stdout")
    p_stats.add_argument("--data", required=True, help="dataset CSV path")
    p_stats.add_argument("--preset", required=True, help="schema preset name or path")
    p_stats.add_argument("--split-ratio", type=float, default=0.7)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.set_defaults(func=cmd_stats)

    p_sweep = sub.add_parser("sweep", help="repeat a run across parameter values")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         choices=["eta", "lambda", "b_tolerance", "q_recompute_stride"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; semicolon-separated triples "
                              "for lambda/b_tolerance")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _init_logging() -> None:
    level_name = os.environ.get("FAIRMW_LOG", "warn").lower()
    level = _LOG_LEVELS.get(level_name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    if level_name not in _LOG_LEVELS:
        logger.warning("unknown FAIRMW_LOG value %r, using warn", level_name)


def main(argv=None) -> int:
    _init_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SchemaError, FormatError, EmptyDataset, DegenerateData, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except FairmwError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 4
    except MemoryError:
        print("runtime error: out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
