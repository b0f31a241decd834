"""Correctness checks on one ``fairmw run`` output directory.

Every expectation is computed here, from the config, the workload's
parameters and what the census generator planted; nothing calls into
fairmw.  Each check returns a list of failure messages, empty when the
outputs are correct, so a test can corrupt one output and see the
matching message appear.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

MARGIN_THRESHOLD = -1e-9
Z = 6.0   # sampling tolerances are Z standard errors
ROUNDS_HEADER = ["t", "engine", "trial_mean_regret_realized",
                 "trial_mean_regret_expected", "fpr_gap", "fnr_gap", "eer_gap",
                 "q_a_neg", "q_b_neg"]
OUTPUT_FILES = ("summary.json", "rounds.csv")


def load_outputs(outdir: Path) -> tuple[dict, list[str], list[list[str]]]:
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    with open(outdir / "rounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return summary, rows[0] if rows else [], rows[1:]


def digest(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


def output_bytes(outdir: Path) -> int:
    return sum((outdir / name).stat().st_size for name in OUTPUT_FILES)


def same_bytes(first: dict[str, str], this: dict[str, str]) -> list[str]:
    """Outputs of one workload must not change between runs of one invocation."""
    return [f"{name} differs from the first run of this invocation"
            for name in OUTPUT_FILES if first.get(name) != this.get(name)]


def _profiles(cfg: dict[str, str]) -> dict[str, tuple[float, float, float, float]]:
    """experts.profile.<name> = e_a_neg, e_a_pos, e_b_neg, e_b_pos."""
    return {key[len("experts.profile."):]: tuple(float(v) for v in value.split(","))
            for key, value in cfg.items() if key.startswith("experts.profile.")}


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values)


def expected_horizon(cfg: dict[str, str], planted: dict | None) -> int:
    if planted is None:
        return int(cfg["horizon"])
    kept = planted["rows_kept"]
    return kept - math.floor(float(cfg.get("data.split_ratio", "0.7")) * kept)


def check_common(summary: dict, header: list[str], rows: list[list[str]],
                 cfg: dict[str, str], horizon: int) -> list[str]:
    """Checks every workload's outputs must pass."""
    errors = []
    trials = summary.get("trial_results", [])
    if len(trials) != int(cfg["trials"]):
        errors.append(f"summary.json has {len(trials)} trials, expected {cfg['trials']}")
    if summary.get("horizon") != horizon:
        errors.append(f"summary.json horizon {summary.get('horizon')}, expected {horizon}")
    for tr in trials:
        margin = tr.get("min_bound_margin")
        if margin is None or margin < MARGIN_THRESHOLD:
            errors.append(f"trial {tr.get('trial')}: min_bound_margin {margin} "
                          f"below {MARGIN_THRESHOLD}")
    if header != ROUNDS_HEADER:
        errors.append(f"rounds.csv header {header}")
        return errors
    if len(rows) != horizon:
        errors.append(f"rounds.csv has {len(rows)} data rows, expected {horizon}")
    if [r[0] for r in rows] != [str(t) for t in range(1, len(rows) + 1)]:
        errors.append("rounds.csv t column is not 1..T")
    if rows and trials:
        last = float(rows[-1][3]) * len(rows)
        mean = _mean(tr["regret_expected"] for tr in trials)
        if not math.isclose(last, mean, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"last trial_mean_regret_expected x T = {last!r}, "
                          f"mean trial regret_expected = {mean!r}")
    return errors


def best_assignment_gaps(cfg: dict[str, str]) -> tuple[float, float]:
    """FPR and FNR gaps when each group uses its own best expert.

    A group's best expert minimises its error rate
    (1 - mu) * e_neg + mu * e_pos under the stream's positive rate.
    """
    mu = {"a": float(cfg["stream.mu_a"]), "b": float(cfg["stream.mu_b"])}
    profiles = _profiles(cfg).values()
    best = {}
    for g, off in (("a", 0), ("b", 2)):
        best[g] = min(profiles, key=lambda e: (1 - mu[g]) * e[off] + mu[g] * e[off + 1])
    return abs(best["a"][0] - best["b"][2]), abs(best["a"][1] - best["b"][3])


def check_fair_preset(summary: dict, rows: list[list[str]],
                      cfg: dict[str, str]) -> list[str]:
    errors = []
    p, mu_a, mu_b = (float(cfg[k]) for k in ("stream.p", "stream.mu_a", "stream.mu_b"))
    for tr in summary["trial_results"]:
        (a_neg, a_pos), (b_neg, b_pos) = tr["counts"]
        n_a, n_b = a_neg + a_pos, b_neg + b_pos
        for what, hits, n, rate in (("group A share", n_a, n_a + n_b, p),
                                    ("positive share in A", a_pos, n_a, mu_a),
                                    ("positive share in B", b_pos, n_b, mu_b)):
            if n == 0 or abs(hits / n - rate) > Z * math.sqrt(rate * (1 - rate) / n):
                errors.append(f"trial {tr['trial']}: {what} {hits}/{n} "
                              f"too far from {rate}")
    for r in rows:
        for cell in r[7:9]:
            if cell == "" or not 0.0 <= float(cell) <= 1.0:
                errors.append(f"round {r[0]}: q value {cell!r} outside [0, 1]")
                break
    fpr_limit, fnr_limit = best_assignment_gaps(cfg)
    for key, limit in (("fpr_gap", fpr_limit), ("fnr_gap", fnr_limit)):
        mean = _mean(tr[key] for tr in summary["trial_results"])
        if not mean < limit:
            errors.append(f"mean {key} {mean!r} not below the per-group "
                          f"best-expert gap {limit!r}")
    return errors


def best_expert_error(cfg: dict[str, str]) -> float:
    """Analytic error rate of the best single expert on the synthetic stream."""
    p, mu_a, mu_b = (float(cfg[k]) for k in ("stream.p", "stream.mu_a", "stream.mu_b"))
    return min(p * ((1 - mu_a) * e[0] + mu_a * e[1])
               + (1 - p) * ((1 - mu_b) * e[2] + mu_b * e[3])
               for e in _profiles(cfg).values())


def check_mw_long(summary: dict, rows: list[list[str]], cfg: dict[str, str]) -> list[str]:
    errors = []
    if any(r[7] != "" or r[8] != "" for r in rows):
        errors.append("q columns are not empty for the mw engine")
    T = int(cfg["horizon"])
    d = len(_profiles(cfg))
    eta = (min(math.sqrt(math.log(d) / T), 0.49) if cfg.get("eta", "auto") == "auto"
           else float(cfg["eta"]))
    best = best_expert_error(cfg)
    trials = summary["trial_results"]
    tol = Z * math.sqrt(best * (1 - best) / (len(trials) * T))
    upper = (1 + eta) * best + math.log(d) / (eta * T)
    mean = _mean(tr["error_rate"] for tr in trials)
    if not best - tol <= mean <= upper + tol:
        errors.append(f"mean error_rate {mean!r} outside [{best - tol!r}, "
                      f"{upper + tol!r}] (best expert {best!r}, Theorem 1 bound {upper!r})")
    return errors


def check_dataset(summary: dict, planted: dict) -> list[str]:
    errors = []
    report = summary.get("ingest_report") or {}
    want = {"rows_read": planted["rows_written"], "rows_kept": planted["rows_kept"],
            "drops": {"missing_feature": planted["rows_missing"]}}
    for key, value in want.items():
        if report.get(key) != value:
            errors.append(f"ingest_report {key} = {report.get(key)!r}, planted {value!r}")
    (a_neg, a_pos), (b_neg, b_pos) = planted["counts"]
    n_a, n_b = a_neg + a_pos, b_neg + b_pos
    kept = n_a + n_b
    stats = summary.get("data_stats") or {}
    want_stats = {"n_rounds": kept, "p": n_a / kept, "mu_a_pos": a_pos / n_a,
                  "mu_b_pos": b_pos / n_b, "disparate_impact": (b_pos / n_b) / (a_pos / n_a)}
    for key, value in want_stats.items():
        got = stats.get(key)
        if got is None or not math.isclose(got, value, rel_tol=1e-12):
            errors.append(f"data_stats {key} = {got!r}, generator counted {value!r}")
    mean = _mean(tr["error_rate"] for tr in summary["trial_results"])
    if not mean < planted["majority_error"]:
        errors.append(f"mean error_rate {mean!r} not below the majority-class "
                      f"rate {planted['majority_error']!r}")
    return errors


def check_run(workload: str, outdir: Path, cfg: dict[str, str],
              planted: dict | None) -> list[str]:
    """All checks that apply to one run of ``workload``."""
    try:
        summary, header, rows = load_outputs(outdir)
    except (OSError, ValueError) as e:
        return [f"cannot read outputs: {e}"]
    try:
        errors = check_common(summary, header, rows, cfg, expected_horizon(cfg, planted))
        if errors:
            return errors
        if workload == "fair_preset":
            return check_fair_preset(summary, rows, cfg)
        if workload == "mw_long":
            return check_mw_long(summary, rows, cfg)
        return check_dataset(summary, planted)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as e:
        return [f"malformed outputs: {type(e).__name__}: {e}"]
