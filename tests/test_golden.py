"""Behaviour pin: SHA-256 digests of every deterministic output artifact.

Each case writes a small config (plus any input files it names) into a
scratch directory, runs ``fairmw run`` and ``fairmw validate-bounds`` there
on one worker, and compares the digests of summary.json, rounds.csv and
bounds.json with the values pinned below.  Inputs are referenced by
relative path, so the config echo inside summary.json does not depend on
where the scratch directory lives.

A digest may be re-pinned only by a change that says why in CHANGES.md and
reports the largest absolute float difference against the old output.
"""

import hashlib
import json

import numpy as np
import pytest

import fairmw.domain
from fairmw.cli import main
from fairmw.domain import RESCALE_THRESHOLD, WEIGHT_FLOOR, RunConfig, trial_seed_sequence
from fairmw.engines import run_trial
from fairmw.experts import ErrorProfile, SyntheticEnsemble
from fairmw.ingest import load_dataset, load_preset, synth_stream

SYNTH = """\
stream.kind = synthetic
stream.p = 0.7
stream.mu_a = 0.4
stream.mu_b = 0.25
"""

PROFILES = """\
experts.profile.sharp = 0.05,0.45,0.08,0.42
experts.profile.flat = 0.2,0.2,0.22,0.22
experts.profile.noisy = 0.4,0.35,0.4,0.3
"""

# Every expert is wrong on most rounds and eta sits at its cap, so whole
# slices fall below 2**-512 (power-of-two rescale) and the worst expert
# ends more than 1e-300 below the best one (floor).
EXTREME = """\
engine = mw
horizon = 4000
eta = 0.49
seed = 2
trials = 1
experts.profile.always_wrong = 1.0,1.0,1.0,1.0
experts.profile.mostly_wrong = 0.6,0.6,0.6,0.6
experts.profile.often_wrong = 0.9,0.9,0.9,0.9
"""


def _predictions_csv() -> str:
    rng = np.random.default_rng(17)
    rows = ["alpha,beta,gamma"]
    rows += [",".join(str(v) for v in rng.integers(0, 2, size=3)) for _ in range(300)]
    return "\n".join(rows) + "\n"


def _census_csv() -> str:
    rng = np.random.default_rng(29)
    rows = ["age,hours,job,sex,income"]
    for _ in range(200):
        sex = "Male" if rng.random() < 0.6 else "Female"
        age = int(rng.integers(18, 70))
        hours = int(rng.integers(10, 60))
        job = ("clerk", "trade", "manager")[int(rng.integers(0, 3))]
        score = 0.03 * (age - 40) + 0.05 * (hours - 35) + (job == "manager")
        income = "high" if score + rng.normal(0.0, 0.8) > 0.3 else "low"
        rows.append(f"{age},{hours},{job},{sex},{income}")
    return "\n".join(rows) + "\n"


def _dataset_predictions_csv() -> str:
    """One row per row of the toy census CSV, in CSV order: a label-aware
    expert that errs on a fifth of the rows, one that always says "low" and
    a coin flip."""
    rng = np.random.default_rng(31)
    rows = ["careful,low,coin"]
    for line in _census_csv().splitlines()[1:]:
        label = int(line.endswith(",high"))
        careful = 1 - label if rng.random() < 0.2 else label
        rows.append(f"{careful},0,{int(rng.integers(0, 2))}")
    return "\n".join(rows) + "\n"


TOY_PRESET = """\
label.column = income
label.positive = high
group.column = sex
group.a = Male
"""


def _three_group_csv() -> str:
    """The toy census shape with a third sex value and ages from 16, so
    that TWO_GROUP_PRESET drops rows both as filtered and as
    group_not_listed."""
    rng = np.random.default_rng(37)
    rows = ["age,hours,job,sex,income"]
    for _ in range(200):
        sex = ("Male", "Female", "Other")[int(rng.choice(3, p=[0.55, 0.4, 0.05]))]
        age = int(rng.integers(16, 70))
        hours = int(rng.integers(10, 60))
        job = ("clerk", "trade", "manager")[int(rng.integers(0, 3))]
        score = 0.03 * (age - 40) + 0.05 * (hours - 35) + (job == "manager")
        income = "high" if score + rng.normal(0.0, 0.8) > 0.3 else "low"
        rows.append(f"{age},{hours},{job},{sex},{income}")
    return "\n".join(rows) + "\n"


TWO_GROUP_PRESET = TOY_PRESET + "group.b = Female\nfilter.1 = age >= 21\n"

# name -> (config text, {relative file name: content})
CASES = {
    "mw": ("engine = mw\nhorizon = 400\neta = 0.2\nseed = 3\ntrials = 2\n"
           + SYNTH + PROFILES, {}),
    "group_aware": ("engine = group_aware\nhorizon = 400\nseed = 4\ntrials = 2\n"
                    + SYNTH + PROFILES, {}),
    "fairness_aware": ("engine = fairness_aware\nhorizon = 400\neta = 0.25\n"
                       "seed = 5\ntrials = 2\n" + SYNTH + PROFILES, {}),
    "fairness_stride": (
        "engine = fairness_aware\nhorizon = 400\neta = 0.3\nseed = 6\ntrials = 2\n"
        "stride = 7\nlambda.fpr = 2\nlambda.fnr = 0.5\nlambda.regret = 0.001\n"
        "b.fpr = 0.01\nb.fnr = 0.02\nb.regret = 0.5\n" + SYNTH + PROFILES, {}),
    "file_experts": (
        "engine = group_aware\nhorizon = 300\neta = 0.2\nseed = 8\ntrials = 2\n"
        + SYNTH + "experts.source = file\nexperts.file = preds.csv\n",
        {"preds.csv": _predictions_csv()}),
    "dataset_builtin": (
        "engine = fairness_aware\nseed = 9\ntrials = 2\nstream.kind = dataset\n"
        "data.path = toy.csv\ndata.preset = toy.preset\nexperts.source = builtin\n"
        "experts.kinds = logistic,stump\nexperts.epochs = 50\n",
        {"toy.csv": _census_csv(), "toy.preset": TOY_PRESET}),
    "dataset_group_aware": (
        "engine = group_aware\nseed = 11\ntrials = 2\nstream.kind = dataset\n"
        "data.path = toy.csv\ndata.preset = toy.preset\nexperts.source = builtin\n"
        "experts.kinds = logistic,stump,logistic\nexperts.epochs = 40\n"
        "experts.include_group = false\n",
        {"toy.csv": _three_group_csv(), "toy.preset": TWO_GROUP_PRESET}),
    "dataset_file": (
        "engine = fairness_aware\nseed = 10\ntrials = 2\nstream.kind = dataset\n"
        "data.path = toy.csv\ndata.preset = toy.preset\nexperts.source = file\n"
        "experts.file = preds.csv\n",
        {"toy.csv": _census_csv(), "toy.preset": TOY_PRESET,
         "preds.csv": _dataset_predictions_csv()}),
    "floor_rescale": (EXTREME + SYNTH, {}),
}

# Three rounds of an even stream: some trials never see a group's negatives
# or positives, so their rates and gaps are undefined (null in summary.json).
UNDEFINED_RATES = """\
horizon = 3
eta = 0.2
seed = 3
trials = 6
stream.kind = synthetic
stream.p = 0.5
stream.mu_a = 0.5
stream.mu_b = 0.5
experts.profile.sharp = 0.05,0.45,0.08,0.42
experts.profile.flat = 0.2,0.2,0.22,0.22
"""
CASES.update({f"undefined_rates_{engine}": (f"engine = {engine}\n" + UNDEFINED_RATES, {})
              for engine in ("mw", "group_aware", "fairness_aware")})

GOLDEN = {
    "dataset_builtin": {
        "summary.json": "d350f1d446ff53f94878d4d0be99037ddef27e30e7863bedfac2efaa6b54ad63",
        "rounds.csv": "20562a7eddeaeb616b3e2995534b1d6fb809cb9955e38aae8ff09de68d4052af",
        "bounds.json": "8730ea10b6971bc8a8c39401507de10300af4d67dfb8fc7615d341b0160244c1",
    },
    "dataset_group_aware": {
        "summary.json": "a99fdc00b0ab46008f52badcf961cb3f6b0e4a117f0203882869a23a3dedc07c",
        "rounds.csv": "03090224a020d52b03be65ba541e7b1f2fac99370993c9c54359cf9b66f2d70c",
        "bounds.json": "331052d29ffa0b9620321e92e95e16ad4a65fd8d0070e6d108aaf1205ab96ea8",
    },
    "dataset_file": {
        "summary.json": "f29ced4bd30c2892a59b2dd9f8c399baa62a940c35fcd9bc6f131b654da7bdc9",
        "rounds.csv": "0f0f4ff8549fa42c16bcb570a0f748dbca5c5cc7d5f25ccdf540c0c0b0a00886",
        "bounds.json": "fe43ec884387d1de457f91975713bbb3102ff40bb4cc9930d82e96d405f69769",
    },
    "fairness_aware": {
        "summary.json": "83d0291294030ec1ce07032991c25f15253740b6dc47f48295b2b745ec774f89",
        "rounds.csv": "ed02d472fc050dcfb468ad86a3dd176b12fbd2e22c875e30892581223a593706",
        "bounds.json": "2a3f3d66dbc6ffcfd0decb7dc2ebd91bc3e2547999bfea2d8f3cf06a3f942007",
    },
    "fairness_stride": {
        "summary.json": "64572246e38d3c7cb0604490913ce09dd3e330981b2b89982c2e6ae24b50b8a1",
        "rounds.csv": "c00980b3e39711bbe9ce5a1427cb9858f8c9b09be8994faecbb0e4f23076fc4e",
        "bounds.json": "b5ee0581a692b2f67b2c1fa0ef2521164aa9e9bb6aac8353d0b94ba2e330857f",
    },
    "file_experts": {
        "summary.json": "44c915c2083dadd5ec03b5ebfb2e5d465b0af67c7d2b630ba1b8e63b9e6d4f62",
        "rounds.csv": "b244552337605eb0dd67e25fdfa416728a588a98553bd0572130c37cf2bbcab8",
        "bounds.json": "f567bfbf4d18e9dc2be3c9fda9d9fecec9d2f18d2b495649e8a218ba0f585417",
    },
    "floor_rescale": {
        "summary.json": "3dec43688cc1bc88c61ac603e4a57b8e53e4ce75e4b21637a508fcbc835c10a7",
        "rounds.csv": "cd5b66b6506e19bfeb357b88805892ec70c1aa4ead7c74d7ded8897c162db963",
        "bounds.json": "297ce816cbfdac51f51710b4d1f2d628966871f90f4539e79c0dea5cfa8c8125",
    },
    "group_aware": {
        "summary.json": "b622d53b04564e6600eba9b1ac78858b96424a9dc14ca0ca11542cec807997e0",
        "rounds.csv": "b129305c391044c4aefdeb9cb98cb5a3a8fe0b6bc0f2030691d7ce6266e3ba08",
        "bounds.json": "8b4f60ff3762052b3a5fa6e841197c8741a23601a64c4036d9d449fd2806aac9",
    },
    "mw": {
        "summary.json": "0ff1b8c7d30dad42e75280ceb6423f8091a888b61fd1c3bfc2b07b50e4a47522",
        "rounds.csv": "7b3c05e89de2761565ecae0a3309d94597c85d90cb67d558573e552915984d53",
        "bounds.json": "5e4038db1cc13834f9800ab1fb02bb952806b497f7ce457a6cf120bd19dfb216",
    },
    "undefined_rates_fairness_aware": {
        "summary.json": "b1c385497270bf4cd4e66a71e00f90105f85588ccaa42d627172cb4b8351471f",
        "rounds.csv": "4c14580ea27d298ed6494df7947fd5eac49187d069a416f093192cf57d571fbc",
        "bounds.json": "06465bc1e7f75281a1edf082da3e0685eeaa60bb7eb5c227e8e739346168bd22",
    },
    "undefined_rates_group_aware": {
        "summary.json": "e0ecfe9b2700f4b9350c1145e1c1eebfb3f7cb031fd047e74086865f561cda4f",
        "rounds.csv": "690ef00bb2f24410fbc390a93e90361124d7d490381e8da25bc50d0a83770897",
        "bounds.json": "3fcb3b1db2d81f4f06e8e86783ac2ef41e7f5ace956ffac79c428acca1330bfb",
    },
    "undefined_rates_mw": {
        "summary.json": "0525ef470ca631cb3cf63008894f46f743b081b22e39e95ae154de4f56e4c3ed",
        "rounds.csv": "ca2c95b6a6a560c9f3396856f975f23481d3726c48c957c9731195a7d7b06e3c",
        "bounds.json": "237731009bfc56fb9160d7a4b5fa330378611f1257d18dbfc544ec1d88aac7ba",
    },
}

# SHA-256 of ``fairmw stats`` stdout on the toy census CSV and TOY_PRESET.
STATS_DIGEST = "c616c9b55969b17bfe25cf6c761121d9753fa26947703603c1df8abe66c9a81a"


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path, monkeypatch):
    text, files = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(text, encoding="utf-8")
    for fname, content in files.items():
        (tmp_path / fname).write_text(content, encoding="utf-8")
    assert main(["run", "--config", "exp.cfg", "--out", "out", "--workers", "1"]) == 0
    assert main(["validate-bounds", "--config", "exp.cfg", "--out", "out",
                 "--workers", "1"]) == 0
    got = {f: _digest(tmp_path / "out" / f)
           for f in ("summary.json", "rounds.csv", "bounds.json")}
    assert got == GOLDEN[name]


def test_dataset_group_aware_case_drops_for_both_reasons(tmp_path, monkeypatch):
    # The case pins ingest's row drops only if it really makes them.
    _, files = CASES["dataset_group_aware"]
    monkeypatch.chdir(tmp_path)
    for fname, content in files.items():
        (tmp_path / fname).write_text(content, encoding="utf-8")
    report = load_dataset("toy.csv", load_preset("toy.preset"))[1]
    assert report.drops["filtered"] > 0 and report.drops["group_not_listed"] > 0


def test_undefined_rates_cases_leave_rates_undefined(tmp_path, monkeypatch):
    # The cases pin undefined rates only if some trials really have them:
    # every rate is null in some trial, and no aggregate counts them all.
    text, _ = CASES["undefined_rates_mw"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(text, encoding="utf-8")
    assert main(["run", "--config", "exp.cfg", "--out", "out", "--workers", "1"]) == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    for key in ("fpr_a", "fpr_b", "fnr_a", "fnr_b", "err_b", "fpr_gap", "fnr_gap", "eer_gap"):
        assert any(r[key] is None for r in doc["trial_results"]), key
    counts = {k: v["count"] for k, v in doc["aggregate"].items()}
    assert counts["fpr_gap"] == 1 and counts["err_a"] == 6, counts


def test_stats_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "toy.csv").write_text(_census_csv(), encoding="utf-8")
    (tmp_path / "toy.preset").write_text(TOY_PRESET, encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", "--data", "toy.csv", "--preset", "toy.preset"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STATS_DIGEST


def test_extreme_case_hits_rescale_and_floor(monkeypatch):
    # The floor_rescale case must really exercise both exact-arithmetic
    # paths of the weight update, or its digest pins nothing about them.
    events = {"rescale": 0, "floor": 0}
    update = fairmw.domain._update_slice

    def watched(w, eta, losses):
        raw = w * np.power(1.0 - eta, losses)
        events["floor"] += int(np.any(raw < WEIGHT_FLOOR))
        events["rescale"] += int(np.maximum(raw, WEIGHT_FLOOR).max() < RESCALE_THRESHOLD)
        update(w, eta, losses)

    monkeypatch.setattr(fairmw.domain, "_update_slice", watched)
    profiles = [ErrorProfile(e, e, e, e) for e in (1.0, 0.6, 0.9)]
    cfg = RunConfig(engine="mw", horizon=4000, eta=0.49, seed=2)
    stream = synth_stream(0.7, 0.4, 0.25, cfg.horizon,
                          np.random.default_rng(trial_seed_sequence(cfg.seed, 0)[0]))
    run_trial(cfg, stream, SyntheticEnsemble(profiles))
    assert events["rescale"] > 0 and events["floor"] > 0, events
