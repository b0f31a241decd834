import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalar_reference
from fairmw import cli, ingest
from fairmw.cli import (
    ROUNDS_HEADER,
    _parse_sweep_values,
    build_spec,
    main,
    parse_config,
)
from fairmw.engines import run_trial
from fairmw.errors import ConfigError
from fairmw.experts import LogisticExpert, train_builtin
from fairmw.ingest import load_dataset, load_preset, split_shuffle

SYNTH_MW = """\
# toy synthetic experiment
engine = mw
horizon = 100
eta = 0.2
seed = 7
trials = 2
stream.kind = synthetic
stream.p = 0.6
stream.mu_a = 0.3
stream.mu_b = 0.5
experts.profile.good = 0.1,0.1,0.1,0.1
experts.profile.bad = 0.4,0.4,0.4,0.4
"""

SYNTH_RMW = SYNTH_MW.replace("engine = mw", "engine = fairness_aware")


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def cfg_dict(**kw):
    base = {
        "engine": "mw", "horizon": "50", "eta": "0.2", "trials": "1",
        "stream.kind": "synthetic", "stream.p": "0.5",
        "stream.mu_a": "0.4", "stream.mu_b": "0.6",
        "experts.profile.x": "0.1,0.1,0.1,0.1",
        "experts.profile.y": "0.3,0.3,0.3,0.3",
    }
    base.update(kw)
    return {k: v for k, v in base.items() if v is not None}


def test_parse_config(tmp_path):
    path = write(tmp_path, "# note\n\na = 1\nb.c = x y\n")
    assert parse_config(path) == {"a": "1", "b.c": "x y"}

    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "absent.cfg")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(write(tmp_path, "just words\n", "b.cfg"))
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(write(tmp_path, "a = 1\na = 2\n", "c.cfg"))
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(write(tmp_path, "= 2\n", "d.cfg"))


def test_build_spec_happy_path():
    spec = build_spec(cfg_dict())
    assert spec.run.engine == "mw"
    assert spec.run.horizon == 50
    assert spec.stream_kind == "synthetic"
    assert len(spec.profiles) == 2
    assert spec.profiles[0][0] == "x"
    assert spec.epsilon is None


def test_build_spec_errors():
    with pytest.raises(ConfigError, match="unknown keys: nope"):
        build_spec(cfg_dict(nope="1"))
    with pytest.raises(ConfigError, match="stream.p"):
        build_spec(cfg_dict(**{"stream.p": None}))
    with pytest.raises(ConfigError, match="needs a dataset stream"):
        build_spec(cfg_dict(**{"experts.source": "builtin"}))
    with pytest.raises(ConfigError, match="expected 4 error rates"):
        build_spec(cfg_dict(**{"experts.profile.x": "0.1,0.2,0.3"}))
    with pytest.raises(ConfigError, match="at least 2"):
        build_spec(cfg_dict(**{"experts.profile.y": None}))
    with pytest.raises(ConfigError, match="split_ratio"):
        build_spec(cfg_dict(**{"data.split_ratio": "1.5"}))
    with pytest.raises(ConfigError, match="engine: expected one of"):
        build_spec(cfg_dict(engine="bogus"))
    with pytest.raises(ConfigError, match="eta"):
        build_spec(cfg_dict(eta="0.7"))
    with pytest.raises(ConfigError, match="stream.kind"):
        build_spec({"engine": "mw"})
    with pytest.raises(ConfigError, match="conflicts with data"):
        build_spec(cfg_dict(**{"data.path": "x.csv"}))
    with pytest.raises(ConfigError, match="data.split_ratio: stream.kind=synthetic conflicts"):
        build_spec(cfg_dict(**{"data.split_ratio": "0.5"}))
    with pytest.raises(ConfigError, match="expected an integer"):
        build_spec(cfg_dict(trials="two"))
    # expert keys that the chosen experts.source would ignore
    file_cfg = cfg_dict(**{"experts.source": "file", "experts.file": "p.csv",
                           "experts.profile.x": None, "experts.profile.y": None})
    builtin_cfg = {"engine": "mw", "stream.kind": "dataset", "data.path": "d.csv",
                   "data.preset": "adult"}
    for key, value, cfg in (("experts.file", "p.csv", cfg_dict()),
                            ("experts.file", "p.csv", builtin_cfg),
                            ("experts.kinds", "logistic,stump", cfg_dict()),
                            ("experts.include_group", "false", file_cfg),
                            ("experts.epochs", "10", cfg_dict()),
                            ("experts.profile.z", "0.1,0.1,0.1,0.1", file_cfg),
                            ("experts.profile.z", "0.1,0.1,0.1,0.1", builtin_cfg)):
        with pytest.raises(ConfigError, match=f"{key}: not read by experts.source="):
            build_spec({**cfg, key: value})


def run_main(tmp_path, text, *argv, sub="run", name="exp.cfg", out="out"):
    cfg = write(tmp_path, text, name)
    outdir = tmp_path / out
    code = main([sub, "--config", str(cfg), "--out", str(outdir), *argv])
    return code, outdir


def test_run_smoke(tmp_path):
    code, outdir = run_main(tmp_path, SYNTH_MW, "--workers", "1")
    assert code == 0
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["engine"] == "mw"
    assert doc["horizon"] == 100
    assert doc["eta"] == 0.2
    assert doc["seed"] == 7
    assert doc["trials"] == 2
    assert doc["d"] == 2
    assert doc["experts"] == ["good", "bad"]
    assert len(doc["trial_results"]) == 2
    assert [r["trial"] for r in doc["trial_results"]] == [0, 1]
    assert doc["aggregate"]["error_rate"]["count"] == 2
    assert doc["aggregate"]["min_bound_margin"]["mean"] > 0
    assert doc["config"]["stream.p"] == "0.6"
    assert doc["ingest_report"] is None
    assert doc["fairness_budget"]["fpr"] == 0.05

    lines = (outdir / "rounds.csv").read_text().splitlines()
    assert lines[0] == ROUNDS_HEADER
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "mw"
    # mw: q columns are empty (undefined), regret columns always present
    assert first[7] == "" and first[8] == ""
    float(first[2]), float(first[3])


def test_run_deterministic_across_reruns_and_workers(tmp_path):
    _, out1 = run_main(tmp_path, SYNTH_RMW, "--workers", "1", out="o1")
    _, out2 = run_main(tmp_path, SYNTH_RMW, "--workers", "1", out="o2")
    _, out4 = run_main(tmp_path, SYNTH_RMW, "--workers", "2", out="o4")
    for name in ("summary.json", "rounds.csv"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert b1 == (out4 / name).read_bytes()


def test_seed_and_trials_overrides(tmp_path):
    code, outdir = run_main(tmp_path, SYNTH_MW, "--workers", "1",
                            "--seed", "123", "--trials", "3")
    assert code == 0
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["seed"] == 123
    assert doc["trials"] == 3
    assert len(doc["trial_results"]) == 3
    assert doc["config"]["seed"] == "123"
    # a different seed changes the results
    _, other = run_main(tmp_path, SYNTH_MW, "--workers", "1",
                        "--seed", "124", "--trials", "3", out="out2")
    assert ((outdir / "summary.json").read_bytes()
            != (other / "summary.json").read_bytes())


def test_rmw_rounds_csv_has_q_columns(tmp_path):
    code, outdir = run_main(tmp_path, SYNTH_RMW, "--workers", "1")
    assert code == 0
    lines = (outdir / "rounds.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert float(first[7]) == 0.5 and float(first[8]) == 0.5  # round 1 is uniform
    last = lines[-1].split(",")
    assert 0.0 <= float(last[7]) <= 1.0


def test_config_byte_order_mark_is_skipped(tmp_path):
    # the mark used to make the first key unknown (exit 2)
    plain = write(tmp_path, SYNTH_RMW, "plain.cfg")
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for cfg in (plain, marked):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem),
                     "--workers", "1"]) == 0
        outputs.append([(tmp_path / cfg.stem / f).read_bytes()
                        for f in ("summary.json", "rounds.csv")])
    assert outputs[0] == outputs[1]


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = write(tmp_path, SYNTH_MW.replace("engine = mw", "engine = turbo"))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_range_checks_exit_2(tmp_path, capsys):
    # horizon, trials and stride are range-checked once, by RunConfig, and
    # a bad value still exits with the config-error code
    for key, value in (("horizon", "0"), ("trials", "0"), ("stride", "0"),
                       ("seed", "-1"), ("experts.epochs", "0")):
        lines = [line for line in SYNTH_MW.splitlines()
                 if line.partition("=")[0].strip() != key]
        text = "\n".join(lines + [f"{key} = {value}"]) + "\n"
        code, _ = run_main(tmp_path, text, "--workers", "1", name=f"{key}.cfg")
        assert code == 2, key
        assert "config error" in capsys.readouterr().err
    code, _ = run_main(tmp_path, SYNTH_MW, "--workers", "1", "--trials", "0")
    assert code == 2


def test_worker_pool_capped_at_trial_count(tmp_path, monkeypatch):
    seen = []
    outstanding = []   # per pool: trials submitted and not yet collected, at each collection

    class Future:
        def __init__(self, pool, fn, item):
            self.pool, self.fn, self.item = pool, fn, item

        def result(self):
            outstanding[-1].append(self.pool.submitted - self.pool.collected)
            self.pool.collected += 1
            return self.fn(self.item)

        def cancel(self):
            return False

    class Recorder:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            outstanding.append([])
            self.submitted = self.collected = 0
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            self.submitted += 1
            return Future(self, fn, item)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
    code, _ = run_main(tmp_path, SYNTH_MW, out="default")  # 2 trials, 16 cores
    assert code == 0 and seen == [2]
    code, _ = run_main(tmp_path, SYNTH_MW, "--workers", "8", "--trials", "1", out="one")
    assert code == 0 and seen == [2]  # a single trial runs in-process
    code, _ = run_main(tmp_path, SYNTH_MW, "--workers", "3", "--trials", "5", out="five")
    assert code == 0 and seen == [2, 3]
    # at most 2 * workers trials are submitted beyond the one being collected
    code, _ = run_main(tmp_path, SYNTH_MW, "--workers", "2", "--trials", "11", out="eleven")
    assert code == 0 and seen == [2, 3, 2]
    assert outstanding == [[2, 1], [5, 4, 3, 2, 1], [5] * 7 + [4, 3, 2, 1]]
    assert json.loads((tmp_path / "eleven" / "summary.json").read_text())["trials"] == 11


def test_fairness_budget_verdicts():
    # each mean gap is held to its own budget, inclusively; an undefined
    # gap gets no verdict rather than a pass
    info = {"eta": 0.2, "d": 2, "experts": ["x", "y"],
            "ingest_report": None, "data_stats": None}

    def verdict(fpr_gap, fnr_gap, budget="0.05"):
        spec = build_spec(cfg_dict(**{"budget.fpr": budget, "budget.fnr": budget}))
        payload = cli.TrialPayload(spec.run, None, None, None, None)
        summary = dict.fromkeys(cli._AGG_KEYS)
        summary.update(fpr_gap=fpr_gap, fnr_gap=fnr_gap)
        doc = cli.summary_doc(spec, payload, info, [{"summary": summary}])
        return doc["fairness_budget"]["fpr_within"], doc["fairness_budget"]["fnr_within"]

    assert verdict(0.03, 0.04) == (True, True)
    assert verdict(0.06, 0.01) == (False, True)
    assert verdict(0.01, 0.06) == (True, False)
    assert verdict(0.0, 0.0, budget="0") == (True, True)
    assert verdict(None, 0.01) == (None, True)


def test_exit_code_3_on_data_errors(tmp_path, capsys):
    cfg = write(tmp_path, (
        "engine = mw\nhorizon = 10\ntrials = 1\n"
        "data.path = {}\ndata.preset = adult\n").format(tmp_path / "absent.csv"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == 3
    assert "data error" in capsys.readouterr().err

    empty_csv = write(tmp_path, "", "empty.csv")
    assert main(["stats", "--data", str(empty_csv), "--preset", "adult"]) == 3


def test_exit_code_4_on_runtime_errors(tmp_path):
    preds = write(tmp_path, "f1,f2\n1,0\n0,1\n1,1\n", "preds.csv")
    cfg = write(tmp_path, (
        "engine = mw\nhorizon = 5\neta = 0.2\ntrials = 1\n"
        "stream.kind = synthetic\nstream.p = 0.5\n"
        "stream.mu_a = 0.4\nstream.mu_b = 0.6\n"
        "experts.source = file\nexperts.file = {}\n").format(preds))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--workers", "1"]) == 4


def test_out_of_memory_exits_4(tmp_path, monkeypatch, capsys):
    def exhausted(payload, workers):
        raise MemoryError("Unable to allocate 50.9 TiB")

    monkeypatch.setattr(cli, "execute_trials", exhausted)
    code, _ = run_main(tmp_path, SYNTH_MW, "--workers", "1")
    assert code == 4
    assert capsys.readouterr().err == "runtime error: out of memory\n"


def test_extreme_lambda_runs(tmp_path):
    # lambda.regret = 1e200 squares past the largest float unless the solve
    # scales lambda first; the installed entry point must exit 0 cleanly
    cfg = write(tmp_path, SYNTH_RMW.replace("trials = 2", "trials = 1")
                + "lambda.regret = 1e200\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fairmw.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    q = doc["trial_results"][0]["q_final"]
    assert all(0.0 <= v <= 1.0 for v in q)


def write_oracle_dataset(tmp_path, rows=200, extra_rows=0):
    """A toy dataset and a prediction file with one row per dataset row, in
    CSV order: an oracle column equal to the row's label and a coin flip."""
    rng = np.random.default_rng(41)
    data, preds = ["age,sex,income"], ["oracle,coin"]
    for _ in range(rows):
        label = int(rng.random() < 0.4)
        sex = "Male" if rng.random() < 0.6 else "Female"
        data.append(f"{int(rng.integers(18, 70))},{sex},{'high' if label else 'low'}")
        preds.append(f"{label},{int(rng.integers(0, 2))}")
    preds += ["1,1"] * extra_rows
    write(tmp_path, "\n".join(data) + "\n", "toy.csv")
    write(tmp_path, "\n".join(preds) + "\n", "preds.csv")
    write(tmp_path, "label.column = income\nlabel.positive = high\n"
                    "group.column = sex\ngroup.a = Male\n", "toy.preset")
    return (f"engine = group_aware\nseed = 3\ntrials = 3\nstream.kind = dataset\n"
            f"data.path = {tmp_path / 'toy.csv'}\ndata.preset = {tmp_path / 'toy.preset'}\n"
            f"experts.source = file\nexperts.file = {tmp_path / 'preds.csv'}\n")


def test_dataset_file_experts_follow_the_stream(tmp_path, monkeypatch):
    # Prediction-file rows are keyed to dataset rows and shuffled with the
    # stream, so the oracle is right on every round of every trial.
    losses = []

    def recording(config, stream, ensemble, trial=0):
        traj = run_trial(config, stream, ensemble, trial)
        losses.append(traj.losses.sum(axis=0).tolist())
        return traj

    monkeypatch.setattr(cli, "run_trial", recording)
    code, outdir = run_main(tmp_path, write_oracle_dataset(tmp_path), "--workers", "1")
    assert code == 0
    assert len(losses) == 3
    assert all(oracle == 0.0 and coin > 0.0 for oracle, coin in losses), losses
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["horizon"] == 60 and doc["experts"] == ["oracle", "coin"]


def test_dataset_payload_keeps_no_features(tmp_path):
    # trials read only group and label, so the payload sent to every worker
    # holds no feature rows, for file and for trained experts alike
    text = write_oracle_dataset(tmp_path)
    builtin = text.replace(f"experts.source = file\nexperts.file = {tmp_path / 'preds.csv'}\n",
                           "experts.source = builtin\nexperts.epochs = 5\n")
    (_, group, label), _ = load_dataset(tmp_path / "toy.csv",
                                        load_preset(str(tmp_path / "toy.preset")))
    _, test_idx = split_shuffle(len(label), 0.7, 3)
    for cfg_text in (text, builtin):
        payload, _ = cli.prepare_payload(build_spec(parse_config(write(tmp_path, cfg_text))))
        assert payload.stream_params is None
        test_group, test_label = payload.test_stream
        assert test_group.dtype == test_label.dtype == np.int8
        assert test_group.tolist() == group[test_idx].tolist()
        assert test_label.tolist() == label[test_idx].tolist()


def test_dataset_file_of_wrong_length_names_both_counts(tmp_path, capsys):
    text = write_oracle_dataset(tmp_path, extra_rows=1)
    code, _ = run_main(tmp_path, text, "--workers", "1")
    assert code == 3
    err = capsys.readouterr().err
    assert "201 prediction rows" in err and "keeps 200 rows" in err, err


def census_builtin_cfg(tmp_path, rows, include_group=True, epochs=500):
    """Config text of builtin experts on a census-shaped CSV of ``rows`` rows."""
    scalar_reference.write_census_csv(tmp_path / "census.csv", rows, seed=5)
    return (f"engine = group_aware\nseed = 11\nstream.kind = dataset\n"
            f"data.path = {tmp_path / 'census.csv'}\ndata.preset = adult\n"
            f"experts.source = builtin\nexperts.kinds = logistic,stump,logistic\n"
            f"experts.epochs = {epochs}\n"
            f"experts.include_group = {str(include_group).lower()}\n")


def model_bits(model):
    if isinstance(model, LogisticExpert):
        return (model.weights.tobytes(), model.bias.hex(), model.mean.tobytes(),
                model.scale.tobytes())
    return (model.feature, model.threshold.hex(), model.polarity, model.constant)


@pytest.mark.parametrize("include_group", [True, False])
def test_builtin_setup_matches_copying_reference_bitwise(tmp_path, monkeypatch,
                                                         include_group):
    # Writing the one matrix from coded columns in split order and
    # standardizing in place change no byte of the matrices, the models or
    # the predictions.
    spec = build_spec(parse_config(write(
        tmp_path, census_builtin_cfg(tmp_path, 1500, include_group, epochs=200))))
    reference, code_columns = [], ingest._code_columns

    def encoding_reference(path, names, codes, seen):
        reference.append(scalar_reference.encode_features(path, names, codes, seen,
                                                          len(codes[0])))
        return code_columns(path, names, codes, seen)

    with monkeypatch.context() as m:
        m.setattr(ingest, "_code_columns", encoding_reference)
        (features, group, label), report = load_dataset(spec.data_path, load_preset("adult"))
    (x, encoding), = reference
    assert report.encoding == encoding
    assert {kind for _, kind, _ in encoding} == {"numeric", "one-hot"}
    assert ("source", "one-hot", ("CPS",)) in encoding
    got = features.matrix(np.arange(len(label)))
    assert got.shape == x.shape and got.tobytes() == x.tobytes()

    trained, predicted = [], []

    def recording(x_train, y, kind, epochs, seed):
        model = train_builtin(x_train, y, kind, epochs=epochs, seed=seed)
        trained.append((x_train.copy(), model))

        def predict(x_test, _predict=model.predict):
            predicted.append(x_test.copy())
            return _predict(x_test)

        model.predict = predict
        return model

    monkeypatch.setattr(cli, "train_builtin", recording)
    payload, _ = cli.prepare_payload(spec)
    train_idx, test_idx = split_shuffle(len(label), spec.split_ratio, spec.run.seed)
    x_train, x_test, models, predictions = scalar_reference.builtin_payload(
        x, group, label, train_idx, test_idx, spec.experts_kinds, include_group,
        spec.epochs, spec.run.seed)
    assert x_train.shape[1] == x.shape[1] + include_group
    assert len(trained) == len(predicted) == len(models) == 3
    for (have_train, model), have_test, want in zip(trained, predicted, models):
        assert have_train.shape == x_train.shape and have_train.tobytes() == x_train.tobytes()
        assert have_test.shape == x_test.shape and have_test.tobytes() == x_test.tobytes()
        assert model_bits(model) == model_bits(want)
    matrix = payload.ensemble.matrix
    assert matrix.dtype == predictions.dtype and matrix.tobytes() == predictions.tobytes()


def test_builtin_run_does_not_import_numpy_ma(tmp_path):
    # Importing numpy.ma costs 15-19 ms of set-up; np.unique in the stump
    # scan used to pull it in.
    cfg = write(tmp_path, census_builtin_cfg(tmp_path, 600, epochs=5) + "horizon = 100\n")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    script = ("import sys; from fairmw.cli import main; code = main(sys.argv[1:]); "
              "print('numpy.ma' in sys.modules); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"], proc.stdout


def test_builtin_setup_memory(tmp_path):
    # Builtin set-up peaks where a logistic model standardizes its training
    # rows beside the split-order matrix, at about 1.75 M for
    # M = n (k + 1) 8, the bytes of the kept matrix with its group column.
    # Gathering the split from a CSV-order matrix peaked at 2.2 M, and
    # keeping the group-stacked matrix beside the training rows and
    # standardizing through a temporary at 3.1 M.
    spec = build_spec(parse_config(write(tmp_path, census_builtin_cfg(tmp_path, 20000,
                                                                     epochs=2))))
    np.random.default_rng(0)   # numpy.random is imported before tracing starts
    tracemalloc.start()
    try:
        _, info = cli.prepare_payload(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = info["ingest_report"]
    k = sum(len(cats) or 1 for _, _, cats in report["encoding"])
    M = report["rows_kept"] * (k + 1) * 8
    assert report["rows_kept"] > 18000 and k > 70
    assert peak < 2.1 * M, peak / M


def test_stats_and_file_experts_build_no_feature_matrix(tmp_path, capsys):
    # Only builtin experts read features, so `fairmw stats` and the set-up
    # of file experts on the census CSV peak below the bytes of its kept
    # (n, k) feature matrix, at about 0.6 of them; both built the matrix
    # and peaked at 1.45 of them.
    scalar_reference.write_census_csv(tmp_path / "census.csv", 20000, seed=5)
    (features, _, label), _ = load_dataset(tmp_path / "census.csv", load_preset("adult"))
    n, k = len(label), sum(features.widths)
    del features
    preds = np.random.default_rng(3).integers(0, 2, (n, 2)).tolist()
    write(tmp_path, "f1,f2\n" + "".join(f"{a},{b}\n" for a, b in preds), "preds.csv")
    spec = build_spec(parse_config(write(tmp_path, (
        f"engine = group_aware\nseed = 11\nstream.kind = dataset\n"
        f"data.path = {tmp_path / 'census.csv'}\ndata.preset = adult\n"
        f"experts.source = file\nexperts.file = {tmp_path / 'preds.csv'}\n"))))
    np.random.default_rng(0)   # numpy.random is imported before tracing starts
    stats = ["stats", "--data", str(tmp_path / "census.csv"), "--preset", "adult"]
    for call in (lambda: main(stats), lambda: cli.prepare_payload(spec)[0]):
        tracemalloc.start()
        try:
            assert call() is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * 8, peak / (n * k * 8)
    assert n > 18000 and k > 70
    assert json.loads(capsys.readouterr().out)["stats"]["n_total"] == n


def test_validate_bounds_ok(tmp_path):
    code, outdir = run_main(tmp_path, SYNTH_RMW, "--workers", "1",
                            sub="validate-bounds")
    assert code == 0
    doc = json.loads((outdir / "bounds.json").read_text())
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["threshold"] == -1e-9
    assert len(doc["trial_reports"]) == 2
    report = doc["trial_reports"][0]
    assert report["min_margin"] >= -1e-9
    assert any(key.startswith("A/") for key in report["margins"])


def test_validate_bounds_exit_5_on_violation(tmp_path, monkeypatch, capsys):
    from fairmw.engines import run_trial as real_run_trial

    def corrupted(config, stream, ensemble, trial=0, **kw):
        traj = real_run_trial(config, stream, ensemble, trial, **kw)
        traj.expected += 1.0  # inflate the series past any honest margin
        return traj

    monkeypatch.setattr(cli, "run_trial", corrupted)
    code, outdir = run_main(tmp_path, SYNTH_MW, "--workers", "1",
                            sub="validate-bounds")
    assert code == 5
    assert "bound violation: trial 0" in capsys.readouterr().err
    doc = json.loads((outdir / "bounds.json").read_text())
    assert doc["ok"] is False
    assert doc["violations"][0]["trial"] == 0
    assert doc["violations"][0]["margin"] < -1e-9


def test_stats_output(tmp_path, capsys):
    rows = ["age,sex,income"]
    rng = np.random.default_rng(2)
    for _ in range(40):
        sex = "Male" if rng.random() < 0.6 else "Female"
        income = "high" if rng.random() < 0.5 else "low"
        rows.append(f"{int(rng.integers(20, 60))},{sex},{income}")
    data = write(tmp_path, "\n".join(rows) + "\n", "toy.csv")
    preset = write(tmp_path, (
        "label.column = income\nlabel.positive = high\n"
        "group.column = sex\ngroup.a = Male\n"), "toy.preset")
    code = main(["stats", "--data", str(data), "--preset", str(preset),
                 "--split-ratio", "0.5", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["n_total"] == 40
    assert doc["stats"]["n_rounds"] == 20
    assert 0.0 < doc["stats"]["p"] < 1.0
    assert doc["split_ratio"] == 0.5
    assert doc["ingest_report"]["rows_kept"] == 40


def test_sweep(tmp_path):
    cfg = write(tmp_path, SYNTH_MW.replace("eta = 0.2\n", ""))
    outdir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(outdir),
                 "--workers", "1", "--param", "eta", "--values", "0.1,0.2,0.3"])
    assert code == 0
    manifest = json.loads((outdir / "sweep.json").read_text())
    assert manifest["parameter"] == "eta"
    assert [v["dir"] for v in manifest["values"]] == ["eta_0", "eta_1", "eta_2"]
    for i, eta in enumerate(("0.1", "0.2", "0.3")):
        doc = json.loads((outdir / f"eta_{i}" / "summary.json").read_text())
        assert doc["config"]["eta"] == eta
        assert doc["eta"] == float(eta)
        assert (outdir / f"eta_{i}" / "rounds.csv").is_file()


def test_sweep_empty_values_is_config_error(tmp_path):
    cfg = write(tmp_path, SYNTH_MW)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--workers", "1", "--param", "eta", "--values", ""]) == 2


def test_sweep_value_parsing():
    assert _parse_sweep_values("eta", "0.1, 0.2") == [
        ("0.1", {"eta": "0.1"}), ("0.2", {"eta": "0.2"})]
    assert _parse_sweep_values("q_recompute_stride", "1,5") == [
        ("1", {"stride": "1"}), ("5", {"stride": "5"})]
    triples = _parse_sweep_values("lambda", "1,1,1; 2,0,1")
    assert triples[1] == ("2,0,1", {"lambda.fpr": "2", "lambda.fnr": "0",
                                    "lambda.regret": "1"})
    b = _parse_sweep_values("b_tolerance", "0.01,0.01,0.05")
    assert b[0][1] == {"b.fpr": "0.01", "b.fnr": "0.01", "b.regret": "0.05"}
    with pytest.raises(ConfigError):
        _parse_sweep_values("lambda", "1,2")
    with pytest.raises(ConfigError):
        _parse_sweep_values("eta", " , ")


def test_lambda_sweep_runs(tmp_path):
    cfg = write(tmp_path, SYNTH_RMW.replace("trials = 2", "trials = 1")
                .replace("horizon = 100", "horizon = 40"))
    outdir = tmp_path / "lsweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(outdir),
                 "--workers", "1", "--param", "lambda", "--values", "1,1,1;0,0,1"])
    assert code == 0
    doc = json.loads((outdir / "lambda_1" / "summary.json").read_text())
    assert doc["config"]["lambda.fpr"] == "0"
    assert doc["config"]["lambda.regret"] == "1"


def _stacked_means(block):
    """Reference: stack the trials, then reduce over axis 0 (regret columns
    by ``mean``, the others ignoring NaN)."""
    T = block.shape[1]
    out = [block[:, :, j].mean(axis=0) for j in (0, 1)]
    for j in range(2, 7):
        col = block[:, :, j]
        mask = np.isfinite(col)
        count = mask.sum(axis=0)
        total = np.where(mask, col, 0.0).sum(axis=0)
        mean = np.full(T, np.nan)
        np.divide(total, count, out=mean, where=count > 0)
        out.append(mean)
    return np.column_stack(out)


@pytest.mark.parametrize("trials", [1, 3, 8])
def test_round_sums_match_stacked_means_bitwise(trials, tmp_path, monkeypatch):
    # T >= 2: at T = 1 the stacked sum runs along a contiguous axis, where
    # numpy switches to pairwise summation from 8 trials on.
    rng = np.random.default_rng(100 + trials)
    T = 50
    block = rng.standard_normal((trials, T, 7)) * 10.0 ** rng.uniform(-4, 4, (trials, T, 7))
    holes = rng.random((trials, T, 5)) < 0.3
    holes[:, :5] = True                     # rounds with no finite value in any trial
    block[:, :, 2:][holes] = np.nan
    block[:, 7, 5] = -0.0                   # numpy's sum turns this into +0.0
    sums = cli.RoundSums(T)
    for series in block:
        sums.add(series)
    assert sums.means(0, T).tobytes() == _stacked_means(block).tobytes()
    assert sums.means(10, 17).tobytes() == _stacked_means(block)[10:17].tobytes()
    # the chunk size changes how the file is written, never what
    cli.write_rounds_csv(tmp_path / "a.csv", "mw", sums)
    monkeypatch.setattr(cli, "ROUNDS_CHUNK", 7)
    cli.write_rounds_csv(tmp_path / "b.csv", "mw", sums)
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == ROUNDS_HEADER and len(rows) == T + 1
    assert rows[1].startswith("1,mw,") and rows[1].endswith(",,,,,")


def test_round_sums_add_in_trial_order_at_horizon_one():
    # Accepted difference: at T = 1 the stacked mean of 8 or more trials
    # was numpy's pairwise sum; the round sums stay a left-to-right sum in
    # trial order, which can differ from it in the last bit.
    rng = np.random.default_rng(7)
    block = rng.standard_normal((16, 1, 7)) * 10.0 ** rng.uniform(-4, 4, (16, 1, 7))
    block[::3, 0, 2:] = np.nan
    sums = cli.RoundSums(1)
    for series in block:
        sums.add(series)
    expected = []
    for j in range(7):
        values = [v for v in block[:, 0, j].tolist() if math.isfinite(v)]
        total = 0.0
        for v in values:
            total += v
        expected.append(total / len(values))
    assert sums.means(0, 1).tobytes() == np.array([expected]).tobytes()
    assert sums.means(0, 1).tobytes() != _stacked_means(block).tobytes()


MALFORMED = {
    # case: (arguments, with {d} for the directory holding the inputs, exit code)
    "bad_config_bytes": ("run --config {d}/bad.cfg", 2),
    "bad_dataset_bytes": ("stats --data {d}/bad.csv --preset {d}/good.preset", 3),
    "bad_preset_bytes": ("stats --data {d}/good.csv --preset {d}/bad.preset", 3),
    "bad_prediction_bytes": ("run --config {d}/bad_preds.cfg", 3),
    "empty_prediction_file": ("run --config {d}/empty_preds.cfg", 3),
    "duplicate_expert_names": ("run --config {d}/dup_preds.cfg", 3),
    "split_ratio_zero": ("stats --data {d}/good.csv --preset {d}/good.preset "
                         "--split-ratio 0", 2),
    "split_ratio_above_one": ("stats --data {d}/good.csv --preset {d}/good.preset "
                              "--split-ratio 1.5", 2),
    "missing_preset": ("stats --data {d}/good.csv --preset {d}/absent.preset", 3),
    # the misspelt filter key was ignored: all four rows were kept
    "misspelt_preset_key": ("stats --data {d}/good.csv --preset {d}/typo.preset", 3),
    "stats_negative_seed": ("stats --data {d}/good.csv --preset {d}/good.preset --seed -1", 2),
    "prediction_file_wrong_length": ("run --config {d}/short_preds.cfg", 3),
    # float() parses "nan": the logistic expert's weights went NaN and the run exited 0
    "non_finite_feature": ("run --config {d}/nan_feature.cfg", 3),
    # neither path builds a feature matrix, yet the columns are still checked
    "non_finite_feature_stats": ("stats --data {d}/inf_feature.csv --preset {d}/good.preset", 3),
    "non_finite_feature_file_experts": ("run --config {d}/inf_feature.cfg", 3),
    # the first "age" column was silently replaced by the second
    "duplicate_dataset_column": ("stats --data {d}/dup_column.csv --preset {d}/good.preset", 3),
    # --workers 0 and below used to run serially and exit 0
    "workers_zero": ("run --config {d}/good.cfg --workers 0", 2),
    "workers_negative": ("validate-bounds --config {d}/good.cfg --workers -2", 2),
    "sweep_workers_zero": ("sweep --config {d}/good.cfg --param eta --values 0.2 "
                           "--workers 0", 2),
    # Numeric edges, each one edit of a 300-round synthetic config (EDGES).
    # These four escaped as exit 1 with a raw traceback.
    "horizon_past_max_dimension": ("run --config {d}/horizon_1e22.cfg", 2),
    "horizon_past_max_array_size": ("run --config {d}/horizon_2e62.cfg", 2),
    "stride_past_int64": ("validate-bounds --config {d}/stride_1e23.cfg", 2),
    # fairness_aware smoothed rates left (0, 1): these exited 4 from inside
    # the q solve ("non-finite entries in A" or "in p_hat", with a RuntimeWarning)
    "alpha_subnormal": ("run --config {d}/alpha_1e-320.cfg", 2),
    "alpha_rate_rounds_to_one": ("run --config {d}/alpha_1.2e-16.cfg", 2),
    "alpha_rate_rounds_to_one_below_horizon": ("run --config {d}/alpha_binade.cfg", 2),
    "alpha_overflows": ("run --config {d}/alpha_1e308.cfg", 2),
    # ln(d)/eta was inf and gamma(eta) 1.0: every margin was written as null
    # and the run exited 0
    "eta_subnormal_mw": ("validate-bounds --config {d}/eta_mw.cfg", 2),
    "eta_subnormal_fairness_aware": ("validate-bounds --config {d}/eta_fairness_aware.cfg", 2),
    # standardization overflowed with a RuntimeWarning and the run exited 0
    "feature_overflows_standardization": ("run --config {d}/huge_feature.cfg", 3),
    # a test value far outside a near-constant training column overflowed
    # in the logistic model's standardization and the run exited 0
    "test_feature_outside_training_spread": ("run --config {d}/far_feature.cfg", 3),
    # the byte-order mark stayed in the first header name: "column 'sex' not in header"
    "dataset_with_byte_order_mark": ("stats --data {d}/bom.csv --preset {d}/good.preset", 0),
    # a synthetic stream read no split ratio, yet summary.json echoed it and the run exited 0
    "synthetic_with_split_ratio": ("run --config {d}/split_ratio_synthetic.cfg", 2),
}

# config name -> (engine, one line replacing or adding a key); mu_a = 1
# makes every group-A arrival positive, so mu_hat_A meets each count t.
EDGES = {
    "horizon_1e22": ("mw", "horizon = 10000000000000000000000"),
    "horizon_2e62": ("mw", f"horizon = {2 ** 62}"),
    "stride_1e23": ("fairness_aware", "stride = 100000000000000000000000"),
    "alpha_1e-320": ("fairness_aware", "dirichlet_alpha = 1e-320"),
    "alpha_1.2e-16": ("fairness_aware", "dirichlet_alpha = 1.2e-16\nstream.mu_a = 1"),
    "alpha_binade": ("fairness_aware", f"dirichlet_alpha = {0.3 * 2.0 ** -44!r}\nstream.mu_a = 1"),
    "alpha_1e308": ("fairness_aware", "dirichlet_alpha = 1e308"),
    "eta_mw": ("mw", "eta = 1e-320"),
    "eta_fairness_aware": ("fairness_aware", "eta = 1e-320"),
    "split_ratio_synthetic": ("mw", "data.split_ratio = 0.5"),
}


def edge_config(engine, edit):
    base = {"engine": engine, "horizon": "300", "eta": "0.2", "seed": "1", "trials": "1",
            "stream.p": "0.7", "stream.mu_a": "0.3", "stream.mu_b": "0.25",
            "experts.profile.f1": "0.1, 0.2, 0.1, 0.2", "experts.profile.f2": "0.3, 0.3, 0.3, 0.3"}
    for line in edit.split("\n"):
        key, _, value = line.partition(" = ")
        base[key] = value
    return "".join(f"{k} = {v}\n" for k, v in base.items())


def write_malformed_inputs(d):
    census = "age,sex,income\n30,Male,high\n41,Female,low\n35,Male,low\n52,Female,high\n"
    preset = "label.column = income\nlabel.positive = high\ngroup.column = sex\ngroup.a = Male\n"
    files = {"good.csv": census.encode(), "good.preset": preset.encode(),
             "bad.cfg": b"engine = mw\nhorizon = 5\xff\n",
             "good.cfg": (b"engine = mw\nhorizon = 5\nstream.p = 0.5\nstream.mu_a = 0.4\n"
                          b"stream.mu_b = 0.6\nexperts.profile.f1 = 0.1, 0.1, 0.1, 0.1\n"
                          b"experts.profile.f2 = 0.2, 0.2, 0.2, 0.2\n"),
             "bad.csv": census.replace("Female,low", "Fe\xffmale,low").encode("latin-1"),
             "bad.preset": preset.encode() + b"note = caf\xe9\n",
             "typo.preset": (preset + "filtr.1 = age >= 40\n").encode(),
             "bad_preds.csv": b"f1,f2\n1,0\n\xff,1\n", "empty_preds.csv": b"",
             "dup_preds.csv": b"f1,f1\n1,0\n0,1\n",
             # the dataset keeps four rows, so a dataset-mode file needs four
             "short_preds.csv": b"f1,f2\n1,0\n0,1\n1,1\n",
             "short_preds.cfg": (
                 "engine = mw\ntrials = 1\nstream.kind = dataset\n"
                 f"data.path = {d}/good.csv\ndata.preset = {d}/good.preset\n"
                 f"experts.source = file\nexperts.file = {d}/short_preds.csv\n").encode(),
             "nan_feature.csv": census.replace("41,", "nan,").encode(),
             "nan_feature.cfg": (
                 "engine = mw\ntrials = 1\nstream.kind = dataset\n"
                 f"data.path = {d}/nan_feature.csv\ndata.preset = {d}/good.preset\n"
                 "experts.source = builtin\n").encode(),
             "inf_feature.csv": census.replace("41,", "inf,").encode(),
             "inf_preds.csv": b"f1,f2\n1,0\n0,1\n1,1\n0,0\n",
             "inf_feature.cfg": (
                 "engine = mw\ntrials = 1\nstream.kind = dataset\n"
                 f"data.path = {d}/inf_feature.csv\ndata.preset = {d}/good.preset\n"
                 f"experts.source = file\nexperts.file = {d}/inf_preds.csv\n").encode(),
             "dup_column.csv": census.replace("age,", "age,age,").replace(
                 "\n30,", "\n30,31,").replace("\n41,", "\n41,41,").replace(
                 "\n35,", "\n35,35,").replace("\n52,", "\n52,52,").encode()}
    for name in ("bad_preds", "empty_preds", "dup_preds"):
        files[f"{name}.cfg"] = (
            "engine = mw\nhorizon = 2\neta = 0.2\ntrials = 1\n"
            "stream.kind = synthetic\nstream.p = 0.5\nstream.mu_a = 0.4\nstream.mu_b = 0.6\n"
            f"experts.source = file\nexperts.file = {d / name}.csv\n").encode()
    for name, (engine, edit) in EDGES.items():
        files[f"{name}.cfg"] = edge_config(engine, edit).encode()
    files["huge_feature.csv"] = "".join(
        f"{v},{sex},{income}\n" for v, sex, income in
        (("age", "sex", "income"), ("1e308", "Male", "high"), ("-1e308", "Female", "low"),
         ("1e308", "Male", "low"), ("-1e308", "Female", "high"), ("1e308", "Male", "high"),
         ("-1e308", "Female", "low"))).encode()
    files["huge_feature.cfg"] = (
        "engine = mw\ntrials = 1\nstream.kind = dataset\n"
        f"data.path = {d}/huge_feature.csv\ndata.preset = {d}/good.preset\n").encode()
    # seed 0 splits six rows into training rows 3, 2, 5, 4 and test rows 0, 1
    files["far_feature.csv"] = ("age,sex,income\n1e300,Male,high\n1,Female,low\n1,Male,high\n"
                                "1.0000000000000002,Female,low\n1,Male,low\n"
                                "1.0000000000000002,Female,high\n").encode()
    files["far_feature.cfg"] = (
        "engine = mw\ntrials = 1\nstream.kind = dataset\n"
        f"data.path = {d}/far_feature.csv\ndata.preset = {d}/good.preset\n").encode()
    files["bom.csv"] = b"\xef\xbb\xbf" + "sex,age,income\nMale,30,high\nFemale,41,low\n".encode()
    for name, data in files.items():
        (d / name).write_bytes(data)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_with_documented_code(tmp_path, capsys, case):
    write_malformed_inputs(tmp_path)
    template, expected = MALFORMED[case]
    argv = template.format(d=tmp_path).split()
    if argv[0] in ("run", "validate-bounds", "sweep"):
        argv += ["--out", str(tmp_path / "out")]
        if "--workers" not in argv:
            argv += ["--workers", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4, 5)
    assert code == expected, err
    assert "Traceback" not in err
    assert err.startswith({0: "", 2: "config error: ", 3: "data error: "}[expected]), err
    assert (err == "") == (expected == 0), err
