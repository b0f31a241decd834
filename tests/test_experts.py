import numpy as np
import pytest

from fairmw.domain import Group, NEG, POS
from fairmw.errors import (
    ConfigError,
    DegenerateData,
    DomainError,
    FormatError,
    InvalidExpertCount,
    StreamExhausted,
)
from fairmw.experts import (
    ErrorProfile,
    LogisticExpert,
    MatrixEnsemble,
    SyntheticEnsemble,
    _train_stump,
    load_prediction_file,
    synthetic_predict,
    train_builtin,
)


def test_error_profile():
    p = ErrorProfile(0.1, 0.2, 0.3, 0.4)
    assert p.rate(Group.A, NEG) == 0.1
    assert p.rate(Group.A, POS) == 0.2
    assert p.rate(Group.B, NEG) == 0.3
    assert p.rate(Group.B, POS) == 0.4
    assert abs(p.max_cell_gap() - 0.2) < 1e-15
    with pytest.raises(DomainError):
        ErrorProfile(1.1, 0.0, 0.0, 0.0)


def test_synthetic_predict_degenerate_profiles():
    rng = np.random.default_rng(0)
    zero = ErrorProfile(0.0, 0.0, 0.0, 0.0)
    one = ErrorProfile(1.0, 1.0, 1.0, 1.0)
    for g in (Group.A, Group.B):
        for y in (NEG, POS):
            assert synthetic_predict(zero, g, y, rng) == y
            assert synthetic_predict(one, g, y, rng) == 1 - y


def test_synthetic_predict_rate():
    rng = np.random.default_rng(17)
    profile = ErrorProfile(0.3, 0.3, 0.3, 0.3)
    wrong = sum(synthetic_predict(profile, Group.A, POS, rng) != POS for _ in range(10000))
    assert abs(wrong / 10000 - 0.3) < 0.02


def test_synthetic_ensemble_basics():
    profiles = [ErrorProfile(0.1, 0.1, 0.1, 0.1), ErrorProfile(0.4, 0.4, 0.4, 0.4)]
    ens = SyntheticEnsemble(profiles)
    assert ens.d == 2
    assert ens.names == ["expert_0", "expert_1"]
    assert ens.num_rounds is None
    preds = ens.round_predictions(1, Group.A, POS, np.random.default_rng(1))
    assert preds.shape == (2,)
    assert set(np.unique(preds)) <= {0, 1}
    with pytest.raises(InvalidExpertCount):
        SyntheticEnsemble([profiles[0]])
    with pytest.raises(ConfigError):
        SyntheticEnsemble(profiles, names=["same", "same"])


def test_synthetic_ensemble_replay_determinism():
    profiles = [ErrorProfile(0.2, 0.3, 0.4, 0.5), ErrorProfile(0.5, 0.4, 0.3, 0.2)]
    ens = SyntheticEnsemble(profiles)
    stream = [(i % 2, i // 2 % 2) for i in range(50)]
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(33)
        runs.append([ens.round_predictions(t + 1, g, y, rng).tolist()
                     for t, (g, y) in enumerate(stream)])
    assert runs[0] == runs[1]


def test_prediction_block_matches_round_predictions():
    # the (T, d) block is bitwise T successive round_predictions calls and
    # leaves the rng where they leave it; a matrix serves its first T rows
    profiles = [ErrorProfile(0.2, 0.3, 0.4, 0.5), ErrorProfile(0.5, 0.4, 0.3, 0.2),
                ErrorProfile(0.0, 1.0, 0.1, 0.9)]
    ens = SyntheticEnsemble(profiles)
    cells = np.random.default_rng(4).integers(0, 4, size=200).astype(np.int8)
    group, label = cells >> 1, cells & 1
    rng_block, rng_rounds = np.random.default_rng(33), np.random.default_rng(33)
    block = ens.prediction_block(group, label, rng_block)
    rounds = np.array([ens.round_predictions(t + 1, g, y, rng_rounds)
                       for t, (g, y) in enumerate(zip(group.tolist(), label.tolist()))])
    assert block.dtype == rounds.dtype == np.int8
    assert block.tobytes() == rounds.tobytes()
    assert rng_block.bit_generator.state == rng_rounds.bit_generator.state
    matrix = np.random.default_rng(5).integers(0, 2, size=(300, 3)).astype(np.int8)
    block = MatrixEnsemble(["a", "b", "c"], matrix).prediction_block(group, label)
    assert np.array_equal(block, matrix[:200])


def test_synthetic_cell_gap_statistics():
    # experts whose profile gaps are exactly eps stay within
    # eps + 3*sqrt(eps(1-eps)/n) empirically
    eps, n = 0.05, 10000
    profiles = [ErrorProfile(0.0, 0.05, 0.05, 0.0), ErrorProfile(0.05, 0.0, 0.0, 0.05)]
    bound = eps + 3.0 * np.sqrt(eps * (1 - eps) / n)
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        for profile in profiles:
            for y in (NEG, POS):
                rates = []
                for g in (Group.A, Group.B):
                    wrong = sum(synthetic_predict(profile, g, y, rng) != y for _ in range(n))
                    rates.append(wrong / n)
                assert abs(rates[0] - rates[1]) <= bound


def test_load_prediction_file(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("f1,f2\n1,0\n", encoding="utf-8")
    ens = load_prediction_file(path)
    assert ens.d == 2
    assert ens.num_rounds == 1
    assert ens.round_predictions(1, Group.A, POS).tolist() == [1, 0]
    with pytest.raises(StreamExhausted):
        ens.round_predictions(2, Group.A, POS)


def test_prediction_file_empty_body(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("f1,f2\n", encoding="utf-8")
    ens = load_prediction_file(path)
    assert ens.num_rounds == 0
    with pytest.raises(StreamExhausted):
        ens.round_predictions(1, Group.A, POS)


def test_prediction_file_format_errors(tmp_path):
    bad_cell = tmp_path / "a.csv"
    bad_cell.write_text("f1,f2\n1,0\n0,2\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"row 3.*column 2"):
        load_prediction_file(bad_cell)

    ragged = tmp_path / "b.csv"
    ragged.write_text("f1,f2\n1,0,1\n", encoding="utf-8")
    with pytest.raises(FormatError, match="row 2"):
        load_prediction_file(ragged)

    dup = tmp_path / "c.csv"
    dup.write_text("f1,f1\n1,0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="duplicate"):
        load_prediction_file(dup)

    empty = tmp_path / "d.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match="empty"):
        load_prediction_file(empty)

    with pytest.raises(OSError):
        load_prediction_file(tmp_path / "missing.csv")


def test_file_ensemble_needs_two_experts(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f1\n1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_prediction_file(path)
    with pytest.raises(InvalidExpertCount):
        MatrixEnsemble(["only"], np.zeros((1, 1), dtype=np.int8))


def separable_split():
    """(x, group, label) of 60 rows, separable with a margin, so 500 epochs
    of gradient descent suffice."""
    rng = np.random.default_rng(5)
    rows, group, label = [], [], []
    while len(rows) < 60:
        x = rng.uniform(-1, 1, size=2)
        if abs(x[0] + x[1]) < 0.3:
            continue
        label.append(int(x[0] + x[1] > 0))
        group.append(int(rng.integers(0, 2)))
        rows.append(x)
    return np.array(rows), np.array(group, dtype=np.int8), np.array(label, dtype=np.int8)


def with_group(x, group):
    """x with the group id as a last column, as experts.include_group adds it."""
    return np.column_stack((x, group))


def test_logistic_separable():
    x, _, y = separable_split()
    model = train_builtin(x, y, "logistic")
    predictions = model.predict(x)
    assert predictions.dtype == np.int8
    assert np.array_equal(predictions, y)


def test_logistic_deterministic():
    x, group, y = separable_split()
    m1 = train_builtin(with_group(x, group), y, "logistic", seed=9)
    m2 = train_builtin(with_group(x, group), y, "logistic", seed=9)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_stump_all_positive_labels():
    x = with_group([0.3, 0.8, 0.1], [Group.A, Group.B, Group.A])
    model = train_builtin(x, [1, 1, 1], "stump")
    assert model.constant == 1
    assert model.predict(np.array([[123.0, 0.0], [-4.0, 1.0]])).tolist() == [1, 1]


def test_stump_constant_features_majority():
    model = train_builtin(np.full((3, 1), 5.0), [1, 0, 1], "stump")
    assert model.constant == 1


def test_stump_learns_threshold():
    x = np.linspace(0, 1, 20)[:, None]
    y = (x[:, 0] > 0.5).astype(int)
    model = train_builtin(x, y, "stump")
    assert model.constant is None
    assert np.array_equal(model.predict(x), y)


def test_train_builtin_errors():
    with pytest.raises(DegenerateData):
        train_builtin(np.empty((0, 2)), np.empty(0), "stump")
    with pytest.raises(DegenerateData):
        train_builtin(np.empty((2, 0)), [1, 0], "logistic")
    x, _, y = separable_split()
    with pytest.raises(ConfigError):
        train_builtin(x, y, "forest")


def test_group_indicator_visibility():
    # labels equal the group id; only the group-aware feature row separates them
    rng = np.random.default_rng(21)
    group = rng.integers(0, 2, size=80)
    x = rng.uniform(size=(80, 1))
    y = group
    xg = with_group(x, group)
    with_group_model = train_builtin(xg, y, "logistic")
    assert np.array_equal(xg[:, -1], group)
    assert np.sum(with_group_model.predict(xg) != y) == 0

    blind = train_builtin(x, y, "logistic")
    assert np.sum(blind.predict(x) != y) > 10


def reference_logit(model, row):
    """The per-row logistic rule that the batched logits replaced."""
    return ((row - model.mean) / model.scale) @ model.weights + model.bias


def reference_predict(model, row) -> int:
    """The per-row logistic and stump rules that the batched predict replaced."""
    if isinstance(model, LogisticExpert):
        return int(reference_logit(model, row) > 0.0)
    if model.constant is not None:
        return model.constant
    above = row[model.feature] > model.threshold
    return int(above) if model.polarity > 0 else int(not above)


def census_frame(n=3000, seed=4):
    """(x, group, label) shaped like the census income export after one-hot encoding:
    wide-range numeric columns (age, fnlwgt, education number, capital gain
    and loss, hours) next to about a hundred 0/1 category columns."""
    rng = np.random.default_rng(seed)
    numeric = np.column_stack([
        rng.integers(17, 91, n), rng.integers(12285, 1484706, n), rng.integers(1, 17, n),
        np.where(rng.random(n) < 0.08, rng.integers(1, 99999, n), 0),
        np.where(rng.random(n) < 0.05, rng.integers(1, 4357, n), 0),
        rng.integers(1, 100, n)]).astype(float)
    onehot = [np.eye(k)[rng.integers(0, k, n)] for k in (7, 16, 7, 14, 6, 5, 41)]
    x = np.hstack([numeric] + onehot)
    score = (0.05 * (x[:, 0] - 38) + 0.3 * (x[:, 2] - 10) + 0.04 * (x[:, 5] - 40)
             + 3e-4 * x[:, 3] + x[:, 22])
    label = (score + rng.normal(0.0, 1.0, n) > 1.0).astype(int)
    group = (rng.random(n) < 0.33).astype(int)
    return x, group.astype(np.int8), label.astype(np.int8)


@pytest.mark.parametrize("include_group", [True, False])
def test_batched_predictions_match_per_row_reference(include_group):
    frame, group, label = census_frame()
    if include_group:
        frame = with_group(frame, group)
    train, y_train, x = frame[:2100], label[:2100], frame[2100:]
    for kind in ("logistic", "stump"):
        model = train_builtin(train, y_train, kind, epochs=50)
        got = model.predict(x)
        assert got.dtype == np.int8 and got.shape == (len(x),)
        assert got.tolist() == [reference_predict(model, row) for row in x], kind
        if kind == "logistic":
            want = np.array([reference_logit(model, row) for row in x])
            assert np.array_equal(model.logits(x).view(np.int64), want.view(np.int64))
    stump = train_builtin(train, y_train, "stump")
    assert stump.constant is None
    flipped = type(stump)(stump.feature, stump.threshold, -stump.polarity)
    assert flipped.predict(x).tolist() == [reference_predict(flipped, row) for row in x]


def test_builtin_ensemble():
    x, group, y = separable_split()
    x = with_group(x, group)
    models = [train_builtin(x, y, "logistic"), train_builtin(x, y, "stump")]
    ens = MatrixEnsemble(["logistic_0", "stump_1"],
                         np.column_stack([m.predict(x) for m in models]))
    assert ens.d == 2
    assert ens.num_rounds == len(y)
    split = list(zip(group.tolist(), y.tolist()))
    for t, (g, label) in enumerate(split, start=1):
        preds = ens.round_predictions(t, g, label)
        assert preds.dtype == np.int8
        assert preds.tolist() == [reference_predict(m, x[t - 1]) for m in models]
    with pytest.raises(StreamExhausted):
        ens.round_predictions(len(split) + 1, *split[0])
    with pytest.raises(InvalidExpertCount):
        MatrixEnsemble(["m"], x[:, :1].astype(np.int8))


def reference_stump(x, y):
    """The O(n^2) threshold scan the sorted sweep replaced."""
    n = x.shape[0]
    majority = int(y.sum() * 2 >= n)
    if np.all(y == y[0]):
        return (0, 0.0, 1, int(y[0]))
    best = (n + 1, 0, 0.0, 1)
    for j in range(x.shape[1]):
        values = np.unique(x[:, j])
        if len(values) < 2:
            continue
        for thr in (values[:-1] + values[1:]) / 2.0:
            pred = (x[:, j] > thr).astype(float)
            err_pos = int(np.sum(pred != y))
            err_neg = n - err_pos
            if err_pos < best[0]:
                best = (err_pos, j, float(thr), 1)
            if err_neg < best[0]:
                best = (err_neg, j, float(thr), -1)
    if best[0] > n:
        return (0, 0.0, 1, majority)
    return (best[1], best[2], best[3], None)


def test_stump_matches_quadratic_reference():
    rng = np.random.default_rng(12)
    for case in range(300):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        # few distinct values per column give ties; some columns are constant
        x = rng.integers(0, int(rng.integers(1, 6)), size=(n, k)).astype(float)
        x[:, rng.random(k) < 0.3] = 2.5
        if case % 3 == 0:
            x += rng.normal(0, 1e-3, size=(n, k)) * (rng.random((n, k)) < 0.5)
        if case % 7 == 0:   # adjacent doubles: the midpoint rounds onto one of them
            x[:, 0] = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        if case % 5 == 0:   # 0.0 and -0.0 in one column, beside non-zero values
            x[:, -1] = rng.choice([-0.0, 0.0, -1.0, 0.5], size=n)
        if case % 11 == 0:  # a column of signed zeros: one value, two bit patterns
            x[:, 0] = rng.choice([-0.0, 0.0], size=n)
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        model = _train_stump(x, y)
        got = (model.feature, model.threshold, model.polarity, model.constant)
        want = reference_stump(x, y)
        assert got == want, case
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes(), case
