import tracemalloc

import numpy as np
import pytest

import scalar_reference
from fairmw.domain import Group, NEG, POS, trial_seed_sequence
from fairmw.errors import ConfigError, EmptyDataset, SchemaError
from fairmw.ingest import (
    BUNDLED_PRESETS,
    DatasetSchema,
    _code_columns,
    dataset_stats,
    load_dataset,
    load_preset,
    preset_path,
    reshuffle,
    split_shuffle,
    synth_stream,
)

BASIC = DatasetSchema(
    label_column="income",
    positive_value="high",
    group_column="sex",
    group_a_value="Male",
)


def load_matrix(path, schema):
    """``load_dataset`` with its features written as the kept rows' matrix
    in CSV order."""
    (features, group, label), report = load_dataset(path, schema)
    return (features.matrix(np.arange(len(label))), group, label), report


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_basic_parse(tmp_path):
    path = write_csv(tmp_path, "age,sex,income\n39,Male,high\n26,Female,low\n41,Male,low\n")
    (x, group, label), report = load_matrix(path, BASIC)
    assert report.rows_read == 3
    assert report.rows_kept == 3
    assert report.drops == {}
    assert group.dtype == np.int8 and label.dtype == np.int8 and x.dtype == np.float64
    assert group.tolist() == [Group.A, Group.B, Group.A]
    assert label.tolist() == [POS, NEG, NEG]
    assert x.tolist() == [[39.0], [26.0], [41.0]]
    assert report.encoding == [("age", "numeric", ())]


def test_missing_cells_drop_rows(tmp_path):
    path = write_csv(tmp_path, (
        "age,sex,income\n"
        "39,Male,high\n"
        "40,Male,?\n"        # missing label
        "35,,high\n"         # missing group
        "?,Female,high\n"    # missing feature
        "30,Female\n"        # ragged
    ))
    (x, group, label), report = load_matrix(path, BASIC)
    assert report.rows_read == 5
    assert report.rows_kept == 1
    assert report.drops == {
        "missing_label": 1, "missing_group": 1, "missing_feature": 1, "ragged_row": 1}
    assert x.shape == (1, 1) and len(group) == len(label) == 1


def test_no_kept_rows_give_an_empty_feature_matrix(tmp_path):
    # every row dropped: the (0, k) matrix still has one column per feature
    path = write_csv(tmp_path, "age, job ,sex,income\n39,clerk,Male,?\n ? ,trade,Female,low\n")
    (x, group, label), report = load_matrix(path, BASIC)
    assert report.rows_kept == 0
    assert report.drops == {"missing_label": 1, "missing_feature": 1}
    assert x.shape == (0, 2) and x.dtype == np.float64
    assert group.shape == label.shape == (0,)


def test_one_and_no_feature_columns(tmp_path):
    # the row scan reads one feature cell, or none, like any other count
    text = "age,sex,income\n 39 ,Male,high\n?,Female,low\n41,Female, low \n"
    (x, group, label), report = load_matrix(write_csv(tmp_path, text), BASIC)
    assert x.tolist() == [[39.0], [41.0]] and label.tolist() == [POS, NEG]
    assert report.drops == {"missing_feature": 1}
    bare = DatasetSchema("income", "high", "sex", "Male", feature_columns=())
    (x, group, label), report = load_matrix(write_csv(tmp_path, text), bare)
    assert x.shape == (3, 0) and group.tolist() == [Group.A, Group.B, Group.B]
    assert report.drops == {} and report.encoding == []


def test_encoder_matches_copying_reference():
    # the matrix written straight from the coded columns holds the bytes of
    # the per-column pieces joined by np.hstack, and zero kept rows still
    # give a (0, k) matrix
    names = ["age", "job", "site", "hours"]
    rows = [("39", "tech", "A", "40"), ("-0.0", "admin", "A", "1e3"),
            ("41", "tech", "A", "38.5"), ("7", "sales", "A", "40")]
    columns = list(zip(*rows))
    seen = [{v: i for i, v in enumerate(dict.fromkeys(c))} for c in columns]
    codes = [[first[v] for v in c] for first, c in zip(seen, columns)]
    for n, cells in ((4, (codes, seen)), (0, ([[]] * 4, [{}] * 4))):
        features, encoding = _code_columns("f.csv", names, *cells)
        want, want_encoding = scalar_reference.encode_features("f.csv", names, *cells, n)
        assert encoding == want_encoding
        got = features.matrix(np.arange(n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.shape == (0, 4)
    assert [kind for _, kind, _ in encoding] == ["numeric"] * 4


def test_matrix_in_any_row_order_matches_the_gathered_reference():
    # Written for a permuted row order with the group column last, the
    # matrix is the reference's CSV-order matrix with the group column
    # stacked on, then indexed by the rows: the split-order gather that
    # builtin experts train on.
    rng = np.random.default_rng(8)
    n = 300
    columns = [rng.integers(0, 40, n).astype(str).tolist(),
               rng.choice(["tech", "admin", "sales", "crafts"], n).tolist(),
               [repr(v) for v in rng.standard_normal(n).tolist()],
               rng.choice(["US", "CA"], n).tolist()]
    columns[2][5] = "-0.0"
    seen = [{v: i for i, v in enumerate(dict.fromkeys(c))} for c in columns]
    codes = [[first[v] for v in c] for first, c in zip(seen, columns)]
    names = ["age", "job", "score", "country"]
    group = (rng.random(n) < 0.6).astype(np.int8)
    features, encoding = _code_columns("f.csv", names, codes, seen)
    x, want_encoding = scalar_reference.encode_features("f.csv", names, codes, seen, n)
    assert encoding == want_encoding and "-0.0" in seen[2]
    assert [kind for _, kind, _ in encoding] == ["numeric", "one-hot", "numeric", "one-hot"]
    for rows in (rng.permutation(n), rng.permutation(n)[:17], np.arange(0)):
        for last in (group, None):
            want = (np.column_stack((x, group)) if last is not None else x)[rows]
            got = features.matrix(rows, last)
            assert got.dtype == np.float64
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_load_dataset_memory(tmp_path):
    # Loading and then writing the kept rows' matrix peaks at about 1.25
    # times the bytes of the matrix: the matrix beside the per-column cell
    # codes.  Loading alone peaks at 0.6 times, in the row scan's lists.
    # Encoding each column into its own array before np.hstack peaked at
    # 2.4 times.
    path = tmp_path / "census.csv"
    scalar_reference.write_census_csv(path, 10000, seed=5)
    schema = load_preset("adult")
    tracemalloc.start()
    try:
        (x, _, _), _ = load_matrix(path, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape[0] > 9000 and x.shape[1] > 70
    assert peak < 1.9 * x.nbytes, peak / x.nbytes


def test_unmatched_group_value_goes_to_b(tmp_path):
    path = write_csv(tmp_path, "age,sex,income\n30,Other,high\n31,Unknown,low\n")
    (_, group, label), _ = load_dataset(path, BASIC)
    assert group.tolist() == [Group.B, Group.B]
    assert dataset_stats(group, label).p == 0.0


def test_group_b_value_restricts(tmp_path):
    schema = DatasetSchema(
        label_column="y", positive_value="1", group_column="race",
        group_a_value="White", group_b_value="Black")
    path = write_csv(tmp_path, "race,y\nWhite,1\nBlack,0\nAsian,1\nBlack,1\n")
    (x, group, label), report = load_matrix(path, schema)
    assert x.shape == (3, 0) and len(label) == 3
    assert report.drops == {"group_not_listed": 1}
    assert group.tolist() == [Group.A, Group.B, Group.B]


def test_schema_errors(tmp_path):
    missing_col = write_csv(tmp_path, "age,income\n30,high\n", "a.csv")
    with pytest.raises(SchemaError, match="'sex' not in header"):
        load_dataset(missing_col, BASIC)

    no_positive = write_csv(tmp_path, "age,sex,income\n30,Male,low\n", "b.csv")
    with pytest.raises(SchemaError, match="matched no row"):
        load_dataset(no_positive, BASIC)

    empty = write_csv(tmp_path, "", "c.csv")
    with pytest.raises(SchemaError, match="empty file"):
        load_dataset(empty, BASIC)

    with pytest.raises(SchemaError, match="columns must differ"):
        DatasetSchema(label_column="x", positive_value="1",
                      group_column="x", group_a_value="1")

    bad_feature = DatasetSchema(
        label_column="income", positive_value="high", group_column="sex",
        group_a_value="Male", feature_columns=("nope",))
    ok_file = write_csv(tmp_path, "age,sex,income\n30,Male,high\n", "d.csv")
    with pytest.raises(SchemaError, match="feature column 'nope'"):
        load_dataset(ok_file, bad_feature)


def test_duplicate_header_name(tmp_path):
    # the first x column used to be silently replaced by the second
    path = write_csv(tmp_path, "x,x,sex,income\n1,10,Male,high\n2,20,Female,low\n"
                               "3,30,Male,low\n")
    with pytest.raises(SchemaError, match="duplicate column name 'x'"):
        load_dataset(path, BASIC)

    # a repeated column that agrees on every row is one column
    same = write_csv(tmp_path, "x,x,sex,income\n1,1,Male,high\n2,2,Female,low\n", "same.csv")
    (x, _, _), report = load_matrix(same, BASIC)
    assert x.tolist() == [[1.0], [2.0]]
    assert report.encoding == [("x", "numeric", ())]


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e999"])
def test_non_finite_numeric_feature(tmp_path, cell):
    path = write_csv(tmp_path, f"age,sex,income\n39,Male,high\n{cell},Female,low\n")
    with pytest.raises(SchemaError, match=f"'age' holds '{cell}'"):
        load_dataset(path, BASIC)


def test_numeric_comparison_group(tmp_path):
    schema = DatasetSchema(
        label_column="y", positive_value="1", group_column="age",
        group_a_value=">=25")
    path = write_csv(tmp_path, "age,x,y\n24,1,0\n25,2,1\n70,3,1\noops,4,1\n")
    (_, group, _), _ = load_dataset(path, schema)
    # the unparseable age fails the comparison and lands in group B
    assert group.tolist() == [Group.B, Group.A, Group.A, Group.B]


def test_op_prefixed_label_is_literal(tmp_path):
    # income values like ">50K" begin with a comparison character but are
    # plain category strings
    schema = DatasetSchema(
        label_column="income", positive_value=">50K|>50K.",
        group_column="sex", group_a_value="Male")
    path = write_csv(tmp_path, "sex,income\nMale,>50K\nFemale,<=50K\nMale,>50K.\n")
    (_, _, label), _ = load_dataset(path, schema)
    assert label.tolist() == [POS, NEG, POS]


def test_filters(tmp_path):
    schema = DatasetSchema(
        label_column="y", positive_value="1", group_column="g", group_a_value="a",
        filters=(("age", ">=", "18"), ("age", "<", "65"),
                 ("kind", "==", "F|M"), ("flag", "!=", "-1")))
    path = write_csv(tmp_path, (
        "age,kind,flag,g,y\n"
        "30,F,0,a,1\n"
        "17,F,0,a,1\n"     # age below 18
        "70,M,0,b,0\n"     # age above 64
        "40,X,0,a,0\n"     # kind not F|M
        "41,M,-1,b,1\n"    # flag == -1
        "abc,M,0,a,1\n"    # non-numeric age fails the numeric filter
    ))
    (x, group, label), report = load_matrix(path, schema)
    assert len(x) == len(group) == len(label) == 1
    assert report.drops == {"filtered": 5}


def test_filter_needs_numeric_value(tmp_path):
    schema = DatasetSchema(
        label_column="y", positive_value="1", group_column="g", group_a_value="a",
        filters=(("age", ">=", "young"),))
    path = write_csv(tmp_path, "age,g,y\n30,a,1\n")
    with pytest.raises(SchemaError, match="needs a numeric value"):
        load_dataset(path, schema)


def test_one_hot_first_occurrence(tmp_path):
    path = write_csv(tmp_path, (
        "job,score,sex,income\n"
        "tech,1.5,Male,high\n"
        "admin,2.0,Female,low\n"
        "tech,0.5,Male,low\n"
        "sales,3.0,Female,high\n"
    ))
    (x, _, _), report = load_matrix(path, BASIC)
    assert report.encoding == [
        ("job", "one-hot", ("tech", "admin", "sales")),
        ("score", "numeric", ()),
    ]
    assert x[0].tolist() == [1.0, 0.0, 0.0, 1.5]
    assert x[1].tolist() == [0.0, 1.0, 0.0, 2.0]
    assert x[3].tolist() == [0.0, 0.0, 1.0, 3.0]


def test_numeric_roundtrip(tmp_path):
    # a numeric-only table survives re-emission untouched
    rng = np.random.default_rng(4)
    rows = [(float(rng.integers(18, 70)), round(float(rng.uniform()), 6),
             "Male" if rng.random() < 0.5 else "Female",
             "high" if rng.random() < 0.4 else "low") for _ in range(30)]
    text = "age,score,sex,income\n" + "".join(
        f"{a},{s},{g},{y}\n" for a, s, g, y in rows)
    (x, group, label), _ = load_matrix(write_csv(tmp_path, text), BASIC)

    out = "age,score,sex,income\n" + "".join(
        "{},{},{},{}\n".format(
            repr(float(row[0])), repr(float(row[1])),
            "Male" if g == Group.A else "Female",
            "high" if y == POS else "low")
        for row, g, y in zip(x, group, label))
    (x2, group2, label2), _ = load_matrix(write_csv(tmp_path, out, "again.csv"), BASIC)
    assert len(label2) == len(label)
    assert np.array_equal(group, group2) and np.array_equal(label, label2)
    assert np.array_equal(x, x2)


def columns(*cells):
    """int8 group and label columns of (group, label) pairs."""
    group, label = np.array(cells, dtype=np.int8).reshape(-1, 2).T
    return group, label


def test_dataset_stats():
    group, label = columns(*[(Group.A, POS)] * 3, (Group.A, NEG),
                           *[(Group.B, POS)] * 2, *[(Group.B, NEG)] * 2)
    stats = dataset_stats(group, label)
    assert stats.n_rounds == 8
    assert stats.p == 0.5
    assert stats.mu_a_pos == 0.75
    assert stats.mu_b_pos == 0.5
    assert abs(stats.disparate_impact - (0.5 / 0.75)) < 1e-15

    rng = np.random.default_rng(0)
    perm = rng.permutation(8)
    assert dataset_stats(group[perm], label[perm]) == stats

    with pytest.raises(EmptyDataset):
        dataset_stats(*columns())


def test_dataset_stats_degenerate_groups():
    stats = dataset_stats(*columns((Group.B, POS), (Group.B, NEG)))
    assert stats.p == 0.0
    assert stats.mu_a_pos is None
    assert stats.disparate_impact is None

    zero_mu_a = columns((Group.A, NEG), (Group.B, POS))
    assert dataset_stats(*zero_mu_a).disparate_impact is None


def test_split_shuffle():
    train, test = split_shuffle(1000, 0.7, seed=11)
    assert len(train) == 700 and len(test) == 300
    # both splits come from one permutation drawn from SeedSequence(seed)
    perm = np.random.default_rng(np.random.SeedSequence(11)).permutation(1000)
    assert np.array_equal(np.concatenate([train, test]), perm)
    train2, test2 = split_shuffle(1000, 0.7, seed=11)
    assert np.array_equal(train, train2) and np.array_equal(test, test2)
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(1000))
    # a different seed produces a different permutation
    train3, _ = split_shuffle(1000, 0.7, seed=12)
    assert not np.array_equal(train3, train)

    with pytest.raises(ConfigError):
        split_shuffle(1000, 0.0, seed=1)
    with pytest.raises(ConfigError):
        split_shuffle(1000, 1.0, seed=1)
    with pytest.raises(EmptyDataset):
        split_shuffle(0, 0.5, seed=1)


def test_reshuffle():
    a = reshuffle(50, seed=3, trial=0)
    b = reshuffle(50, seed=3, trial=0)
    c = reshuffle(50, seed=3, trial=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sorted(a.tolist()) == list(range(50))
    # the stream child of the trial's documented seed derivation
    want = np.random.default_rng(trial_seed_sequence(3, 1)[0]).permutation(50)
    assert np.array_equal(c, want)


def test_synth_stream():
    rng = np.random.default_rng(8)
    group, label = synth_stream(0.7, 0.3, 0.6, 20000, rng)
    assert group.dtype == label.dtype == np.int8
    assert group.shape == label.shape == (20000,)
    is_a = group == Group.A
    n_a = int(is_a.sum())
    assert abs(n_a / 20000 - 0.7) < 0.02
    assert abs(label[is_a].mean() - 0.3) < 0.02
    assert abs(label[~is_a].mean() - 0.6) < 0.02
    # same seed, same stream
    again = synth_stream(0.7, 0.3, 0.6, 20000, np.random.default_rng(8))
    assert np.array_equal(group, again[0]) and np.array_equal(label, again[1])


@pytest.mark.parametrize("T", [1, 5000])
def test_synth_stream_matches_per_arrival_draws(T):
    # one (T, 2) block of uniforms is the two scalar draws of every arrival,
    # group first, and leaves the rng where they leave it
    for p in (0.0, 0.3, 1.0):
        for mu in (0.0, 0.26, 1.0):
            for mu_a, mu_b in ((mu, 0.16), (0.84, mu)):
                seed = trial_seed_sequence(9, T)[0]
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = synth_stream(p, mu_a, mu_b, T, rng)
                want = scalar_reference.example_stream(p, mu_a, mu_b, T, ref_rng)
                for have, ref in zip(got, want):
                    assert have.dtype == ref.dtype == np.int8
                    assert have.tobytes() == ref.tobytes(), (p, mu_a, mu_b)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synth_stream_memory():
    # a stream keeps two bytes per round; building it peaks at the uniform
    # block plus a few (T,) temporaries
    T = 200000
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        stream = synth_stream(0.85, 0.26, 0.16, T, rng)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream[0]) == T
    assert retained <= 3 * T + 4096, retained
    assert peak < 40 * T, peak


def test_bundled_presets_load():
    assert set(BUNDLED_PRESETS) == {"adult", "german", "compas"}
    adult = load_preset("adult")
    assert adult.label_column == "income"
    assert adult.group_column == "race"
    assert adult.group_a_value == "White"
    assert adult.group_b_value is None
    assert adult.feature_columns == "all-remaining"

    german = load_preset("german")
    assert german.group_column == "age"
    assert german.group_a_value == ">=25"
    assert german.positive_value == "good|1"

    compas = load_preset("compas")
    assert compas.group_a_value == "Caucasian"
    assert compas.group_b_value == "African-American"
    assert len(compas.filters) == 5
    assert ("is_recid", "!=", "-1") in compas.filters
    assert isinstance(compas.feature_columns, tuple)
    assert "priors_count" in compas.feature_columns
    for name in BUNDLED_PRESETS:
        assert preset_path(name).is_file()


def test_preset_from_path_and_errors(tmp_path):
    path = tmp_path / "mine.preset"
    path.write_text(
        "# comment\n"
        "label.column = y\n"
        "label.positive = 1\n"
        "group.column = g\n"
        "group.a = north\n"
        "filter.1 = age >= 21\n"
        "note = hand-written\n",
        encoding="utf-8")
    schema = load_preset(path)
    assert schema.label_column == "y"
    assert schema.filters == (("age", ">=", "21"),)
    assert schema.notes == ("hand-written",)

    with pytest.raises((SchemaError, OSError)):
        load_preset("no-such-preset")

    bad = tmp_path / "bad.preset"
    bad.write_text("label.column = y\njust words\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"bad\.preset:2"):
        load_preset(bad)

    incomplete = tmp_path / "incomplete.preset"
    incomplete.write_text("label.column = y\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="missing required key"):
        load_preset(incomplete)

    badfilter = tmp_path / "badfilter.preset"
    badfilter.write_text(
        "label.column = y\nlabel.positive = 1\n"
        "group.column = g\ngroup.a = x\n"
        "filter.1 = age about 30\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="bad filter"):
        load_preset(badfilter)


def test_preset_unknown_key_is_rejected(tmp_path):
    # a misspelt key used to be ignored, so "filtr.1" ran with no filter
    base = "label.column = y\nlabel.positive = 1\ngroup.column = g\ngroup.a = north\n"
    path = tmp_path / "typo.preset"
    path.write_text(base + "filtr.1 = age >= 40\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"typo\.preset:5: unknown key 'filtr\.1'"):
        load_preset(path)
    # every known key family loads
    path.write_text(base + "name = all\nnote = a\nnote.source = b\ngroup.b = south\n"
                    "features = age, zip\nfilter.1 = age >= 40\n", encoding="utf-8")
    schema = load_preset(path)
    assert (schema.name, schema.notes, schema.group_b_value) == ("all", ("a", "b"), "south")
    assert schema.feature_columns == ("age", "zip")
    assert schema.filters == (("age", ">=", "40"),)


def test_preset_repeated_key_is_rejected(tmp_path):
    # a key other than note means one thing: repeating it used to keep the
    # last value silently
    base = "label.column = y\nlabel.positive = 1\ngroup.column = g\ngroup.a = north\n"
    notes = tmp_path / "notes.preset"
    notes.write_text(base + "note = one\nnote = two\n", encoding="utf-8")
    assert load_preset(notes).notes == ("one", "two")
    for key, value in (("group.a", "south"), ("filter.1", "age >= 30")):
        path = tmp_path / "twice.preset"
        path.write_text(base + f"filter.1 = age >= 21\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=rf"twice\.preset:6: duplicate key '{key}'"):
            load_preset(path)
    for name in BUNDLED_PRESETS:   # the bundled presets repeat only note
        load_preset(name)


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_is_skipped_in_csv_and_presets(tmp_path, monkeypatch):
    # The mark used to stay in the first header name or preset key, so a
    # group column listed first was "not in header" and a preset's first
    # key was unknown.
    csv_text = "sex,age,income\nMale,30,high\nFemale,41,low\nMale,35,low\n"
    (tmp_path / "plain.csv").write_bytes(csv_text.encode())
    (tmp_path / "bom.csv").write_bytes(BOM + csv_text.encode())
    (x, group, label), report = load_matrix(tmp_path / "bom.csv", BASIC)
    (x0, group0, label0), report0 = load_matrix(tmp_path / "plain.csv", BASIC)
    assert group.tolist() == group0.tolist() == [Group.A, Group.B, Group.A]
    assert label.tolist() == label0.tolist()
    assert x.tobytes() == x0.tobytes() and report.to_dict() == report0.to_dict()

    preset = "label.column = income\nlabel.positive = high\ngroup.column = sex\ngroup.a = Male\n"
    (tmp_path / "bom.preset").write_bytes(BOM + preset.encode())
    assert load_preset(tmp_path / "bom.preset") == BASIC
    # the bundled-name branch reads through preset_path
    monkeypatch.setattr("fairmw.ingest.preset_path", lambda name: tmp_path / "bom.preset")
    assert load_preset("adult") == BASIC
