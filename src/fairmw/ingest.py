"""Dataset loading, binarization, splitting and arrival streams.

Datasets are UTF-8 CSV files with a header row (RFC 4180 quoting is
accepted; a leading byte-order mark is skipped, as in presets and
configs).  A DatasetSchema names the label and group columns and how to
binarize them; everything else it needs is data, so the three bundled
presets (adult, german, compas) are editable text files in
``fairmw/presets/``.  A loaded dataset is three columns over the kept
rows: coded feature columns, the int8 group vector and the int8 labels.

Binarization values are strings.  A value may list alternatives
separated by ``|`` ("good|1"), or be a numeric comparison such as
``>=25`` — the form used to bracket a numeric column like age into the
two groups.  Rows may additionally be restricted by filter expressions
(``filter.N = column OP value``); a row whose filter cell is missing or
non-numeric (for numeric comparisons) fails the filter and is dropped.
When ``group.b`` is given, rows matching neither group expression are
dropped, which is how a multi-valued attribute is restricted to two
groups.  All drops are counted in the IngestReport, each row under the
first reason it meets: ragged_row, filtered, missing_label,
missing_group, missing_feature, group_not_listed.

Missing cells are the empty string or "?" after whitespace stripping;
the only missing policy is drop_row.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .domain import CONFIG_KEY, trial_seed_sequence
from .errors import DataError, utf8_lines

__all__ = [
    "DatasetSchema",
    "DatasetStats",
    "FeatureColumns",
    "IngestReport",
    "load_dataset",
    "dataset_stats",
    "split_shuffle",
    "reshuffle",
    "load_preset",
    "parse_pairs",
    "preset_path",
    "BUNDLED_PRESETS",
    "synth_stream",
]

MISSING = frozenset(("", "?"))
BUNDLED_PRESETS = ("adult", "german", "compas")

# Two-character operators come first so that ">=" is not read as ">".
_FILTER_OPS = {">=": operator.ge, "<=": operator.le, "!=": operator.ne,
               "==": operator.eq, ">": operator.gt, "<": operator.lt}


def _matcher(expr: str):
    """Compile a value expression into a cell predicate.

    A comparison prefix against a number compares numerically (cells that
    do not parse fail the predicate).  ==/!= against a non-numeric value
    test membership in |-separated string alternatives.  Any other
    op-looking prefix of a non-numeric value is taken to be literal data
    (the census income label ">50K" is the motivating case), so it falls
    through to plain membership, as does an expression with no prefix.
    """
    expr = expr.strip()
    for op in _FILTER_OPS:
        if not expr.startswith(op):
            continue
        rest = expr[len(op):].strip()
        try:
            threshold = float(rest)
        except ValueError:
            if op not in ("==", "!="):
                break
            alts = {a.strip() for a in rest.split("|")}
            if op == "==":
                return lambda cell, _alts=alts: cell in _alts
            return lambda cell, _alts=alts: cell not in _alts

        def cmp(cell: str, _op=_FILTER_OPS[op], _thr=threshold) -> bool:
            try:
                v = float(cell)
            except ValueError:
                return False
            return _op(v, _thr)

        return cmp
    alts = {a.strip() for a in expr.split("|")}
    return lambda cell, _alts=alts: cell in _alts


@dataclass(frozen=True)
class DatasetSchema:
    """How to read one dataset file into feature, group and label columns."""

    label_column: str
    positive_value: str
    group_column: str
    group_a_value: str
    feature_columns: tuple[str, ...] | str = "all-remaining"
    group_b_value: str | None = None
    filters: tuple[tuple[str, str, str], ...] = ()
    name: str = ""
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.label_column == self.group_column:
            raise DataError("label and group columns must differ")
        features = () if self.feature_columns == "all-remaining" else self.feature_columns
        for role, column in (("label", self.label_column), ("group", self.group_column)):
            if column in features:
                raise DataError(f"features: {column!r} is the {role} column")
        if len(set(features)) < len(features):
            raise DataError(f"features: {', '.join(features)} names a column twice")


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_kept: int = 0
    drops: dict = field(default_factory=dict)
    encoding: list = field(default_factory=list)  # (column, kind, categories)
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class DatasetStats:
    n_rounds: int
    p: float
    mu_a_pos: float | None
    mu_b_pos: float | None
    disparate_impact: float | None


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Row i of feature column j is its ``codes[j][i]``-th distinct cell, by
    first occurrence; each ``codes[j]`` is int32.  ``values[j]`` holds a numeric column's distinct cells
    as floats; a one-hot column has None there and ``widths[j]`` categories."""

    codes: tuple[np.ndarray, ...]
    values: tuple[np.ndarray | None, ...]
    widths: tuple[int, ...]

    def matrix(self, rows: np.ndarray, last: np.ndarray | None = None) -> np.ndarray:
        """The float64 (len(rows), sum(widths)) feature matrix of the given
        rows in their order, ending in ``last[rows]`` when ``last`` is given."""
        out = np.zeros((len(rows), sum(self.widths) + (last is not None)))
        at, j = np.arange(len(rows)), 0
        for code, values, width in zip(self.codes, self.values, self.widths):
            if values is None:
                out[at, j + code[rows]] = 1.0
            else:
                out[:, j] = values[code[rows]]
            j += width
        if last is not None:
            out[:, -1] = last[rows]
        return out


def load_dataset(path, schema: DatasetSchema
                 ) -> tuple[tuple[FeatureColumns, np.ndarray, np.ndarray], IngestReport]:
    """Read one CSV into ``(features, group, label)`` plus an audit report.

    ``features`` code the n kept rows' feature columns, which
    ``features.matrix`` writes in any row order; ``group`` (``Group.A`` = 0)
    and ``label`` are int8 vectors in CSV order.
    Numeric feature columns must be finite.  The rest are one-hot encoded
    with category order fixed by first occurrence among kept rows, and the
    ordering is emitted in the report so downstream training is auditable.
    A column the schema reads may repeat in the header only if its cells
    agree on every row, and may not have an empty name.

    The row scan only numbers the stripped cells of the columns the schema
    reads; the drop rules then test each column's distinct cells once.
    """
    report = IngestReport(notes=list(schema.notes))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(utf8_lines(fh, path))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file, no header row") from None
        col = {name: i for i, name in enumerate(header)}
        for needed in (schema.label_column, schema.group_column):
            if needed not in col:
                raise DataError(f"{path}: column {needed!r} not in header")
        if schema.feature_columns == "all-remaining":
            feature_names = list(dict.fromkeys(
                h for h in header if h not in (schema.label_column, schema.group_column)))
        else:
            feature_names = list(schema.feature_columns)
            for name in feature_names:
                if name not in col:
                    raise DataError(f"{path}: feature column {name!r} not in header")
        for fcol, fop, fval in schema.filters:
            if fcol not in col:
                raise DataError(f"{path}: filter column {fcol!r} not in header")
            if fop not in ("==", "!="):
                try:
                    float(fval)
                except ValueError:
                    raise DataError(
                        f"{path}: filter {fcol} {fop} {fval!r} needs a numeric value"
                    ) from None
        # every column the schema reads, once each: label, group, filters, features
        read = list(dict.fromkeys((schema.label_column, schema.group_column,
                                   *(fcol for fcol, _, _ in schema.filters), *feature_names)))
        if "" in read:
            raise DataError(f"{path}: header column {header.index('') + 1} has no name; "
                            "list the feature columns in the preset's features key")
        repeats = [(name, [i for i, h in enumerate(header) if h == name])
                   for name in sorted(read) if header.count(name) > 1]

        ncols, ragged = len(header), 0
        # two indices or more, so a tuple of cells even with one feature or none
        cells = operator.itemgetter(*(col[name] for name in read))
        # per read column: each row's cell as the index of its first occurrence
        codes: list[list[int]] = [[] for _ in read]
        seen: list[dict[str, int]] = [{} for _ in read]
        for row in reader:
            if not row:
                continue
            report.rows_read += 1
            if len(row) != ncols:
                ragged += 1
                continue
            for name, idx in repeats:
                if len({row[i].strip() for i in idx}) > 1:
                    raise DataError(
                        f"{path}: duplicate column name {name!r} in header, and its "
                        f"columns differ on data row {report.rows_read}: "
                        f"{[row[i].strip() for i in idx]!r}")
            for code, first, cell in zip(codes, seen, cells(row)):
                code.append(first.setdefault(cell.strip(), len(first)))

    n = report.rows_read - ragged
    column = {name: (np.array(code, dtype=np.int32), list(first))
              for name, code, first in zip(read, codes, seen)}
    del codes, seen

    def hit(tests) -> np.ndarray:
        """Rows where some (column, test) pair's test holds; each test runs
        once per distinct cell of its column."""
        out = np.zeros(n, dtype=bool)
        for name, test in tests:
            code, distinct = column[name]
            out |= np.array([test(cell) for cell in distinct], dtype=bool)[code]
        return out

    missing = MISSING.__contains__
    is_group_a = _matcher(schema.group_a_value)
    is_group_b = _matcher(schema.group_b_value) if schema.group_b_value else None
    drops = (
        ("filtered", hit((fcol, lambda cell, m=_matcher(fop + fval): not m(cell))
                         for fcol, fop, fval in schema.filters)),
        ("missing_label", hit([(schema.label_column, missing)])),
        ("missing_group", hit([(schema.group_column, missing)])),
        ("missing_feature", hit((name, missing) for name in feature_names)),
        ("group_not_listed", hit([(schema.group_column,
                                   lambda cell: not (is_group_a(cell) or is_group_b(cell)))]
                                 if is_group_b else [])),
    )
    keep = np.ones(n, dtype=bool)
    report.drops = {"ragged_row": ragged} if ragged else {}
    for reason, rows in drops:   # a row counts under the first reason it meets
        if count := int(np.count_nonzero(rows & keep)):
            report.drops[reason] = count
        keep &= ~rows

    # Group.B and POS are 1
    group = hit([(schema.group_column, lambda cell: not is_group_a(cell))])[keep]
    label = hit([(schema.label_column, _matcher(schema.positive_value))])[keep]
    if len(label) and not label.any():
        raise DataError(
            f"{path}: positive value {schema.positive_value!r} matched no row")

    features, report.encoding = _code_columns(path, feature_names,
                                              [column[name] for name in feature_names], keep)
    report.rows_kept = len(label)
    return (features, group.astype(np.int8), label.astype(np.int8)), report


def _code_columns(path, names: list[str], columns: list[tuple[np.ndarray, list[str]]],
                  keep: np.ndarray) -> tuple[FeatureColumns, list]:
    """Code each column's kept rows by first occurrence among them.

    In ``columns[j] = (code, distinct)``, row i's cell is
    ``distinct[code[i]]``; ``keep`` masks the kept rows.  A column is
    numeric when each of its kept distinct cells parses as a finite number,
    one-hot otherwise."""
    codes, values, encoding = [], [], []
    for name, (code, distinct) in zip(names, columns):
        used, first, inverse = np.unique(code[keep], return_index=True, return_inverse=True)
        order = np.argsort(first)   # the kept distinct cells, by first occurrence
        codes.append(np.argsort(order).astype(np.int32)[inverse])
        cells = [distinct[i] for i in used[order]]
        try:
            floats = np.array([float(v) for v in cells])
        except ValueError:
            values.append(None)
            encoding.append((name, "one-hot", tuple(cells)))
            continue
        bad = np.flatnonzero(~np.isfinite(floats))
        if bad.size:
            raise DataError(f"{path}: feature column {name!r} holds "
                            f"{cells[bad[0]]!r}, which is not a finite number")
        values.append(floats)
        encoding.append((name, "numeric", ()))
    widths = tuple(len(cats) or 1 for _, _, cats in encoding)
    return FeatureColumns(tuple(codes), tuple(values), widths), encoding


def dataset_stats(group: np.ndarray, label: np.ndarray) -> DatasetStats:
    """Empirical n, p, per-group positive rates and disparate impact of
    the rows' group and label columns."""
    n = len(group)
    if not n:
        raise DataError("no rows")
    neg_a, pos_a, neg_b, pos_b = np.bincount(
        2 * group.astype(np.intp) + label, minlength=4).tolist()
    n_a, n_b = neg_a + pos_a, neg_b + pos_b
    mu_a = pos_a / n_a if n_a else None
    mu_b = pos_b / n_b if n_b else None
    di = (mu_b / mu_a) if (mu_a and mu_b is not None) else None
    return DatasetStats(n_rounds=n, p=n_a / n, mu_a_pos=mu_a, mu_b_pos=mu_b,
                        disparate_impact=di)


def split_shuffle(n: int, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded permutation of range(n): the first floor(ratio*n) indices
    train, the rest are the test split, in that order."""
    if not n:
        raise DataError("cannot split an empty dataset")
    CONFIG_KEY["data.split_ratio"].check(ratio, name="split ratio")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    cut = int(ratio * n)
    return perm[:cut], perm[cut:]


def reshuffle(n: int, seed: int, trial: int) -> np.ndarray:
    """Per-trial arrival order of n test examples, as indices: one
    permutation from the stream child of the documented derivation."""
    stream_ss = trial_seed_sequence(seed, trial)[0]
    return np.random.default_rng(stream_ss).permutation(n)


def synth_stream(p: float, mu_a: float, mu_b: float, T: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """I.i.d. arrivals as int8 ``(group, label)`` columns: group A
    (``Group.A`` = 0) with probability p, then the group's positive rate
    decides the label.

    The uniforms are one (T, 2) block, group draw first: the same doubles,
    in the same order, as two scalar draws per arrival."""
    u = rng.random((T, 2))
    group = (u[:, 0] >= p).astype(np.int8)
    label = (u[:, 1] < np.where(group, mu_b, mu_a)).astype(np.int8)
    return group, label


def parse_pairs(text: str, source, error: type[Exception]) -> list[tuple[int, str, str]]:
    """Split ``key = value`` lines into (line number, key, value) triples.

    Blank lines and ``#`` comment lines are skipped and both sides are
    stripped.  A line without ``=`` raises ``error``; every other rule
    (duplicates, empty keys, known keys) is the caller's.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{source}:{lineno}: expected key = value, got {line!r}")
        out.append((lineno, key.strip(), value.strip()))
    return out


def preset_path(name: str):
    """Filesystem path of a bundled preset (context-free: files ship as data)."""
    return resources.files("fairmw").joinpath("presets", f"{name}.preset")


_PRESET_KEYS = ("name", "note", "label.column", "label.positive", "group.column",
                "group.a", "group.b", "features")


def load_preset(name_or_path) -> DatasetSchema:
    """Load a schema from a bundled preset name or a preset file path."""
    name = str(name_or_path)
    if name in BUNDLED_PRESETS:
        text = preset_path(name).read_text(encoding="utf-8-sig")
        source = f"preset:{name}"
    else:
        with open(name_or_path, encoding="utf-8-sig") as fh:
            text = "".join(utf8_lines(fh, name))
        source = name

    # note lines accumulate; any other key may appear once.
    pairs, kv = [], {}
    for lineno, key, value in parse_pairs(text, source, DataError):
        if key not in _PRESET_KEYS and not key.startswith(("note.", "filter.")):
            raise DataError(f"{source}:{lineno}: unknown key {key!r}")
        if key in kv and key != "note":
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs.append((key, value))
        kv[key] = value

    required = ("label.column", "label.positive", "group.column", "group.a")
    for key in required:
        if key not in kv:
            raise DataError(f"{source}: missing required key {key!r}")

    features: tuple[str, ...] | str = "all-remaining"
    if kv.get("features", "all-remaining") != "all-remaining":
        features = tuple(f.strip() for f in kv["features"].split(",") if f.strip())

    filters = []
    for key, value in pairs:
        if key.startswith("filter."):
            parts = value.split(None, 2)
            if len(parts) != 3 or parts[1] not in _FILTER_OPS:
                raise DataError(f"{source}: bad filter {value!r} "
                                "(expected: column OP value)")
            filters.append((parts[0], parts[1], parts[2]))
    notes = tuple(v for k, v in pairs if k == "note" or k.startswith("note."))

    return DatasetSchema(
        label_column=kv["label.column"],
        positive_value=kv["label.positive"],
        group_column=kv["group.column"],
        group_a_value=kv["group.a"],
        feature_columns=features,
        group_b_value=kv.get("group.b") or None,
        filters=tuple(filters),
        name=kv.get("name", ""),
        notes=notes,
    )
