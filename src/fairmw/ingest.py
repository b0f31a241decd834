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
groups.  All drops are counted by reason in the IngestReport.

Missing cells are the empty string or "?" after whitespace stripping;
the only missing policy is drop_row.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .domain import CONFIG_KEY, NEG, POS, Group, trial_seed_sequence
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

    def drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "drops": dict(sorted(self.drops.items())),
            "encoding": [list(e) for e in self.encoding],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class DatasetStats:
    n_rounds: int
    p: float
    mu_a_pos: float | None
    mu_b_pos: float | None
    disparate_impact: float | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class FeatureColumns:
    """Row i of feature column j is its ``codes[j][i]``-th distinct cell, by
    first occurrence.  ``values[j]`` holds a numeric column's distinct cells
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
    agree on every row.
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
        filters = []
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
            filters.append((col[fcol], _matcher(fop + fval)))
        read = {schema.label_column, schema.group_column, *feature_names,
                *(fcol for fcol, _, _ in schema.filters)}
        repeats = [(name, [i for i, h in enumerate(header) if h == name])
                   for name in sorted(read) if header.count(name) > 1]

        is_positive = _matcher(schema.positive_value)
        is_group_a = _matcher(schema.group_a_value)
        is_group_b = _matcher(schema.group_b_value) if schema.group_b_value else None

        labels: list[int] = []
        groups: list[int] = []
        ncols = len(header)
        label_i, group_i = col[schema.label_column], col[schema.group_column]
        feat_i = [col[n] for n in feature_names]
        # two indices or more, so a tuple of cells even with one feature or none
        cells = operator.itemgetter(label_i, group_i, *feat_i)
        # per feature column: each kept row's cell as the index of its first occurrence
        codes: list[list[int]] = [[] for _ in feat_i]
        seen: list[dict[str, int]] = [{} for _ in feat_i]

        for row in reader:
            if not row:
                continue
            report.rows_read += 1
            if len(row) != ncols:
                report.drop("ragged_row")
                continue
            for name, idx in repeats:
                if len({row[i].strip() for i in idx}) > 1:
                    raise DataError(
                        f"{path}: duplicate column name {name!r} in header, and its "
                        f"columns differ on data row {report.rows_read}: "
                        f"{[row[i].strip() for i in idx]!r}")
            if any(not m(row[i].strip()) for i, m in filters):
                report.drop("filtered")
                continue
            lcell, gcell, *feats = map(str.strip, cells(row))
            if lcell in MISSING:
                report.drop("missing_label")
                continue
            if gcell in MISSING:
                report.drop("missing_group")
                continue
            if not MISSING.isdisjoint(feats):
                report.drop("missing_feature")
                continue
            if is_group_a(gcell):
                group = Group.A
            elif is_group_b is not None and not is_group_b(gcell):
                report.drop("group_not_listed")
                continue
            else:
                group = Group.B
            labels.append(POS if is_positive(lcell) else NEG)
            groups.append(group)
            for code, first, v in zip(codes, seen, feats):
                code.append(first.setdefault(v, len(first)))

    if labels and POS not in labels:
        raise DataError(
            f"{path}: positive value {schema.positive_value!r} matched no row")

    features, report.encoding = _code_columns(path, feature_names, codes, seen)
    report.rows_kept = len(labels)
    return (features, np.array(groups, dtype=np.int8), np.array(labels, dtype=np.int8)), report


def _code_columns(path, names: list[str], codes: list[list[int]],
                  seen: list[dict[str, int]]) -> tuple[FeatureColumns, list]:
    """Classify each column: numeric when every distinct cell of ``seen[j]``
    parses as a finite number, one-hot by first occurrence otherwise.
    Column j's row i holds the ``codes[j][i]``-th distinct cell."""
    values, encoding = [], []
    for name, first in zip(names, seen):
        try:
            distinct = np.array([float(v) for v in first])
        except ValueError:
            values.append(None)
            encoding.append((name, "one-hot", tuple(first)))
            continue
        bad = np.flatnonzero(~np.isfinite(distinct))
        if bad.size:
            raise DataError(f"{path}: feature column {name!r} holds "
                            f"{list(first)[bad[0]]!r}, which is not a finite number")
        values.append(distinct)
        encoding.append((name, "numeric", ()))
    codes = tuple(np.array(code, dtype=np.intp) for code in codes)
    widths = tuple(len(cats) or 1 for _, _, cats in encoding)
    return FeatureColumns(codes, tuple(values), widths), encoding


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
