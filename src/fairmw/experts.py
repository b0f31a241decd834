"""Sources of per-round expert predictions.

Two kinds of ensemble share one interface: ``names`` (d unique
identifiers), ``num_rounds`` (None when unlimited) and
``round_predictions(t, group, label, rng)`` returning d predictions in
{0,1} for 1-based round t and its arrival's group and label ints, and
``prediction_block(group, label, rng)``, the (T, d) predictions of rounds
1..T for the int8 group and label columns in one array.

* SyntheticEnsemble — each expert flips the true label with a per-cell
  Bernoulli error rate; the generative model under which per-expert
  epsilon-fairness can be set exactly.
* MatrixEnsemble — serves row t of a fixed (rounds, d) prediction matrix
  on round t.  A prediction file is one; so are builtin models (logistic /
  stump), which ``builtin_predictions`` trains on the training rows of one
  split-order (n, k) feature matrix and which predict every test row once,
  column-wise, before any trial runs.
  In dataset mode the rows are keyed to the test split and each trial
  permutes them with its stream.

Ensembles are immutable after construction; randomness comes only from
the rng passed per call, so parallel trials stay independent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .domain import Group
from .errors import ConfigError, DataError, FairmwError, utf8_lines

BLOCK_ROWS = 1024   # rows per block of the column statistics and the standardization

__all__ = [
    "ErrorProfile",
    "synthetic_predict",
    "SyntheticEnsemble",
    "load_prediction_file",
    "MatrixEnsemble",
    "builtin_predictions",
    "LogisticExpert",
    "StumpExpert",
]


@dataclass(frozen=True)
class ErrorProfile:
    """Chance of predicting the wrong label on each (group, label) cell."""

    e_a_neg: float
    e_a_pos: float
    e_b_neg: float
    e_b_pos: float

    def __post_init__(self):
        for v in (self.e_a_neg, self.e_a_pos, self.e_b_neg, self.e_b_pos):
            if not 0.0 <= v <= 1.0:
                raise FairmwError(f"error rate {v} outside [0, 1]")

    def rate(self, group: Group, label: int) -> float:
        if group == Group.A:
            return self.e_a_pos if label else self.e_a_neg
        return self.e_b_pos if label else self.e_b_neg

    def max_cell_gap(self) -> float:
        """Largest cross-group error gap over the two labels."""
        return max(abs(self.e_a_neg - self.e_b_neg), abs(self.e_a_pos - self.e_b_pos))


def synthetic_predict(profile: ErrorProfile, group: int, label: int,
                      rng: np.random.Generator) -> int:
    """True label, flipped with the cell's error probability; one rng draw."""
    wrong = rng.random() < profile.rate(group, label)
    return 1 - label if wrong else label


class SyntheticEnsemble:
    """d stochastic experts with fixed error profiles."""

    def __init__(self, profiles: list[ErrorProfile], names: list[str] | None = None):
        if len(profiles) < 2:
            raise FairmwError(f"need at least 2 experts, got {len(profiles)}")
        self.profiles = list(profiles)
        self.names = list(names) if names else [f"expert_{i}" for i in range(len(profiles))]
        _check_names(self.names, len(profiles))
        self.num_rounds = None

    @property
    def d(self) -> int:
        return len(self.profiles)

    def round_predictions(self, t: int, group: int, label: int,
                          rng: np.random.Generator) -> np.ndarray:
        # One draw per expert, in declared expert order.
        return np.array([synthetic_predict(p, group, label, rng) for p in self.profiles],
                        dtype=np.int8)

    def prediction_block(self, group: np.ndarray, label: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
        # the doubles, in order, of one round_predictions call per round
        rates = np.array([[p.e_a_neg, p.e_a_pos, p.e_b_neg, p.e_b_pos] for p in self.profiles])
        wrong = rng.random((len(group), self.d)) < rates[:, 2 * group + label].T
        return (wrong != label[:, None]).astype(np.int8)


class MatrixEnsemble:
    """Replays a (rounds, d) int8 prediction matrix; row t serves round t."""

    def __init__(self, names: list[str], matrix: np.ndarray):
        if len(names) < 2:
            raise FairmwError(f"need at least 2 experts, got {len(names)}")
        _check_names(names, len(names))
        self.names = list(names)
        self.matrix = matrix
        self.num_rounds = matrix.shape[0]

    @property
    def d(self) -> int:
        return len(self.names)

    def round_predictions(self, t: int, group: int, label: int, rng=None) -> np.ndarray:
        if t > self.num_rounds:
            raise FairmwError(
                f"prediction matrix has {self.num_rounds} rounds, round {t} requested")
        return self.matrix[t - 1]

    def prediction_block(self, group: np.ndarray, label: np.ndarray, rng=None) -> np.ndarray:
        return self.matrix[:len(group)]


def load_prediction_file(path) -> MatrixEnsemble:
    """Parse the predictions CSV: header of expert names, then 0/1 rows."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        names = [h.strip() for h in header]
        if len(names) < 2 or any(not n for n in names):
            raise DataError(f"{path}: bad header {header!r}")
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate expert names in header")
        rows = []
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {len(names)}")
            parsed = []
            for colnum, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell not in ("0", "1"):
                    raise DataError(
                        f"{path}: row {rownum}, column {colnum}: {cell!r} is not 0 or 1")
                parsed.append(int(cell))
            rows.append(parsed)
    matrix = np.array(rows, dtype=np.int8).reshape(len(rows), len(names))
    return MatrixEnsemble(names, matrix)


class LogisticExpert:
    """Logistic regression trained by full-batch gradient descent on
    features standardized with the training rows' ``mean`` and ``scale``."""

    def __init__(self, weights: np.ndarray, bias: float, mean: np.ndarray, scale: np.ndarray):
        self.weights = weights
        self.bias = bias
        self.mean = mean
        self.scale = scale

    def logits(self, z: np.ndarray) -> np.ndarray:
        """Logit of every row of z, feature rows already standardized.

        A batched matmul of one row against the weights is bitwise the
        1-D ``z @ w`` of that row; a gemv over all rows is not.
        """
        return np.matmul(z[:, None, :], self.weights[:, None])[:, 0, 0] + self.bias


class StumpExpert:
    """Single-feature threshold rule; constant when no split helps."""

    def __init__(self, feature: int, threshold: float, polarity: int, constant: int | None = None):
        self.feature = feature
        self.threshold = threshold
        self.polarity = polarity
        self.constant = constant

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.constant is not None:
            return np.full(len(x), self.constant, dtype=np.int8)
        above = x[:, self.feature] > self.threshold
        return (above if self.polarity > 0 else ~above).astype(np.int8)


def builtin_predictions(x: np.ndarray, y: np.ndarray, kinds, epochs: int,
                        seed: int) -> np.ndarray:
    """The (len(x) - len(y), len(kinds)) int8 predictions of the rows of x
    after the first len(y), by one model per kind trained on those first
    rows and their labels y; model i trains with seed ``seed + 7919 * i``.
    A kind is "logistic" or "stump".

    x must be C-contiguous and finite (ingest rejects non-finite cells);
    it ends in the group column if the models may see it.  Stumps train
    and predict on the raw rows first.  If any model is logistic, x is then
    standardized in place with the training rows' mean and scale, and the
    logistic models train and predict on it: no other array of x's size is
    made, unless x has one column, whose spread numpy takes through a copy
    (``_column_stats``).
    """
    train, test = x[:len(y)], x[len(y):]
    if not len(train):
        raise DataError("empty training split")
    if x.shape[1] == 0:
        raise DataError("no feature columns to train on")
    y = np.asarray(y, dtype=float)
    out = np.empty((len(test), len(kinds)), dtype=np.int8)
    for i, kind in enumerate(kinds):
        if kind == "stump":
            out[:, i] = _train_stump(train, y).predict(test)
        elif kind != "logistic":
            raise ConfigError(f"unknown builtin expert kind {kind!r}")
    if "logistic" in kinds:
        mean, scale = _column_stats(train)
        _standardize(x, mean, scale)
        for i, kind in enumerate(kinds):
            if kind == "logistic":
                model = _fit_logistic(train, y, epochs, seed + 7919 * i, mean, scale)
                out[:, i] = model.logits(test) > 0.0
    return out


def _column_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and the scale of the columns of the C-contiguous x, bitwise
    ``x.mean(axis=0)`` and ``x.std(axis=0)`` with 1.0 where that is 0.

    numpy sums axis 0 of such a matrix row by row, so the sums run over
    blocks of rows, each headed by the running sum of the rows before it;
    only a single column is one contiguous vector, which numpy sums
    pairwise.  Overflowed entries stay inf or nan.
    """
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if x.shape[1] == 1:
            mean, scale = x.mean(axis=0), x.std(axis=0)
        else:
            mean = _row_sum(x, lambda block: block) / n
            scale = np.sqrt(_row_sum(x, lambda block: np.square(d := block - mean, out=d)) / n)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _row_sum(x: np.ndarray, term) -> np.ndarray:
    """The column sums of ``term(block)`` over x's blocks of BLOCK_ROWS rows."""
    total = None
    for start in range(0, len(x), BLOCK_ROWS):
        block = term(x[start:start + BLOCK_ROWS])
        total = block.sum(axis=0) if total is None else np.vstack((total, block)).sum(axis=0)
    return total


def _standardize(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> None:
    """Set x to ``(x - mean) / scale`` in place, a block of rows at a time:
    the same IEEE operations as that expression."""
    if not (np.isfinite(mean).all() and np.isfinite(scale).all()):
        raise DataError("feature values too large to standardize: a column's "
                        "mean or spread overflows")
    with np.errstate(over="ignore"):
        for start in range(0, len(x), BLOCK_ROWS):
            block = x[start:start + BLOCK_ROWS]
            block -= mean
            block /= scale
    # Training rows stay within sqrt(n) spreads of the mean, so only a test
    # row can standardize past the largest double.
    far = np.isinf(x.min(axis=0, initial=0.0)) | np.isinf(x.max(axis=0, initial=0.0))
    if far.any():
        raise DataError(f"feature column {int(np.argmax(far))}: a test value "
                        "is too far outside the training spread to standardize")


def _fit_logistic(z: np.ndarray, y: np.ndarray, epochs: int, seed: int,
                  mean: np.ndarray, scale: np.ndarray) -> LogisticExpert:
    """Gradient descent on the standardized training rows z."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = rng.normal(0.0, 0.01, size=z.shape[1])
    bias = 0.0
    lr = 0.1
    n = z.shape[0]
    for _ in range(epochs):
        residual = 1.0 / (1.0 + np.exp(-(z @ w + bias))) - y
        w -= lr * (z.T @ residual / n)
        bias -= lr * float(np.mean(residual))
    return LogisticExpert(w, bias, mean, scale)


def _train_stump(x: np.ndarray, y: np.ndarray) -> StumpExpert:
    n = x.shape[0]
    majority = int(y.sum() * 2 >= n)
    if np.all(y == y[0]):
        # Degenerate single-label data: the constant predictor is exact.
        return StumpExpert(0, 0.0, 1, constant=int(y[0]))

    # Candidates are visited feature by feature, thresholds ascending, and
    # polarity +1 before -1 at each; only strictly fewer errors replace the
    # best.  Polarity +1 predicts 1 above the threshold, so it errs on the
    # positives at or below it and the negatives above it: with each column
    # sorted once, both counts come from cumulative label counts.
    positive = y == 1.0
    n_pos = int(positive.sum())
    best = (n + 1, 0, 0.0, 1)  # (errors, feature, threshold, polarity)
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        column = x[order, j]
        values = column[np.concatenate(([True], column[1:] != column[:-1]))]   # distinct
        if len(values) < 2:
            continue
        with np.errstate(over="ignore"):
            thresholds = (values[:-1] + values[1:]) / 2.0
        huge = np.isinf(thresholds)   # a + b overflowed: halve first, which is exact there
        thresholds[huge] = values[:-1][huge] / 2.0 + values[1:][huge] / 2.0
        below = np.searchsorted(column, thresholds, side="right")   # predicted 0
        pos_below = np.concatenate(([0], np.cumsum(positive[order])))[below]
        err_pos = pos_below + (n - below) - (n_pos - pos_below)
        errors = np.stack([err_pos, n - err_pos], axis=1).ravel()
        k = int(np.argmin(errors))   # the first of the smallest
        if errors[k] < best[0]:
            best = (int(errors[k]), j, float(thresholds[k // 2]), -1 if k % 2 else 1)
    if best[0] > n:
        # Every feature is constant: fall back to the majority label.
        return StumpExpert(0, 0.0, 1, constant=majority)
    return StumpExpert(best[1], best[2], best[3])


def _check_names(names: list[str], d: int) -> None:
    if len(names) != d or len(set(names)) != d:
        raise ConfigError(f"need {d} unique expert names, got {names!r}")
