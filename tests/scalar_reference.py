"""Scalar, per-round and one-system reference implementations for the tests.

These are the q solve and the trials as they ran before the solve was
batched and the trials became array passes.  ``fairness_aware_trial``
accumulates the alpha sums and the arrival counts round by round in their
own arrays, assembles and solves one system in Python floats before each
stride round, then draws the table from q and then the expert, each with
its own engine-rng call.  ``cell_trial`` is the mw/group_aware loop: one
engine-rng draw from the round's cell, then one update of it.  Both keep
a (group, label, expert) weight table and update its cells through
``fairmw.domain._update_slice``, and fill the trajectory's columns round
by round.  The batched solver and the array passes must reproduce them
bit for bit.  ``record`` fills one round of a trajectory's columns.

``example_stream`` is the per-arrival synthetic stream loop, two scalar
draws per arrival, that ``fairmw.ingest.synth_stream`` must reproduce bit
for bit; ``stream_of`` turns a list of (group, label) arrivals into the
int8 columns a trial takes.

``ConstraintSystem``, ``assemble_constraint_system``, ``solve_q`` and
``objective`` are one-system views of ``fairmw.qopt``'s batched assembly
and solve, which the solver tests are written against; ``dirichlet_rate``
is the per-cell posterior predictive rate of the (group, label) counts.
``group_rates`` and ``gap`` divide a trial's per-group rates out of its
confusion counts and compare them in Python numbers, the reference for
``Trajectory.rates`` and its gap series.

``encode_features`` and ``builtin_payload`` are the builtin-expert set-up
as it ran before it kept one full-size feature matrix at a time: one array
per encoded column joined by ``np.hstack``, the group column appended by
``np.column_stack``, the splits taken by fancy indexing, and logistic
inputs standardized as ``(x - mean) / scale``.  The one matrix written
from the coded columns in split order, and the in-place standardization,
must reproduce them bit for bit.
``write_census_csv`` writes the census-shaped file those tests read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairmw import domain
from fairmw.domain import (
    NEG,
    POS,
    Group,
    recommended_eta,
    trial_seed_sequence,
)
from fairmw.engines import CELL_MAP, Trajectory
from fairmw.errors import DataError, FairmwError
from fairmw.experts import LogisticExpert, train_builtin
from fairmw.qopt import REG_WEIGHT, assemble_systems, solve_q_batch


def example_stream(p, mu_a, mu_b, T, rng):
    """The per-arrival loop: group A with probability p, then the group's
    positive rate decides the label; int8 (group, label) columns."""
    arrivals = []
    for _ in range(T):
        group = Group.A if rng.random() < p else Group.B
        mu = mu_a if group == Group.A else mu_b
        arrivals.append((group, POS if rng.random() < mu else NEG))
    return stream_of(arrivals)


def stream_of(arrivals):
    """int8 (group, label) columns of a list of (group, label) pairs."""
    group, label = np.array(arrivals, dtype=np.int8).reshape(-1, 2).T.copy()
    return group, label


def dirichlet_rate(counts, t, alpha_prior):
    """Posterior predictive cell rates (c + alpha)/(t + 4*alpha)."""
    return (np.asarray(counts, dtype=float) + alpha_prior) / (t + 4.0 * alpha_prior)


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows: fpr, fnr, regret; columns in canonical cell order."""

    a: np.ndarray          # (3, 4)
    b: np.ndarray          # (3,)
    lam: np.ndarray        # (3,) nonnegative

    def __post_init__(self):
        for name in ("a", "b", "lam"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise FairmwError(f"non-finite entries in {name}")


def assemble_constraint_system(alpha_sums, p_hat, mu_a, mu_b, t_elapsed,
                               b_tolerance=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0)):
    """One system: ``assemble_systems`` with n = 1."""
    a = assemble_systems(np.asarray(alpha_sums, dtype=float)[None], [p_hat], [mu_a],
                         [mu_b], [t_elapsed])
    return ConstraintSystem(a[0], np.asarray(b_tolerance, dtype=float),
                            np.asarray(lam, dtype=float))


def solve_q(system):
    """``solve_q_batch`` with n = 1, as the 4-tuple q in canonical cell order."""
    return tuple(solve_q_batch(system.a[None], system.b, system.lam)[0].tolist())


def objective(system, q):
    """||lambda o (Aq - b)||^2 plus the uniform-tie-break term."""
    return _objective(system.a, system.b, system.lam, q)


def assemble(alpha_sums, p_hat, mu_a, mu_b, t_elapsed):
    """The (3, 4) system matrix, one Python float at a time."""
    s_an, s_bn, s_ap, s_bp = (float(v) for v in alpha_sums)
    t = float(t_elapsed)
    a = np.zeros((3, 4))
    a[0, 0] = s_an / (p_hat * (1.0 - mu_a) * t)
    a[0, 1] = -s_bn / ((1.0 - p_hat) * (1.0 - mu_b) * t)
    a[1, 2] = -s_ap / (p_hat * mu_a * t)
    a[1, 3] = s_bp / ((1.0 - p_hat) * mu_b * t)
    a[2] = (s_an, s_bn, s_ap, s_bp)
    return a


def _objective(a, b, lam, q):
    qv = np.asarray(q, dtype=float)
    resid = lam * (a @ qv - b)
    reg = REG_WEIGHT * float(np.max(lam)) ** 2
    return float(resid @ resid + reg * np.sum((qv - 0.5) ** 2))


def _clamp(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def solve(a, b, lam):
    """(a*, b*) = (q_{A,-}, q_{B,-}) by the scalar candidate scan."""
    lam_max = float(np.max(lam))
    if lam_max == 0.0:
        return 0.5, 0.5
    eps = REG_WEIGHT * lam_max ** 2
    u = lam * (a[:, 0] - a[:, 2])
    v = lam * (a[:, 1] - a[:, 3])
    c = lam * (a[:, 2] + a[:, 3] - b)
    P = float(u @ u) + 2.0 * eps
    Q = float(v @ v) + 2.0 * eps
    R = float(u @ v)
    S = float(u @ c) - eps
    U = float(v @ c) - eps
    candidates = []
    det = P * Q - R * R
    if det != 0.0:
        a0 = (U * R - S * Q) / det
        b0 = (R * S - P * U) / det
        if 0.0 <= a0 <= 1.0 and 0.0 <= b0 <= 1.0:
            candidates.append((a0, b0))
    else:
        candidates.append((0.5, 0.5))
    candidates.append((0.0, _clamp(-U / Q)))
    candidates.append((1.0, _clamp(-(R + U) / Q)))
    candidates.append((_clamp(-S / P), 0.0))
    candidates.append((_clamp(-(R + S) / P), 1.0))
    return min(candidates,
               key=lambda ab: _objective(a, b, lam, (ab[0], ab[1], 1.0 - ab[0], 1.0 - ab[1])))


def rates(counts, alpha_prior):
    """(p_hat, mu_hat_A, mu_hat_B) from [group, label] counts in Python
    floats: the smoothed P(group A) and P(positive | group)."""
    (a_neg, a_pos), (b_neg, b_pos) = (tuple(float(c) for c in row) for row in counts)
    t_a, t_b = a_neg + a_pos, b_neg + b_pos
    return ((t_a + 2.0 * alpha_prior) / (t_a + t_b + 4.0 * alpha_prior),
            (a_pos + alpha_prior) / (t_a + 2.0 * alpha_prior),
            (b_pos + alpha_prior) / (t_b + 2.0 * alpha_prior))


def group_rates(confusion):
    """Per-group (FPR, FNR, error rate) rows, each (A, B), from (2, 4)
    per-group (tp, fp, tn, fn) counts, in Python ints and floats; a rate
    whose denominator is zero is None."""
    out = {"fpr": [], "fnr": [], "err": []}
    for tp, fp, tn, fn in (tuple(int(c) for c in row) for row in confusion):
        neg, pos = fp + tn, tp + fn
        out["fpr"].append(fp / neg if neg > 0 else None)
        out["fnr"].append(fn / pos if pos > 0 else None)
        out["err"].append((fp + fn) / (neg + pos) if neg + pos > 0 else None)
    return [out["fpr"], out["fnr"], out["err"]]


def gap(a, b):
    """|a - b|, or None when either rate is undefined."""
    return abs(a - b) if a is not None and b is not None else None


def _sample(w, rng):
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(w) - 1)


def record(traj, i, g, y, prediction, realized, expected, losses):
    """Fill round i (0-based) of the trajectory's round columns."""
    traj.cell[i] = 2 * g + y
    traj.outcome[i] = (1 - y) if prediction == 1 else 2 + y
    traj.realized[i] = realized
    traj.expected[i] = expected
    traj.losses[i] = losses


def fairness_aware_trial(config, stream, ensemble, trial=0) -> Trajectory:
    """The per-round fairness_aware loop: solve, table draw, expert draw."""
    T = config.horizon
    d = ensemble.d
    eta = config.eta if config.eta is not None else recommended_eta(T, d)
    _, expert_ss, engine_ss = trial_seed_sequence(config.seed, trial)
    expert_rng = np.random.default_rng(expert_ss)
    rng = np.random.default_rng(engine_ss)
    b, lam = np.asarray(config.b_tolerance, float), np.asarray(config.lam, float)
    traj = Trajectory("fairness_aware", eta, ensemble.names, T)
    weights = np.ones((2, 2, d))                    # [group, label, expert]
    alpha_sums = np.zeros((2, 2))                   # [group, label]
    counts = np.zeros((2, 2), dtype=np.int64)       # [group, label]
    q = (0.5, 0.5, 0.5, 0.5)                        # canonical cell order
    group, label = stream
    for t in range(1, T + 1):
        g, y = int(group[t - 1]), int(label[t - 1])
        preds = ensemble.round_predictions(t, g, y, expert_rng)
        if t >= 2 and (t - 1) % config.q_recompute_stride == 0:
            canonical = alpha_sums.T.ravel()   # (A,-), (B,-), (A,+), (B,+)
            a = assemble(canonical, *rates(counts, config.dirichlet_alpha), t - 1)
            a_star, b_star = solve(a, b, lam)
            q = (a_star, b_star, 1.0 - a_star, 1.0 - b_star)
        losses = (preds != y).astype(np.float64)
        w = weights[g, y]
        right = float(w @ losses) / float(w.sum())
        q_neg, q_pos = q[g], q[g + 2]
        table = NEG if rng.random() < q_neg else POS
        w_wrong = weights[g, 1 - y]
        wrong = float(w_wrong @ losses) / float(w_wrong.sum())
        q_right = q_pos if y == POS else q_neg
        expected = q_right * right + (1.0 - q_right) * wrong
        alpha_sums[g, 1 - y] += wrong - right
        counts[g, y] += 1
        chosen = _sample(weights[g, table], rng)
        domain._update_slice(w, eta, losses)
        record(traj, t - 1, g, y, int(preds[chosen]), float(losses[chosen]), expected, losses)
        traj.right[t - 1] = right
        traj.q_neg[t - 1] = q[:2]
    traj.alpha_sums = alpha_sums
    return traj.finish()


def cell_trial(config, stream, ensemble, trial=0) -> Trajectory:
    """The per-round mw/group_aware loop: read, draw from and update the
    engine's cell, (A,-) for mw and (g,-) for group_aware."""
    T = config.horizon
    d = ensemble.d
    eta = config.eta if config.eta is not None else recommended_eta(T, d)
    _, expert_ss, engine_ss = trial_seed_sequence(config.seed, trial)
    expert_rng = np.random.default_rng(expert_ss)
    rng = np.random.default_rng(engine_ss)
    by_group, by_label = CELL_MAP[config.engine]
    traj = Trajectory(config.engine, eta, ensemble.names, T)
    weights = np.ones((2, 2, d))                    # [group, label, expert]
    group, label = stream
    for t in range(1, T + 1):
        g, y = int(group[t - 1]), int(label[t - 1])
        preds = ensemble.round_predictions(t, g, y, expert_rng)
        cell = (g if by_group else Group.A, y if by_label else NEG)
        losses = (preds != y).astype(np.float64)
        w = weights[cell]
        right = float(w @ losses) / float(w.sum())
        chosen = _sample(w, rng)
        domain._update_slice(w, eta, losses)
        record(traj, t - 1, g, y, int(preds[chosen]), float(losses[chosen]), right, losses)
    return traj.finish()


def encode_features(path, names, codes, seen, n):
    """Numeric columns pass through, the rest one-hot by first occurrence:
    one array per column, joined by ``np.hstack``."""
    encoded = []
    encoding = []
    for name, code, first in zip(names, codes, seen):
        code, values = np.array(code, dtype=np.intp), list(first)
        try:
            numeric = np.array([float(v) for v in values])[code]
        except ValueError:
            onehot = np.zeros((n, len(values)))
            onehot[np.arange(n), code] = 1.0
            encoded.append(onehot)
            encoding.append((name, "one-hot", tuple(values)))
            continue
        bad = np.flatnonzero(~np.isfinite(numeric))
        if bad.size:
            raise DataError(f"{path}: feature column {name!r} holds "
                            f"{values[code[bad[0]]]!r}, which is not a finite number")
        encoded.append(numeric.reshape(n, 1))
        encoding.append((name, "numeric", ()))
    return (np.hstack(encoded) if encoded else np.zeros((n, 0))), encoding


def _train_logistic(x, y, epochs, seed):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = rng.normal(0.0, 0.01, size=xs.shape[1])
    bias = 0.0
    n = xs.shape[0]
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + bias)))
        w -= 0.1 * (xs.T @ (p - y) / n)
        bias -= 0.1 * float(np.mean(p - y))
    return LogisticExpert(w, bias, mean, scale)


def _predict(model, x):
    if not isinstance(model, LogisticExpert):
        return model.predict(x)
    z = (x - model.mean) / model.scale
    logits = np.matmul(z[:, None, :], model.weights[:, None])[:, 0, 0] + model.bias
    return (logits > 0.0).astype(np.int8)


def builtin_payload(x, group, label, train_idx, test_idx, kinds, include_group,
                    epochs, seed):
    """``(x_train, x_test, models, predictions)`` of the builtin experts:
    model i of ``kinds`` trains with seed ``seed + 7919 * i``."""
    if include_group:
        x = np.column_stack((x, group))
    x_train, y_train = x[train_idx], label[train_idx]
    models = [_train_logistic(x_train, y_train.astype(float), epochs, seed + 7919 * i)
              if kind == "logistic" else train_builtin(x_train, y_train, kind)
              for i, kind in enumerate(kinds)]
    x_test = x[test_idx]
    return x_train, x_test, models, np.column_stack([_predict(m, x_test) for m in models])


CENSUS_CATEGORIES = {
    "workclass": 7, "education": 16, "marital-status": 7, "occupation": 14,
    "relationship": 6, "sex": 2, "native-country": 20}


def write_census_csv(path, rows, seed):
    """A CSV with the census income export's columns for the bundled adult
    preset: six wide-range numeric columns, seven one-hot columns with a
    ``?`` in about 7% of the rows, and a ``source`` column of one category.
    Group A is race White; the label follows a noisy score of the numeric
    columns and the marital status."""
    rng = np.random.default_rng(seed)
    numeric = {
        "age": rng.integers(17, 91, rows), "fnlwgt": rng.integers(12285, 1490401, rows),
        "education-num": rng.integers(1, 17, rows),
        "capital-gain": np.where(rng.random(rows) < 0.08, rng.integers(1, 99999, rows), 0),
        "capital-loss": np.where(rng.random(rows) < 0.05, rng.integers(1, 4357, rows), 0),
        "hours-per-week": rng.integers(1, 100, rows)}
    codes = {name: rng.integers(0, k, rows) for name, k in CENSUS_CATEGORIES.items()}
    race = np.where(rng.random(rows) < 0.85, "White", "Black")
    score = (0.04 * numeric["age"] + 0.4 * numeric["education-num"]
             + 3e-5 * numeric["capital-gain"] + 1.5 * (codes["marital-status"] == 0) - 6.5)
    positive = score + rng.logistic(size=rows) > 0.0
    missing = np.where(rng.random(rows) < 0.07, rng.integers(0, 3, rows), -1)
    header = [*numeric, *CENSUS_CATEGORIES, "race", "source", "income"]
    lines = [", ".join(header)]
    for i in range(rows):
        cells = [str(v[i]) for v in numeric.values()]
        cells += [f"{name}-{c[i]}" for name, c in codes.items()]
        if missing[i] >= 0:
            cells[len(numeric) + (1, 3, 6)[missing[i]]] = "?"
        cells += [race[i], "CPS", ">50K" if positive[i] else "<=50K"]
        lines.append(", ".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
