"""Scalar, per-round and one-system reference implementations for the tests.

These are the q solve and the trials as they ran before the solve was
batched and the trials became array passes.  ``fairness_aware_trial``
accumulates the alpha sums and the arrival counts round by round in their
own arrays, assembles and solves one system in Python floats before each
stride round, then draws the table from q and then the expert, each with
its own engine-rng call.  ``cell_trial`` is the mw/group_aware loop: one
engine-rng draw from the round's cell, then one WeightTable update of it.
The batched solver and the array passes must reproduce them bit for bit.

``ConstraintSystem``, ``assemble_constraint_system``, ``solve_q`` and
``objective`` are one-system views of ``fairmw.qopt``'s batched assembly
and solve, which the solver tests are written against; ``dirichlet_rate``
is the per-cell posterior predictive rate of the (group, label) counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairmw.domain import (
    NEG,
    POS,
    Group,
    QDistribution,
    WeightTable,
    recommended_eta,
    trial_seed_sequence,
)
from fairmw.engines import CELL_MAP, Trajectory
from fairmw.errors import NonFiniteInput
from fairmw.qopt import REG_WEIGHT, assemble_systems, solve_q_batch


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
                raise NonFiniteInput(f"non-finite entries in {name}")


def assemble_constraint_system(alpha_sums, p_hat, mu_a, mu_b, t_elapsed,
                               b_tolerance=(0.0, 0.0, 0.0), lam=(1.0, 1.0, 1.0)):
    """One system: ``assemble_systems`` with n = 1."""
    a = assemble_systems(np.asarray(alpha_sums, dtype=float)[None], [p_hat], [mu_a],
                         [mu_b], [t_elapsed])
    return ConstraintSystem(a[0], np.asarray(b_tolerance, dtype=float),
                            np.asarray(lam, dtype=float))


def solve_q(system):
    """``solve_q_batch`` with n = 1, as a QDistribution."""
    return QDistribution(*solve_q_batch(system.a[None], system.b, system.lam)[0].tolist())


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


def _sample(w, rng):
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(w) - 1)


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
    weights = WeightTable(d)
    alpha_sums = np.zeros((2, 2))                   # [group, label]
    counts = np.zeros((2, 2), dtype=np.int64)       # [group, label]
    q = QDistribution.uniform()
    for t in range(1, T + 1):
        ex = stream[t - 1]
        g, y = ex.group, ex.label
        preds = ensemble.round_predictions(t, ex, expert_rng)
        if t >= 2 and (t - 1) % config.q_recompute_stride == 0:
            canonical = alpha_sums.T.ravel()   # (A,-), (B,-), (A,+), (B,+)
            a = assemble(canonical, *rates(counts, config.dirichlet_alpha), t - 1)
            a_star, b_star = solve(a, b, lam)
            q = QDistribution(a_star, b_star, 1.0 - a_star, 1.0 - b_star)
        losses = (preds != y).astype(np.float64)
        w = weights.slice(g, y)
        right = float(w @ losses) / float(w.sum())
        q_neg, q_pos = q.for_group(g)
        table = NEG if rng.random() < q_neg else POS
        w_wrong = weights.slice(g, 1 - y)
        wrong = float(w_wrong @ losses) / float(w_wrong.sum())
        q_right = q_pos if y == POS else q_neg
        expected = q_right * right + (1.0 - q_right) * wrong
        alpha_sums[g, 1 - y] += wrong - right
        counts[g, y] += 1
        chosen = _sample(weights.slice(g, table), rng)
        weights.update(eta, losses, g, y)
        traj.record(t, g, y, int(preds[chosen]), float(losses[chosen]), expected, losses)
        traj.right[t - 1] = right
        traj.q_neg[t - 1] = (q.q_a_neg, q.q_b_neg)
    traj.finish()
    traj.alpha_sums = alpha_sums
    traj.q_final = q
    traj.p_hat_final, *mu_hat = rates(counts, config.dirichlet_alpha)
    traj.mu_hat_final = tuple(mu_hat)
    return traj


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
    weights = WeightTable(d)
    for t in range(1, T + 1):
        ex = stream[t - 1]
        g, y = ex.group, ex.label
        preds = ensemble.round_predictions(t, ex, expert_rng)
        cell = (g if by_group else Group.A, y if by_label else NEG)
        losses = (preds != y).astype(np.float64)
        w = weights.slice(*cell)
        right = float(w @ losses) / float(w.sum())
        chosen = _sample(w, rng)
        weights.update(eta, losses, *cell)
        traj.record(t, g, y, int(preds[chosen]), float(losses[chosen]), right, losses)
    return traj.finish()
