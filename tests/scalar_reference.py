"""Scalar, per-round reference implementations for the bitwise tests.

These are the q solve and the fairness_aware trial as they ran before the
solve was batched: one system assembled and solved in Python floats before
each stride round, then the table draw from q, then the expert draw, each
with its own engine-rng call.  The batched solver and the two-stage trial
must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

from fairmw.domain import NEG, POS, Group, QDistribution, recommended_eta, trial_seed_sequence
from fairmw.engines import EngineState, Trajectory
from fairmw.qopt import REG_WEIGHT


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


def objective(a, b, lam, q):
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
               key=lambda ab: objective(a, b, lam, (ab[0], ab[1], 1.0 - ab[0], 1.0 - ab[1])))


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
    state = EngineState.fresh("fairness_aware", d, eta, config.dirichlet_alpha)
    weights, est = state.weights, state.estimates
    q = QDistribution.uniform()
    for t in range(1, T + 1):
        ex = stream[t - 1]
        g, y = ex.group, ex.label
        preds = ensemble.round_predictions(t, ex, expert_rng)
        if t >= 2 and (t - 1) % config.q_recompute_stride == 0:
            a = assemble(state.alphas.sums_vector(), est.p_hat, est.mu_hat(Group.A),
                         est.mu_hat(Group.B), t - 1)
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
        state.alphas.add(g, 1 - y, wrong - right)
        est.update(g, y)
        chosen = _sample(weights.slice(g, table), rng)
        weights.update(eta, losses, g, y)
        traj.record(t, g, y, int(preds[chosen]), float(losses[chosen]), expected, losses)
        traj.right[t - 1] = right
        traj.q_neg[t - 1] = (q.q_a_neg, q.q_b_neg)
    traj.finish()
    traj.alpha_sums = state.alphas.sums.copy()
    traj.q_final = q
    traj.p_hat_final = est.p_hat
    traj.mu_hat_final = (est.mu_hat(Group.A), est.mu_hat(Group.B))
    return traj
