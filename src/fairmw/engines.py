"""The three online selection algorithms as one cell-mapped state machine.

Every engine keeps its expert weights in one (group, label, expert) table
and runs the same multiplicative update on it.  The engines differ only in
which (group, label) cell a round selects from and updates:

* mw: cell (A,-) on every round, one flat pool of expert weights.
* group_aware: cell (g,-) on an arrival of group g, one pool per group.
* fairness_aware: cell (g,y) on an arrival (g, y).  A table label y' is
  first drawn from q for group g and the expert comes from cell (g,y');
  the expected loss mixes the group's two cells by q.  Cross-table loss
  gaps (alpha), arrival-rate estimates and the q* solves belong to this
  engine alone.

Selection sampling is inverse-CDF over the unnormalized cell in declared
expert order, so identical weights and rng state replay identically.

Randomness layout: each trial derives
``SeedSequence(config.seed, spawn_key=(trial,))`` and spawns three
children — 0 for stream synthesis/shuffling (used by the harness),
1 for synthetic expert draws (expert order, every round), 2 for engine
sampling.  The engine rng gives each round its uniforms in this order: the
table draw (fairness_aware only), then the expert draw.  fairness_aware
takes all of them up front as one (T, 2) array, the same doubles in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (
    NEG,
    POS,
    Group,
    QDistribution,
    RunConfig,
    WeightTable,
    recommended_eta,
    trial_seed_sequence,
)
from .errors import EmptyStream, StreamExhausted
from .estimators import AlphaTracker, RateEstimates, smoothed_rates
from .qopt import assemble_systems, solve_q_batch

__all__ = [
    "CELL_MAP",
    "Q_BLOCK",
    "EngineState",
    "Trajectory",
    "step",
    "run_trial",
    "trial_seed_sequence",
]

# engine -> (keyed on group, keyed on label): which coordinates of the
# arrival address the cell a round selects from and updates.  A coordinate
# the engine ignores stays at slot 0, so mw always uses (A,-).
CELL_MAP = {
    "mw": (False, False),
    "group_aware": (True, False),
    "fairness_aware": (True, True),
}

Q_BLOCK = 1024  # fairness_aware stride points whose q systems are solved per batch


@dataclass
class EngineState:
    """Weight table, alpha sums and (fairness_aware only) rate estimates."""

    engine: str
    eta: float
    weights: WeightTable
    alphas: AlphaTracker = field(default_factory=AlphaTracker)
    estimates: RateEstimates | None = None

    @classmethod
    def fresh(cls, engine: str, d: int, eta: float,
              dirichlet_alpha: float = 1.0) -> "EngineState":
        estimates = RateEstimates(dirichlet_alpha) if CELL_MAP[engine][1] else None
        return cls(engine, eta, WeightTable(d), estimates=estimates)


def _sample(w: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over unnormalized weights with uniform u in [0, 1)."""
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    return min(idx, len(w) - 1)


def step(state: EngineState, predictions: np.ndarray, group: Group, label: int,
         u: float):
    """One round: draw experts with the uniform u, then update the engine's cell.

    Returns ``(experts, losses, right, wrong)``: the inverse-CDF draw with u
    from each table the round can select from (the updated cell alone for
    mw and group_aware; tables (g,-) and (g,+) for fairness_aware, whose
    table draw from q ``run_trial`` settles afterwards), the per-expert 0/1
    losses, and the expected losses under the pre-update weights of the
    updated cell (``right``) and, fairness_aware only, of the group's
    other-label cell (``wrong``, else None).  fairness_aware also adds the
    alpha gap wrong - right and counts the arrival.
    """
    by_group, by_label = CELL_MAP[state.engine]
    cell = (group if by_group else Group.A, label if by_label else NEG)
    weights = state.weights
    losses = (predictions != label).astype(np.float64)
    w = weights.slice(*cell)
    right = float(w @ losses) / float(w.sum())
    wrong = None
    if by_label:
        w_wrong = weights.slice(group, 1 - label)
        wrong = float(w_wrong @ losses) / float(w_wrong.sum())
        state.alphas.add(group, 1 - label, wrong - right)
        state.estimates.update(group, label)
        experts = (_sample(weights.slice(group, NEG), u), _sample(weights.slice(group, POS), u))
    else:
        experts = (_sample(w, u),)
    weights.update(state.eta, losses, *cell)
    return experts, losses, right, wrong


def _last(running: np.ndarray) -> float:
    """Final value of a running sum; 0.0 for an empty trial."""
    return float(running[-1]) if len(running) else 0.0


def _gap(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """|rate_A - rate_B| per round from (T, 2) running counts; NaN until
    both denominators are positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = numerators / denominators
    return np.where((denominators > 0).all(axis=1),
                    np.abs(rates[:, 0] - rates[:, 1]), np.nan)


def _gap_series(code: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FPR, FNR and error-rate gap series from per-round confusion codes
    4 * group + (tp, fp, tn, fn)."""
    T = len(code)
    running = np.zeros((T, 8), dtype=np.int32)
    running[np.arange(T), code] = 1
    np.cumsum(running, axis=0, out=running)
    tp, fp, tn, fn = running.reshape(T, 2, 4).transpose(2, 0, 1)  # each (T, 2)
    neg, pos = fp + tn, tp + fn
    return _gap(fp, neg), _gap(fn, pos), _gap(fp + fn, neg + pos)


class Trajectory:
    """Columnar record of one trial.

    The columns hold, per round, only what the outputs are derived from:
    the [group, label] cell, the confusion column of the chosen expert's
    prediction, the realized and expected losses, the per-expert losses
    and, for fairness_aware, the right-table expected loss and the two
    q_{z,-} that rounds.csv writes.  ``finish`` then derives every
    aggregate and series in one pass.  Cumulative losses marked "expected"
    integrate the per-round expectation of the selection distribution
    actually used; "realized" integrates the sampled expert's loss.  Gap
    series hold NaN on rounds where a defining rate has no observations yet.
    """

    def __init__(self, engine: str, eta: float, expert_names: list[str], T: int):
        self.engine = engine
        self.eta = eta
        self.expert_names = list(expert_names)
        self.d = len(expert_names)
        self.T = T
        self.cell = np.zeros(T, dtype=np.int8)      # 2 * group + label
        self.outcome = np.zeros(T, dtype=np.int8)   # confusion column: tp, fp, tn, fn
        self.realized = np.zeros(T)
        self.expected = np.zeros(T)
        self.losses = np.zeros((T, self.d))
        fair = engine == "fairness_aware"
        self.right = np.zeros(T) if fair else None
        self.q_neg = np.full((T, 2), np.nan) if fair else None  # q_{A,-}, q_{B,-}
        # fairness_aware finals, filled by run_trial.
        self.alpha_sums = self.q_final = self.p_hat_final = self.mu_hat_final = None

    def __len__(self) -> int:
        return self.T

    def record(self, t: int, group: Group, label: int, prediction: int,
               realized: float, expected: float, losses: np.ndarray) -> None:
        """Store round t (1-based) of mw or group_aware; ``losses`` are the
        per-expert losses of the round.  fairness_aware trials fill the
        columns in array passes instead (see ``run_trial``)."""
        i = t - 1
        self.cell[i] = 2 * group + label
        self.outcome[i] = (1 - label) if prediction == 1 else 2 + label
        self.realized[i] = realized
        self.expected[i] = expected
        self.losses[i] = losses

    def finish(self) -> "Trajectory":
        """Derive the aggregates and the regret and gap series; returns self.

        Running sums are ``np.cumsum`` and per-cell sums ``np.bincount``;
        both add in round order, so every value is bit-identical to
        accumulating it round by round.
        """
        cell = self.cell
        group = cell >> 1
        self.counts = np.bincount(cell, minlength=4).reshape(2, 2)
        code = 4 * group + self.outcome   # per group: tp, fp, tn, fn
        self.confusion = np.bincount(code, minlength=8).reshape(2, 4)
        self.fpr_gap, self.fnr_gap, self.eer_gap = _gap_series(code)

        run_realized = np.cumsum(self.realized)
        run_expected = np.cumsum(self.expected)
        self.L_realized = _last(run_realized)
        self.L_expected = _last(run_expected)
        self.L_z = np.bincount(group, weights=self.expected, minlength=2)
        self.right_table_cum = None if self.right is None else (
            np.bincount(cell, weights=self.right, minlength=4).reshape(2, 2))

        d = self.d
        self.L_f = np.zeros(d)
        self.L_fz = np.zeros((2, d))
        self.L_fzy = np.zeros((2, 2, d))
        best = np.full(self.T, np.inf)   # running min over experts of L_f
        for f in range(d):
            col = self.losses[:, f]
            run = np.cumsum(col)
            np.minimum(best, run, out=best)
            self.L_f[f] = _last(run)
            self.L_fz[:, f] = np.bincount(group, weights=col, minlength=2)
            self.L_fzy[:, :, f] = np.bincount(cell, weights=col, minlength=4).reshape(2, 2)
        self.regret_realized = np.subtract(run_realized, best, out=run_realized)
        self.regret_expected = np.subtract(run_expected, best, out=run_expected)
        return self

    def error_rate(self) -> float:
        return float(self.realized.sum() / self.T) if self.T else 0.0


def run_trial(config: RunConfig, stream, ensemble, trial: int = 0) -> Trajectory:
    """Run one trial of config.engine over the stream.

    The stream is consumed in order for config.horizon rounds; shorter
    streams raise StreamExhausted (empty ones EmptyStream unless
    config.allow_empty).  For fairness_aware, q starts uniform and is
    re-solved from running alpha sums and rate estimates whenever
    (t-1) % q_recompute_stride == 0 (t >= 2), with elapsed rounds t-1 in
    the constraint denominators; see ``_fairness_aware_rounds``.
    """
    n = len(stream)
    if n == 0:
        if config.allow_empty:
            return Trajectory(config.engine, config.eta or 0.0, ensemble.names, 0).finish()
        raise EmptyStream("trial started on an empty stream")
    T = config.horizon
    if T > n:
        raise StreamExhausted(f"stream has {n} examples, horizon {T}")
    if ensemble.num_rounds is not None and ensemble.num_rounds < T:
        raise StreamExhausted(
            f"ensemble covers {ensemble.num_rounds} rounds, horizon {T}")

    d = ensemble.d
    eta = config.eta if config.eta is not None else recommended_eta(T, d)
    _, expert_ss, engine_ss = trial_seed_sequence(config.seed, trial)
    expert_rng = np.random.default_rng(expert_ss)
    engine_rng = np.random.default_rng(engine_ss)

    traj = Trajectory(config.engine, eta, ensemble.names, T)
    state = EngineState.fresh(config.engine, d, eta, config.dirichlet_alpha)
    if state.estimates is not None:
        return _fairness_aware_rounds(config, stream, ensemble, expert_rng,
                                      engine_rng, state, traj)
    for t in range(1, T + 1):
        ex = stream[t - 1]
        preds = ensemble.round_predictions(t, ex, expert_rng)
        (chosen,), losses, right, _ = step(state, preds, ex.group, ex.label,
                                           engine_rng.random())
        traj.record(t, ex.group, ex.label, int(preds[chosen]), float(losses[chosen]),
                    right, losses)
    return traj.finish()


def _fairness_aware_rounds(config: RunConfig, stream, ensemble, expert_rng, engine_rng,
                           state: EngineState, traj: Trajectory) -> Trajectory:
    """A fairness_aware trial in two stages.

    Nothing q touches (the table draw, hence the chosen expert) feeds back
    into the weights, alpha sums or rate estimates, and the engine's
    uniforms are drawn up front, one (table, expert) pair per round in the
    order the per-round draws took.  So the round loop does only the
    q-independent work: losses, ``right`` and ``wrong``, the updates, and
    the expert each of the group's two tables would give.  At every stride
    point it copies the alpha sums and counts, and each block of up to
    Q_BLOCK stride points is assembled and solved in one batch.  Array
    passes then forward-fill q, draw each round's table and settle the
    chosen expert, its outcome and the expected loss.
    """
    T, stride = traj.T, config.q_recompute_stride
    est, alphas = state.estimates, state.alphas
    uniforms = engine_rng.random((T, 2))    # per round: table draw, expert draw
    u_expert = uniforms[:, 1].tolist()
    candidates = np.zeros((T, 2), dtype=np.intp)    # expert from table (g,-), (g,+)
    wrong = np.zeros(T)
    block = min(Q_BLOCK, (T - 1) // stride)
    sums_at = np.zeros((block, 4))   # canonical cell order
    counts_at = np.zeros((block, 2, 2), dtype=np.int64)
    rounds: list[int] = []

    def solve_block() -> None:
        k = len(rounds)
        p_hat, mu = smoothed_rates(counts_at[:k], est.alpha)
        a = assemble_systems(sums_at[:k], p_hat, mu[:, Group.A], mu[:, Group.B],
                             np.array(rounds) - 1.0)
        q = solve_q_batch(a, config.b_tolerance, config.lam)
        traj.q_neg[np.array(rounds) - 1] = q[:, :2]
        rounds.clear()

    for t in range(1, T + 1):
        if t >= 2 and (t - 1) % stride == 0:
            sums_at[len(rounds)] = alphas.sums_vector()
            counts_at[len(rounds)] = est.counts
            rounds.append(t)
            if len(rounds) == block:
                solve_block()
        ex = stream[t - 1]
        preds = ensemble.round_predictions(t, ex, expert_rng)
        i = t - 1
        candidates[i], traj.losses[i], traj.right[i], wrong[i] = step(
            state, preds, ex.group, ex.label, u_expert[i])
        traj.cell[i] = 2 * ex.group + ex.label
    if rounds:
        solve_block()

    # q holds from its stride point until the next; uniform before the first.
    rows = np.arange(T)
    traj.q_neg[0] = 0.5
    traj.q_neg[:] = traj.q_neg[rows // stride * stride]
    group, label = traj.cell >> 1, traj.cell & 1
    q_g = traj.q_neg[rows, group]    # q_{g,-}
    chosen = np.where(uniforms[:, 0] < q_g, candidates[:, NEG], candidates[:, POS])
    traj.realized[:] = traj.losses[rows, chosen]
    prediction = np.where(traj.realized > 0.0, 1 - label, label)
    traj.outcome[:] = np.where(prediction == 1, 1 - label, 2 + label)
    q_right = np.where(label == POS, 1.0 - q_g, q_g)
    traj.expected[:] = q_right * traj.right + (1.0 - q_right) * wrong

    traj.finish()
    q_a, q_b = traj.q_neg[-1].tolist()
    traj.q_final = QDistribution(q_a, q_b, 1.0 - q_a, 1.0 - q_b)
    traj.alpha_sums = alphas.sums.copy()
    traj.p_hat_final = est.p_hat
    traj.mu_hat_final = (est.mu_hat(Group.A), est.mu_hat(Group.B))
    return traj
