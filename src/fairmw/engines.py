"""The three online selection algorithms as one cell-mapped state machine.

Every engine keeps its expert weights in one (group, label, expert) table
and runs the same multiplicative update on it.  The engines differ only in
which (group, label) cell a round selects from and updates:

* mw: cell (A,-) on every round, one flat pool of expert weights.
* group_aware: cell (g,-) on an arrival of group g, one pool per group.
* fairness_aware: cell (g,y) on an arrival (g, y).  A table label y' is
  first drawn from q for group g and the expert comes from cell (g,y');
  the expected loss mixes the group's two cells by q.  Cross-table loss
  gaps (alpha), arrival-rate estimates and the per-round q* recomputation
  belong to this engine alone.

Selection sampling is inverse-CDF over the unnormalized cell in declared
expert order, so identical weights and rng state replay identically.

Randomness layout: each trial derives
``SeedSequence(config.seed, spawn_key=(trial,))`` and spawns three
children — 0 for stream synthesis/shuffling (used by the harness),
1 for synthetic expert draws, 2 for engine sampling.  Per round the draw
order is: expert predictions (expert order), then the table draw
(fairness_aware only), then the expert draw.
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
from .estimators import AlphaTracker, RateEstimates
from .qopt import assemble_constraint_system, solve_q

__all__ = [
    "CELL_MAP",
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


def _sample(w: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over unnormalized weights, one rng draw."""
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(w) - 1)


def step(state: EngineState, predictions: np.ndarray, group: Group, label: int,
         rng: np.random.Generator, q: QDistribution | None = None):
    """One round: draw an expert, then update the engine's cell.

    Returns ``(table, expert, losses, expected, right)``: the table label
    drawn from q (-1 for engines without a table draw), the chosen expert,
    the per-expert 0/1 losses, the expected loss of the selection
    distribution actually used, and the expected loss under the updated
    cell's own pre-update weights.  fairness_aware needs q; its alpha gap
    and arrival count come from pre-update state.
    """
    by_group, by_label = CELL_MAP[state.engine]
    cell = (group if by_group else Group.A, label if by_label else NEG)
    weights = state.weights
    losses = (predictions != label).astype(np.float64)
    w = weights.slice(*cell)
    right = float(w @ losses) / float(w.sum())
    table, expected, w_draw = -1, right, w
    if by_label:
        q_neg, q_pos = q.for_group(group)
        table = NEG if rng.random() < q_neg else POS
        w_draw = weights.slice(group, table)
        w_wrong = weights.slice(group, 1 - label)
        wrong = float(w_wrong @ losses) / float(w_wrong.sum())
        q_right = q_pos if label == POS else q_neg
        expected = q_right * right + (1.0 - q_right) * wrong
        state.alphas.add(group, 1 - label, wrong - right)
        state.estimates.update(group, label)
    chosen = _sample(w_draw, rng)
    weights.update(state.eta, losses, *cell)
    return table, chosen, losses, expected, right


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

    ``record`` stores, per round, only what the outputs are derived from:
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
               realized: float, expected: float, losses: np.ndarray,
               right: float = 0.0, q: QDistribution | None = None) -> None:
        """Store round t (1-based).

        ``losses`` are the per-expert losses of the round, ``right`` the
        right-table expected loss and ``q`` the table-selection
        distribution (both fairness_aware only).
        """
        i = t - 1
        self.cell[i] = 2 * group + label
        self.outcome[i] = (1 - label) if prediction == 1 else 2 + label
        self.realized[i] = realized
        self.expected[i] = expected
        self.losses[i] = losses
        if self.right is not None:
            self.right[i] = right
        if self.q_neg is not None and q is not None:
            self.q_neg[i] = (q.q_a_neg, q.q_b_neg)

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
    the constraint denominators.
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
    est = state.estimates
    q = None if est is None else QDistribution.uniform()
    stride = config.q_recompute_stride
    for t in range(1, T + 1):
        ex = stream[t - 1]
        preds = ensemble.round_predictions(t, ex, expert_rng)
        if est is not None and t >= 2 and (t - 1) % stride == 0:
            system = assemble_constraint_system(
                state.alphas.sums_vector(), est.p_hat,
                est.mu_hat(Group.A), est.mu_hat(Group.B),
                t_elapsed=t - 1, b_tolerance=config.b_tolerance, lam=config.lam)
            q = solve_q(system)
        _, chosen, losses, expected, right = step(
            state, preds, ex.group, ex.label, engine_rng, q)
        traj.record(t, ex.group, ex.label, int(preds[chosen]), float(losses[chosen]),
                    expected, losses, right, q)

    traj.finish()
    if est is not None:
        traj.alpha_sums = state.alphas.sums.copy()
        traj.q_final = q
        traj.p_hat_final = est.p_hat
        traj.mu_hat_final = (est.mu_hat(Group.A), est.mu_hat(Group.B))
    return traj
