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


class Trajectory:
    """Complete record of one trial, stored columnwise.

    Cumulative losses marked "expected" integrate the per-round
    expectation of the selection distribution actually used; "realized"
    integrates the sampled expert's loss.  Gap series hold NaN on rounds
    where a defining rate has no observations yet.
    """

    def __init__(self, engine: str, eta: float, expert_names: list[str], T: int):
        self.engine = engine
        self.eta = eta
        self.expert_names = list(expert_names)
        d = len(expert_names)
        self.d = d
        self.T = T
        self.group = np.zeros(T, dtype=np.int8)
        self.label = np.zeros(T, dtype=np.int8)
        self.table = np.full(T, -1, dtype=np.int8)
        self.expert = np.zeros(T, dtype=np.int32)
        self.prediction = np.zeros(T, dtype=np.int8)
        self.realized = np.zeros(T)
        self.expected = np.zeros(T)
        self.q_used = np.full((T, 4), np.nan) if engine == "fairness_aware" else None
        self.right_step = np.zeros(T) if engine == "fairness_aware" else None
        # Series (running, per round).
        self.regret_realized = np.zeros(T)
        self.regret_expected = np.zeros(T)
        self.fpr_gap = np.full(T, np.nan)
        self.fnr_gap = np.full(T, np.nan)
        self.eer_gap = np.full(T, np.nan)
        # Aggregates.
        self.L_realized = 0.0
        self.L_expected = 0.0
        self.L_z = np.zeros(2)
        self.L_zy = np.zeros((2, 2))
        self.L_f = np.zeros(d)
        self.L_fz = np.zeros((2, d))
        self.L_fzy = np.zeros((2, 2, d))
        self.right_table_cum = np.zeros((2, 2))
        self.confusion = np.zeros((2, 4), dtype=np.int64)  # per group: tp, fp, tn, fn
        self.counts = np.zeros((2, 2), dtype=np.int64)
        # fairness_aware finals, filled by run_trial.
        self.alpha_sums = None
        self.q_final = None
        self.p_hat_final = None
        self.mu_hat_final = None

    def __len__(self) -> int:
        return self.T

    def record(self, t: int, group: Group, label: int, expert: int, prediction: int,
               realized: float, expected: float, losses: np.ndarray, table: int = -1,
               right: float = 0.0, q: QDistribution | None = None) -> None:
        """Append round t (1-based); updates every aggregate and series.

        ``losses`` are the per-expert losses of the round, ``right`` the
        right-table expected loss and ``q`` the table-selection
        distribution (both fairness_aware only).
        """
        i = t - 1
        g, y = group, label
        self.group[i] = g
        self.label[i] = y
        self.table[i] = table
        self.expert[i] = expert
        self.prediction[i] = prediction
        self.realized[i] = realized
        self.expected[i] = expected
        if self.q_used is not None and q is not None:
            self.q_used[i] = q.as_vector()
        if self.right_step is not None:
            self.right_step[i] = right
            self.right_table_cum[g, y] += right

        self.L_realized += realized
        self.L_expected += expected
        self.L_z[g] += expected
        self.L_zy[g, y] += expected
        self.L_f += losses
        self.L_fz[g] += losses
        self.L_fzy[g, y] += losses
        self.counts[g, y] += 1

        if prediction == 1:
            col = 0 if y == 1 else 1  # tp / fp
        else:
            col = 3 if y == 1 else 2  # fn / tn
        self.confusion[g, col] += 1

        best = float(self.L_f.min())
        self.regret_realized[i] = self.L_realized - best
        self.regret_expected[i] = self.L_expected - best

        tp = self.confusion[:, 0]
        fp = self.confusion[:, 1]
        tn = self.confusion[:, 2]
        fn = self.confusion[:, 3]
        neg = fp + tn
        pos = tp + fn
        if neg[0] > 0 and neg[1] > 0:
            self.fpr_gap[i] = abs(fp[0] / neg[0] - fp[1] / neg[1])
        if pos[0] > 0 and pos[1] > 0:
            self.fnr_gap[i] = abs(fn[0] / pos[0] - fn[1] / pos[1])
        tot = neg + pos
        if tot[0] > 0 and tot[1] > 0:
            err = (fp + fn) / np.maximum(tot, 1)
            self.eer_gap[i] = abs(err[0] - err[1])

    def error_rate(self) -> float:
        return float(self.realized.sum() / self.T) if self.T else 0.0

    def group_error_rates(self) -> tuple[float | None, float | None]:
        out = []
        for g in (0, 1):
            n = int(self.counts[g].sum())
            wrong = int(self.confusion[g, 1] + self.confusion[g, 3])
            out.append(wrong / n if n else None)
        return tuple(out)

    def to_dict(self) -> dict:
        """Deterministic plain-python dump (tests serialize this)."""
        return {
            "engine": self.engine,
            "eta": self.eta,
            "experts": self.expert_names,
            "T": self.T,
            "group": self.group.tolist(),
            "label": self.label.tolist(),
            "table": self.table.tolist(),
            "expert": self.expert.tolist(),
            "prediction": self.prediction.tolist(),
            "realized": self.realized.tolist(),
            "expected": self.expected.tolist(),
            "regret_realized": self.regret_realized.tolist(),
            "regret_expected": self.regret_expected.tolist(),
            "L_realized": self.L_realized,
            "L_expected": self.L_expected,
            "L_f": self.L_f.tolist(),
            "counts": self.counts.tolist(),
            "confusion": self.confusion.tolist(),
        }


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
            return Trajectory(config.engine, config.eta or 0.0, ensemble.names, 0)
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
        table, chosen, losses, expected, right = step(
            state, preds, ex.group, ex.label, engine_rng, q)
        traj.record(t, ex.group, ex.label, chosen, int(preds[chosen]),
                    float(losses[chosen]), expected, losses, table, right, q)

    if est is not None:
        traj.alpha_sums = state.alphas.sums.copy()
        traj.q_final = q
        traj.p_hat_final = est.p_hat
        traj.mu_hat_final = (est.mu_hat(Group.A), est.mu_hat(Group.B))
    return traj
