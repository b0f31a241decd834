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
table draw (fairness_aware only), then the expert draw.

group_aware and fairness_aware run whole-trial array passes
(``_cell_trial``): the (T, d) expert and the (T, cells read) engine
uniforms are drawn as blocks (the same doubles, same order), weights come
from per-cell cumprod states, and q is solved in batches.  The passes serve
mw bit for bit too, but mw stays on the per-round loop (``step``) until
the benchmark reads fairmw's own peak memory.  An mw_long operation reads
fairmw's own peak (about 88 MB) only as the first operation of a run;
every later one reads the benchmark process's high-water mark (188-206
MB), so the median follows how many operations fit into the run.

Operations that define a trial's bits: batched ``np.matmul`` row dots (one
BLAS call per row, whose FMA rounding elementwise ops cannot reproduce),
``w.sum(axis=1)`` (numpy sums a row of 8 or more pairwise), ``np.cumsum``
along rounds and ``np.bincount``.  Integer counts, comparisons, maxima and
sums of fewer than 8 entries written left to right (as numpy adds such a
row) may be restructured freely; the passes reduce short rows column by
column, as a numpy reduction along a row of 2-16 costs 10-50 column passes.

A fairness_aware trial keeps one final beyond its columns, the alpha sums:
its final q is the last ``q_neg`` row, and ``fairmw.metrics`` smooths its
``counts`` into the final rate estimates.
"""

from __future__ import annotations

import numpy as np

from .domain import (
    NEG,
    POS,
    Group,
    RunConfig,
    WeightTable,
    recommended_eta,
    trial_seed_sequence,
    weight_states,
)
from .errors import EmptyTrajectory, StreamExhausted
from .estimators import smoothed_rates
from .qopt import assemble_systems, solve_q_batch

__all__ = [
    "CELL_MAP",
    "Q_BLOCK",
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


def _sample(w: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over unnormalized weights with uniform u in [0, 1)."""
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    return min(idx, len(w) - 1)


def step(weights: WeightTable, engine: str, eta: float, predictions: np.ndarray,
         group: Group, label: int, u: float):
    """One mw round as ``run_trial`` plays it (tests also drive other cells):
    returns ``(expert, losses, right)``, the inverse-CDF draw with uniform u
    from the cell, its 0/1 losses and pre-update expected loss; then updates it."""
    by_group, by_label = CELL_MAP[engine]
    cell = (group if by_group else Group.A, label if by_label else NEG)
    losses = (predictions != label).astype(np.float64)
    w = weights.slice(*cell)
    right = float(w @ losses) / float(w.sum())
    expert = _sample(w, u)
    weights.update(eta, losses, *cell)
    return expert, losses, right


def _rate_series(code: np.ndarray):
    """Yield the FPR, FNR and error-rate series by group, each (T, 2) [round,
    group], from per-round confusion codes 4 * group + (tp, fp, tn, fn).
    Each is divided out after the previous one is dropped, so a caller that
    drops each too holds one at a time.

    A rate is NaN until its group has a round in the denominator: each
    numerator counts a subset of its denominator's rounds, so 0/0 is NaN.
    The counts stay below 2**53, so each division rounds exactly as
    Python's int / int does."""
    T = len(code)
    running = np.zeros((T, 8), dtype=np.int32)
    running[np.arange(T), code] = 1
    np.cumsum(running, axis=0, out=running)
    tp, fp, tn, fn = running.reshape(T, 2, 4).transpose(2, 0, 1)  # each (T, 2)
    neg, pos = fp + tn, tp + fn
    for numerators, denominators in ((fp, neg), (fn, pos), (fp + fn, neg + pos)):
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = numerators / denominators
        yield rates
        del rates


class Trajectory:
    """Columnar record of one trial.

    The columns hold, per round, only what the outputs are derived from:
    the [group, label] cell, the confusion column of the chosen expert's
    prediction, the realized and expected losses, the per-expert losses
    and, for fairness_aware, the right-table expected loss and the two
    q_{z,-} that rounds.csv writes, plus its final ``alpha_sums``.  ``finish``
    then derives the final rates and every series in one pass.  Regret
    marked "expected" integrates the per-round expectation of the selection
    distribution actually used; "realized" integrates the sampled expert's
    loss.  Gap series hold NaN on rounds where a defining rate has no
    observations yet.
    """

    def __init__(self, engine: str, eta: float, expert_names: list[str], T: int):
        if T < 1:
            raise EmptyTrajectory(f"a trajectory needs at least one round, got T = {T}")
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
        self.alpha_sums = None   # fairness_aware's final (2, 2) sums, set by _cell_trial

    def __len__(self) -> int:
        return self.T

    def record(self, t: int, group: Group, label: int, prediction: int,
               realized: float, expected: float, losses: np.ndarray) -> None:
        """Store round t (1-based) of an mw trial; ``losses`` are the
        per-expert losses of the round.  group_aware and fairness_aware
        trials fill the columns in array passes instead (``_cell_trial``)."""
        i = t - 1
        self.cell[i] = 2 * group + label
        self.outcome[i] = (1 - label) if prediction == 1 else 2 + label
        self.realized[i] = realized
        self.expected[i] = expected
        self.losses[i] = losses

    def finish(self) -> "Trajectory":
        """Derive the per-cell counts, the final rates and the regret and gap
        series; returns self.

        ``rates`` is (3, 2): the final FPR, FNR and error rate [rate, group],
        NaN where undefined; each gap series is |rate_A - rate_B| per round.
        Running sums are ``np.cumsum``, which adds in round order, so every
        value is bit-identical to accumulating it round by round.
        """
        cell = self.cell
        self.counts = np.bincount(cell, minlength=4).reshape(2, 2)
        self.rates = np.empty((3, 2))
        gaps = []
        for rates in _rate_series(4 * (cell >> 1) + self.outcome):
            self.rates[len(gaps)] = rates[-1]
            gaps.append(np.abs(rates[:, 0] - rates[:, 1]))
            del rates    # one (T, 2) series alive at a time
        self.fpr_gap, self.fnr_gap, self.eer_gap = gaps

        best = np.full(self.T, np.inf)   # running min over experts of their cumulative loss
        for f in range(self.d):
            np.minimum(best, np.cumsum(self.losses[:, f]), out=best)
        self.regret_realized = np.cumsum(self.realized)
        self.regret_realized -= best
        self.regret_expected = np.cumsum(self.expected)
        self.regret_expected -= best
        return self

    def error_rate(self) -> float:
        return float(self.realized.sum() / self.T)


def run_trial(config: RunConfig, stream, ensemble, trial: int = 0) -> Trajectory:
    """Run one trial of config.engine over the stream.

    The stream is the arrivals' int8 ``(group, label)`` columns
    (``ingest.synth_stream`` returns them).  Its first config.horizon
    rounds are played in order; shorter streams, an empty one included,
    raise StreamExhausted.  For
    fairness_aware, q starts uniform and is re-solved from running alpha
    sums and rate estimates whenever (t-1) % q_recompute_stride == 0
    (t >= 2), with elapsed rounds t-1 in the constraint denominators; see
    ``_cell_trial``.
    """
    n = len(stream[0])
    T = config.horizon
    if T > n:
        raise StreamExhausted(f"stream has {n} examples, horizon {T}")
    if ensemble.num_rounds is not None and ensemble.num_rounds < T:
        raise StreamExhausted(
            f"ensemble covers {ensemble.num_rounds} rounds, horizon {T}")

    eta = config.eta if config.eta is not None else recommended_eta(T, ensemble.d)
    _, expert_ss, engine_ss = trial_seed_sequence(config.seed, trial)
    expert_rng = np.random.default_rng(expert_ss)
    engine_rng = np.random.default_rng(engine_ss)

    traj = Trajectory(config.engine, eta, ensemble.names, T)
    group, label = stream[0][:T], stream[1][:T]
    if config.engine != "mw":    # mw stays per-round; see the module docstring
        return _cell_trial(config, group, label, ensemble, expert_rng, engine_rng, traj)
    weights = WeightTable(ensemble.d)
    for t, (g, y) in enumerate(zip(group.tolist(), label.tolist()), start=1):
        preds = ensemble.round_predictions(t, g, y, expert_rng)
        chosen, losses, right = step(weights, config.engine, eta, preds, g, y,
                                     engine_rng.random())
        traj.record(t, g, y, int(preds[chosen]), float(losses[chosen]), right, losses)
    return traj.finish()


def _cell_trial(config: RunConfig, group: np.ndarray, label: np.ndarray, ensemble,
                expert_rng, engine_rng, traj: Trajectory) -> Trajectory:
    """A trial of any engine as whole-trial array passes over its cells.

    Nothing a round draws feeds back into the weights.  So the losses come
    first, then ``_table_rounds`` gives every round the expected loss and
    the draw of each cell it reads: the update cell, or for fairness_aware
    the group's tables (g,-) and (g,+).  The engine uniforms are one
    (T, cells read) block, the expert draw last.  fairness_aware then
    solves q at the stride points from prefix sums (``_solve_q``) and
    draws each round's table; the other engines take the update cell's.
    ``group`` and ``label`` are the trial's T int8 arrival columns."""
    T, eta = traj.T, traj.eta
    by_group, by_label = CELL_MAP[config.engine]
    traj.cell[:] = 2 * group + label
    traj.losses[:] = ensemble.prediction_block(group, label, expert_rng) != label[:, None]
    update = 2 * group * by_group + label * by_label
    reads = [update & 2, update | 1] if by_label else [update]
    u = engine_rng.random((T, len(reads)))
    loss, draw = _table_rounds(eta, update, reads, traj.losses, u[:, -1])
    rows = np.arange(T)
    if by_label:
        traj.right[:], wrong = loss[rows, label], loss[rows, 1 - label]
        del loss    # (T, 2) float64; freed before the prefix sums of long trials
        traj.alpha_sums = _solve_q(config, traj, wrong)
        # q holds from its stride point until the next; uniform before the first.
        stride = config.q_recompute_stride
        traj.q_neg[0] = 0.5
        traj.q_neg[:] = traj.q_neg[rows // stride * stride]
        q_g = traj.q_neg[rows, group]    # q_{g,-}
        chosen = np.where(u[:, 0] < q_g, draw[:, NEG], draw[:, POS])
        q_right = np.where(label == POS, 1.0 - q_g, q_g)
        traj.expected[:] = q_right * traj.right + (1.0 - q_right) * wrong
    else:
        traj.expected[:], chosen = loss[:, 0], draw[:, 0]
        del loss
    traj.realized[:] = traj.losses[rows, chosen]
    prediction = np.where(traj.realized > 0.0, 1 - label, label)
    traj.outcome[:] = np.where(prediction == 1, 1 - label, 2 + label)
    del u, draw, chosen, rows, prediction, update, reads    # before finish
    return traj.finish()


def _table_rounds(eta: float, update: np.ndarray, reads: list[np.ndarray],
                  losses: np.ndarray, u: np.ndarray):
    """Expected loss and inverse-CDF draw (uniform u) of each cell a round
    reads, under its pre-update weights: two (T, len(reads)) arrays.

    ``update`` and every ``reads`` column hold one cell 2 * group + label
    per round.  Round t reads a cell's ``weight_states`` row after that
    cell's updates before t.  A batched matmul row is bitwise one round's
    1-D dot, and the running sums at or below ``u * total`` are what
    ``searchsorted`` counts.  The module docstring says which operations
    define the bits."""
    T, d = losses.shape
    at = [np.flatnonzero(update == c) for c in range(4)]    # each cell's update rounds
    states = [weight_states(eta, losses[rounds]) for rounds in at]
    loss, draw = np.empty((T, len(reads))), np.empty((T, len(reads)), dtype=np.intp)
    w = np.empty((T, d))
    for j, read in enumerate(reads):
        for c in range(4):    # a round reading its update cell reads the row before it
            on = at[c] if read is update else np.flatnonzero(read == c)
            w[on] = states[c][:-1] if read is update else states[c][np.searchsorted(at[c], on)]
        if j == len(reads) - 1:
            states.clear()    # (T + 4, d) in all, freed before the last read's passes
        loss[:, j] = np.matmul(w[:, None, :], losses[:, :, None])[:, 0, 0] / w.sum(axis=1)
        for k in range(1, d):    # running sum, as np.cumsum adds a row
            w[:, k] += w[:, k - 1]
        below = w <= u[:, None] * w[:, -1:]
        draw[:, j] = np.minimum(sum(below[:, k] for k in range(d)), d - 1)
    return loss, draw


def _solve_q(config: RunConfig, traj: Trajectory, wrong: np.ndarray):
    """Fill ``traj.q_neg`` at every stride point; returns the final alpha
    sums, (2, 2) [group, label].

    Stride point t (t >= 2, (t-1) % stride == 0) solves q from the sums
    after round t-1 with t-1 elapsed rounds in the denominators.  Those
    sums are prefix sums over the rounds: a round's alpha gap wrong - right
    goes to its other-label cell (g, 1-y) and the arrival is counted in
    (g, y).  ``np.cumsum`` adds in round order, so every sum is bitwise the
    round-by-round one.  Each block of up to Q_BLOCK stride points is
    assembled and solved in one batch.
    """
    T = traj.T
    rows = np.arange(T)
    alpha = np.zeros((T, 4))    # columns 2 * group + label
    alpha[rows, traj.cell ^ 1] = wrong - traj.right
    np.cumsum(alpha, axis=0, out=alpha)
    counts = np.zeros((T, 4), dtype=np.int64)
    counts[rows, traj.cell] = 1
    np.cumsum(counts, axis=0, out=counts)

    points = np.arange(1 + config.q_recompute_stride, T + 1, config.q_recompute_stride)
    for lo in range(0, len(points), Q_BLOCK):
        t = points[lo:lo + Q_BLOCK]
        p_hat, mu = smoothed_rates(counts[t - 2].reshape(-1, 2, 2), config.dirichlet_alpha)
        a = assemble_systems(alpha[t - 2][:, [0, 2, 1, 3]],   # canonical cell order
                             p_hat, mu[:, Group.A], mu[:, Group.B], t - 1.0)
        traj.q_neg[t - 1] = solve_q_batch(a, config.b_tolerance, config.lam)[:, :2]
    return alpha[-1].reshape(2, 2).copy()
