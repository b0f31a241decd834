import dataclasses
import functools
import json
import math

import numpy as np
import pytest

import fairmw.domain
from fairmw.domain import (
    RESCALE_THRESHOLD,
    WEIGHT_FLOOR,
    Group,
    NEG,
    POS,
    RunConfig,
    weight_states,
)
import scalar_reference
from scalar_reference import stream_of
from fairmw import engines, qopt
from fairmw.qopt import check_q
from fairmw.cli import build_spec, parse_config, prepare_payload
from fairmw.domain import trial_seed_sequence
from fairmw.engines import CELL_MAP, Trajectory, run_trial
from fairmw.errors import FairmwError
from fairmw.estimators import smoothed_rates
from fairmw.experts import ErrorProfile, MatrixEnsemble, SyntheticEnsemble
from fairmw.ingest import synth_stream
from fairmw.metrics import gamma, validate_bounds
from test_golden import CASES as GOLDEN_CASES


def make_stream(pattern, reps=1):
    """'A+ B- ...' shorthand for a stream's (group, label) columns."""
    return stream_of([(Group.A if token[0] == "A" else Group.B,
                       POS if token[1] == "+" else NEG) for token in pattern.split() * reps])


def file_ensemble(rows):
    matrix = np.array(rows, dtype=np.int8)
    names = [f"f{i}" for i in range(matrix.shape[1])]
    return MatrixEnsemble(names, matrix)


def mw_trial(pattern, rows, eta, seed=0):
    """An mw trial through ``run_trial`` on a prediction matrix, and the
    engine uniforms its rounds draw from."""
    stream, ens = make_stream(pattern), file_ensemble(rows)
    T = len(stream[0])
    traj = run_trial(config(horizon=T, eta=eta, seed=seed), stream, ens)
    return traj, np.random.default_rng(trial_seed_sequence(seed, 0)[2]).random(T)


def test_mw_step_hand_example():
    # round 1 reads uniform weights; expert 1 misses, so round 2 reads (1, 0.75)
    traj, u = mw_trial("A+ A+", [[1, 0], [1, 0]], 0.25)
    assert traj.expected.tolist() == [0.5, 0.75 / 1.75]
    assert traj.losses.tolist() == [[0.0, 1.0], [0.0, 1.0]]
    # a uniform u draws expert 1 once u * total is past expert 0's unit mass
    chosen = [int(u[0] * 2 >= 1), int(u[1] * 1.75 >= 1)]
    assert traj.realized.tolist() == [float(c) for c in chosen]
    assert traj.outcome.tolist() == [3 if c else 0 for c in chosen]   # fn or tp


def test_step_zero_one_losses():
    # losses are 1.0 exactly where an expert's prediction misses the label
    traj, _ = mw_trial("B+ B-", [[1, 0, 1, 0], [1, 0, 1, 0]], 0.3)
    assert traj.losses.dtype == np.float64
    assert traj.losses.tolist() == [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]]


def test_mw_unanimous_correct_round_keeps_weights():
    # a round every expert gets right leaves the weights as they were: the
    # round after it reads what it would have read without it
    with_it, _ = mw_trial("A+ B+ A+", [[1, 0, 1], [1, 1, 1], [1, 0, 0]], 0.3)
    without, _ = mw_trial("A+ A+", [[1, 0, 1], [1, 0, 0]], 0.3)
    assert with_it.expected[1] == 0.0
    assert with_it.expected[2] == without.expected[1]
    assert abs(without.expected[1] - 1.7 / 2.7) < 1e-15


def test_mw_sampling_ignores_floored_expert():
    # with weights (1, 1e-300) the cumulative mass at index 0 already
    # equals the total, so the first expert is drawn; an update that misses
    # with expert 1 keeps it at the floor
    rng = np.random.default_rng(7)
    w = np.array([1.0, 1e-300])
    for _ in range(200):
        assert engines._sample(w, rng.random()) == 0
        fairmw.domain._update_slice(w, 0.1, np.array([0.0, 1.0]))
        assert w.tolist() == [1.0, WEIGHT_FLOOR]


def update_cells(engine, cells):
    """The cell each round updates, as ``_cell_trial`` addresses it from
    the arrivals' cells 2 * group + label."""
    by_group, by_label = CELL_MAP[engine]
    cells = np.array(cells, dtype=np.int8)
    return (cells & 2) * by_group + (cells & 1) * by_label


def cell_rounds(engine, eta, cells, losses, u):
    """Expected loss and draw of each round's update cell."""
    update = update_cells(engine, cells)
    return engines._table_rounds(eta, update, [update], losses, u)


def read_all_cells(eta, update, losses):
    """Expected loss of every cell, (T, 4), under the weights each round
    reads after the updates ``update`` addresses."""
    T = len(update)
    loss, _ = engines._table_rounds(eta, update, [np.full(T, c) for c in range(4)],
                                    np.array(losses, dtype=float), np.full(T, 0.5))
    return loss


def test_cell_map_addresses_one_cell_per_round():
    # mw updates (A,-) whatever arrives, group_aware (g,-) and fairness_aware
    # (g,y); every other cell keeps its uniform weights
    for engine, (by_group, by_label) in CELL_MAP.items():
        for g, y in [(Group.A, NEG), (Group.A, POS), (Group.B, NEG), (Group.B, POS)]:
            update = update_cells(engine, [2 * g + y] * 2)
            loss = read_all_cells(0.4, update, [[1, 0], [1, 0]])
            cell = 2 * (g if by_group else Group.A) + (y if by_label else NEG)
            assert {c for c in range(4) if loss[1, c] != 0.5} == {cell}, (engine, g, y)


def test_group_aware_updates_only_arriving_group():
    # an A arrival moves (A,-) and leaves (B,-) uniform
    loss = read_all_cells(0.4, update_cells("group_aware", [A_POS] * 2), [[1, 0], [1, 0]])
    assert loss[1, B_NEG] == 0.5
    assert loss[1, A_NEG] == 0.6 / 1.6


def test_group_aware_matches_mw_on_filtered_subsequence():
    # weights and expected losses are rng-free, so the A rounds of an
    # interleaved group_aware run must match a plain mw run over just them,
    # and with the same uniforms draw the same experts
    rng = np.random.default_rng(11)
    cells = rng.integers(0, 4, size=40)
    losses = rng.integers(0, 2, size=(40, 3)).astype(float)
    u = rng.random(40)
    on_a = cells < 2
    ga = cell_rounds("group_aware", 0.25, cells, losses, u)
    mw = cell_rounds("mw", 0.25, cells[on_a], losses[on_a], u[on_a])
    for got, want in zip(ga, mw):
        assert got[on_a].tolist() == want.tolist()


# fairness_aware rounds come from engines._table_rounds: per round, the
# expected loss and the inverse-CDF draw of the group's tables (g,-), (g,+).
A_NEG, A_POS, B_NEG, B_POS = range(4)   # cells 2 * group + label


def table_rounds(eta, cells, losses, u):
    cells = np.array(cells, dtype=np.int8)
    return engines._table_rounds(eta, cells, [cells & 2, cells | 1],
                                 np.array(losses, dtype=float), np.array(u, dtype=float))


@pytest.mark.parametrize("d", [2, 7, 8, 9, 16])
def test_table_draw_matches_searchsorted_at_ties(d):
    # The draw counts the cumulative weights at or below u * total, as
    # searchsorted(side="right") finds them, on every row and across the 8
    # columns at which numpy starts summing a row pairwise.  With eta = 1/2
    # the weights are powers of two, and half the rows set u * total onto a
    # cumulative weight exactly.
    T = 400
    rng = np.random.default_rng(d)
    losses = (rng.random((T, d)) < 0.5).astype(float)
    cum = np.cumsum(weight_states(0.5, losses)[:-1], axis=1)   # before each round
    total = cum[:, -1]
    k = rng.integers(0, d - 1, T)
    u = np.where(rng.random(T) < 0.5, cum[np.arange(T), k] / total, rng.random(T))
    cells = np.zeros(T, dtype=np.int8)
    _, draw = engines._table_rounds(0.5, cells, [cells], losses, u)
    want = [min(int(np.searchsorted(c, x * c[-1], side="right")), d - 1)
            for c, x in zip(cum, u)]
    assert draw[:, 0].tolist() == want
    ties = sum(x * c[-1] in c for c, x in zip(cum, u))
    assert ties > T // 4, ties


def test_rmw_updates_only_true_label_slice():
    # round 1 on (A,+) with losses (0, 1) moves table (A,+) alone: round 2
    # reads (A,+) as (1, 0.5) and (A,-) still uniform, round 3 reads both
    # B tables uniform, and round 4 sees round 3's update of (B,-)
    loss, _ = table_rounds(0.5, [A_POS, A_NEG, B_NEG, B_POS], [[0, 1]] * 4, [0.5] * 4)
    assert loss.tolist() == [[0.5, 0.5], [0.5, 1 / 3], [0.5, 0.5], [1 / 3, 0.5]]


def test_rmw_step_hand_example():
    loss, draw = table_rounds(0.5, [A_POS, A_POS], [[0, 1], [0, 1]], [0.4, 0.6])
    # both slices are uniform: each table gives expected loss 1/2, and the
    # uniform 0.4 draws the first expert from either table
    right, wrong = loss[:, POS], loss[:, NEG]
    assert right[0] == wrong[0] == 0.5
    assert draw[0].tolist() == [0, 0]
    assert weight_states(0.5, np.array([[0.0, 1.0]]))[-1].tolist() == [1.0, 0.5]
    # the candidates come from the pre-update tables (g,-) and (g,+)
    assert draw[1].tolist() == [1, 0]   # 0.6 * 2 >= 1 in (1, 1); 0.6 * 1.5 < 1 in (1, 0.5)
    assert abs(right[1] - 1.0 / 3.0) < 1e-15
    # the same first round in a trial: the wrong-table loss equals the
    # right-table loss, so the alpha gap is zero, and the arrival is
    # counted in (A,+): p_hat = (1 + 2) / (1 + 4), mu_hat_A = (1 + 1) / (1 + 2)
    traj = run_trial(config(engine="fairness_aware", horizon=1),
                     make_stream("A+"), file_ensemble([[1, 0]]))
    assert np.array_equal(traj.alpha_sums, np.zeros((2, 2)))
    assert traj.counts.tolist() == [[0, 1], [0, 0]]
    p_hat, mu_hat = smoothed_rates(traj.counts, 1.0)
    assert (p_hat, mu_hat.tolist()) == (3 / 5, [2 / 3, 0.5])


def test_rmw_alpha_accumulates_cross_table_gap():
    loss, _ = table_rounds(0.5, [A_POS, A_POS], [[0, 1], [0, 1]], [0.5, 0.5])
    # second round: right slice (1, 0.5) gives 1/3, wrong slice stays 1/2
    assert abs(loss[1, POS] - 1.0 / 3.0) < 1e-15
    assert loss[1, NEG] == 0.5
    # run_trial adds the gap wrong - right to the other-label cell (A,-) and
    # mixes right and wrong by q, uniform until the first stride point
    traj = run_trial(config(engine="fairness_aware", horizon=2, eta=0.25,
                            q_recompute_stride=5),
                     make_stream("A+ A+"), file_ensemble([[1, 0], [1, 0]]))
    right = 0.75 / 1.75   # slice (1, 0.75) after one round
    assert traj.right.tolist() == [0.5, right]
    assert traj.expected.tolist() == [0.5, 0.5 * right + 0.5 * 0.5]
    assert traj.alpha_sums.tolist() == [[0.5 - right, 0.0], [0.0, 0.0]]


def test_rmw_degenerate_q_reduces_to_mw_on_slice():
    # q_{A,+} = 1 on an all-(A,+) stream always draws table (A,+) and gives
    # expected loss 1.0 * right: the right-table losses, that table's
    # draws and its final weights equal plain mw
    rng = np.random.default_rng(6)
    p = rng.integers(0, 2, size=(30, 3)).astype(np.int8)
    u = rng.random(30)
    losses = (p != POS).astype(float)
    loss, draw = table_rounds(0.2, [A_POS] * 30, losses, u)
    w = np.ones(3)    # mw's one weight vector, round by round
    for i in range(30):
        right = float(w @ losses[i]) / float(w.sum())
        assert loss[i, POS] == right and draw[i, POS] == engines._sample(w, u[i])
        fairmw.domain._update_slice(w, 0.2, losses[i])
    assert np.array_equal(weight_states(0.2, losses)[-1], w)


def test_rmw_table_draw_follows_q(monkeypatch):
    # Every stride point's q is replaced by q_{A,-} = 1, then by 0.  On an
    # all-(A,+) stream table (A,-) keeps uniform weights, so when it is
    # drawn the expert is 1 exactly when the round's expert uniform is at
    # least 1/2; table (A,+) learns that expert 1 (which always misses) is bad.
    T = 40
    uniforms = np.random.default_rng(trial_seed_sequence(0, 0)[2]).random((T, 2))
    from_neg = (uniforms[:, 1] >= 0.5).astype(float)
    for q_a_neg in (1.0, 0.0):
        monkeypatch.setattr(engines, "solve_q_batch", lambda a, b, lam: np.tile(
            [q_a_neg, 0.5, 1.0 - q_a_neg, 0.5], (len(a), 1)))
        traj = run_trial(config(engine="fairness_aware", horizon=T, eta=0.3),
                         make_stream("A+", reps=T), file_ensemble([[1, 0]] * T))
        # round 1 is uniform q, and both tables are still uniform then
        assert traj.realized[0] == from_neg[0]
        assert traj.q_neg[1:, 0].tolist() == [q_a_neg] * (T - 1)
        # the expected loss weighs the (A,+) table's loss by q_{A,+}
        if q_a_neg == 1.0:
            assert traj.realized[1:].tolist() == from_neg[1:].tolist()
            assert traj.expected[1:].tolist() == [0.5] * (T - 1)   # the (A,-) table's loss
        else:
            assert traj.realized[1:].sum() < from_neg[1:].sum()
            assert traj.expected[1:].tolist() == traj.right[1:].tolist()


def config(**kw):
    base = dict(engine="mw", horizon=20, eta=0.3, seed=0, trials=1)
    base.update(kw)
    return RunConfig(**base)


def dump(traj):
    """Every recorded column, aggregate, series and bound margin as
    deterministic JSON."""
    doc = {"engine": traj.engine, "eta": traj.eta, "experts": traj.expert_names,
           "T": traj.T, "margins": validate_bounds(traj, config(engine=traj.engine)).margins}
    for name in ("cell", "outcome", "realized", "expected", "losses", "right", "q_neg",
                 "regret_realized", "regret_expected", "fpr_gap", "fnr_gap", "eer_gap",
                 "rates", "counts"):
        value = getattr(traj, name)
        doc[name] = None if value is None else np.nan_to_num(value, nan=-1.0).tolist()
    return json.dumps(doc, sort_keys=True)


def test_run_trial_empty_stream():
    # every horizon is >= 1, so an empty stream is one that runs out
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1)] * 2)
    for engine in CELL_MAP:
        with pytest.raises(FairmwError, match="stream has 0 examples"):
            run_trial(config(engine=engine), stream_of([]), ens)
    with pytest.raises(TypeError):
        config(allow_empty=True)   # RunConfig has no such field


def test_run_trial_stream_too_short():
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1)] * 2)
    with pytest.raises(FairmwError, match="stream has 2 examples, horizon 50"):
        run_trial(config(horizon=50), make_stream("A+ B-"), ens)


def test_run_trial_prediction_file_too_short():
    ens = file_ensemble([[1, 0], [0, 1], [1, 1]])
    stream = make_stream("A+ B- A- B+ A+")
    with pytest.raises(FairmwError, match="ensemble covers 3 rounds, horizon 5"):
        run_trial(config(horizon=5), stream, ens)


def test_run_trial_deterministic_replay():
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                             ErrorProfile(0.1, 0.1, 0.4, 0.4),
                             ErrorProfile(0.2, 0.2, 0.2, 0.2)])
    stream = make_stream("A+ B- A- B+ A+ A- B- B+ A+ B-", reps=4)
    cfg = config(engine="fairness_aware", horizon=40, trials=1, q_recompute_stride=3)
    dumps = [dump(run_trial(cfg, stream, ens, trial=2)) for _ in range(2)]
    assert dumps[0] == dumps[1]
    assert dump(run_trial(cfg, stream, ens, trial=3)) != dumps[0]


def test_run_trial_group_isolation():
    # dropping the B rounds (with their prediction rows) leaves every A-round
    # expected loss identical under group_aware
    rng = np.random.default_rng(13)
    stream = make_stream("A+ B- A- A+ B+ A- B- A+ A- A+")
    rows = rng.integers(0, 2, size=(10, 3))
    full = run_trial(config(engine="group_aware", horizon=10), stream,
                     file_ensemble(rows))
    a_idx = np.flatnonzero(stream[0] == Group.A)
    only_a = run_trial(config(engine="group_aware", horizon=len(a_idx)),
                       (stream[0][a_idx], stream[1][a_idx]), file_ensemble(rows[a_idx]))
    assert full.expected[a_idx].tolist() == only_a.expected.tolist()


def test_trajectory_loss_decompositions():
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                             ErrorProfile(0.1, 0.1, 0.4, 0.4)])
    stream = make_stream("A+ B- A- B+ A+ A- B- B+", reps=10)
    cfg = config(engine="fairness_aware", horizon=80)
    traj = run_trial(cfg, stream, ens)
    L_zy = np.bincount(traj.cell, weights=traj.expected, minlength=4)
    assert abs(L_zy.sum() - np.cumsum(traj.expected)[-1]) < 1e-9
    assert int(traj.counts.sum()) == 80
    # each group's error rate times its arrivals counts its realized errors
    errors = np.bincount(traj.cell >> 1, weights=traj.realized, minlength=2)
    assert (traj.rates[2] * traj.counts.sum(axis=1)).round().tolist() == errors.tolist()
    # the cell margins read the right-table and expert-loss sums of a replay
    # over the recorded rounds
    replay, replay_losses = np.zeros((2, 2)), np.zeros((2, 2, 2))
    for i in range(traj.T):
        replay[divmod(int(traj.cell[i]), 2)] += traj.right[i]
        replay_losses[divmod(int(traj.cell[i]), 2)] += traj.losses[i]
    eta, slack = traj.eta, math.log(2) / traj.eta
    margins = validate_bounds(traj, cfg).margins
    cells = [(g, y, f"{g.name}/{sign}") for g in Group for y, sign in ((NEG, "-"), (POS, "+"))]
    for g, y, cell in cells:
        L_f = replay_losses[g, y].tolist()
        assert margins[cell] == replay[g, y] - gamma(eta) * min(L_f)
        for name, loss in zip(traj.expert_names, L_f):
            assert margins[f"{cell}/{name}"] == (1.0 + eta) * loss + slack - replay[g, y]
    # the four cells' expert losses, read back from the margins, add up to
    # each expert's loss over the trial
    for f, name in enumerate(traj.expert_names):
        read = sum(margins[f"{cell}/{name}"] - slack + replay[g, y] for g, y, cell in cells)
        assert abs(read / (1.0 + eta) - traj.losses[:, f].sum()) < 1e-9
    # group_aware's per-group margins add up to mw's: the groups' expected
    # and expert losses add up to the trial's
    cfg = config(engine="group_aware", horizon=80)
    traj = run_trial(cfg, stream, ens)
    margins = validate_bounds(traj, cfg).margins
    L_expected = np.cumsum(traj.expected)[-1]
    for name, loss in zip(traj.expert_names, traj.losses.sum(axis=0).tolist()):
        assert abs(margins[f"A/{name}"] + margins[f"B/{name}"]
                   - ((1.0 + eta) * loss + 2 * slack - L_expected)) < 1e-9


def test_trajectory_q_series_validity():
    ens = SyntheticEnsemble([ErrorProfile(0.4, 0.1, 0.1, 0.4),
                             ErrorProfile(0.1, 0.4, 0.4, 0.1)])
    stream = make_stream("A+ B- A- B+ B- A+ A- B+", reps=15)
    traj = run_trial(config(engine="fairness_aware", horizon=120,
                            q_recompute_stride=5), stream, ens)
    q = traj.q_neg  # (q_{A,-}, q_{B,-}); each q_{z,+} is 1 - q_{z,-}
    assert q.shape == (120, 2)
    assert np.all((q >= 0.0) & (q <= 1.0))
    # round 1 is uniform and q only changes when (t-1) % stride == 0
    assert q[0].tolist() == [0.5, 0.5]
    for i in range(1, traj.T):
        t = i + 1
        if (t - 1) % 5 != 0:
            assert q[i].tolist() == q[i - 1].tolist()
    # every row completed by q_{z,+} = 1 - q_{z,-} is a valid q; the last is
    # the final q that summary.json writes
    check_q(np.column_stack([q, 1.0 - q]))


def test_trajectory_regret_series():
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1),
                             ErrorProfile(0.45, 0.45, 0.45, 0.45)])
    stream = make_stream("A+ B- A- B+", reps=50)
    traj = run_trial(config(horizon=200, eta=None), stream, ens)
    best = traj.losses.sum(axis=0).min()
    assert abs(traj.regret_expected[-1] - (np.cumsum(traj.expected)[-1] - best)) < 1e-9
    assert abs(traj.regret_realized[-1] - (np.cumsum(traj.realized)[-1] - best)) < 1e-9
    # eta=None resolves to the recommended schedule, recorded on the trajectory
    assert 0.0 < traj.eta < 0.5


def test_trajectory_round_columns():
    # finish() and validate_bounds derive the aggregates and margins from
    # the round columns and the fairness_aware columns
    def recorded(engine):
        traj = Trajectory(engine, 0.3, ["f0", "f1"], 3)
        traj.cell[:] = (1, 2, 3)        # (A,+), (B,-), (B,+)
        traj.outcome[:] = (0, 1, 3)     # tp, fp, fn
        traj.realized[:] = (0.0, 1.0, 1.0)
        traj.expected[:] = (0.4, 0.6, 0.7)
        traj.losses[:] = ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        if engine == "fairness_aware":
            traj.right[:] = (0.25, 0.5, 0.75)
            traj.q_neg[:] = (0.3, 0.6)
        return traj.finish()

    traj = recorded("fairness_aware")
    assert len(traj) == 3
    # the right-table sums per cell are (A,-) 0, (A,+) 0.25, (B,-) 0.5, (B,+) 0.75
    eta, g_eta, slack = 0.3, gamma(0.3), math.log(2) / 0.3
    margins = validate_bounds(traj, config(engine="fairness_aware")).margins
    assert {k: v for k, v in margins.items() if k.count("/") == 1} == {
        "A/-": 0.0, "A/+": 0.25, "B/-": 0.5 - g_eta * 1.0, "B/+": 0.75}
    # each expert lost the one (B,-) round
    assert margins["B/-/f0"] == margins["B/-/f1"] == (1.0 + eta) * 1.0 + slack - 0.5
    # group_aware compares each group's expected loss with its expert losses,
    # A (1, 0) and B (1, 2)
    margins = validate_bounds(recorded("group_aware"), config(engine="group_aware")).margins
    assert margins == {"A/f0": (1.0 + eta) * 1.0 + slack - 0.4,
                       "A/f1": (1.0 + eta) * 0.0 + slack - 0.4,
                       "B/f0": (1.0 + eta) * 1.0 + slack - (0.6 + 0.7),
                       "B/f1": (1.0 + eta) * 2.0 + slack - (0.6 + 0.7)}
    assert traj.counts.tolist() == [[0, 1], [1, 1]]
    # A: one true positive; B: one false positive and one false negative
    assert np.nan_to_num(traj.rates, nan=-1.0).tolist() == [[-1.0, 1.0], [0.0, 1.0],
                                                            [0.0, 1.0]]
    assert np.cumsum(traj.realized)[-1] == 2.0
    assert np.cumsum(traj.expected)[-1] == 0.4 + 0.6 + 0.7
    # running best expert: 0, 1, 2 -> regrets are the running sums minus it
    assert traj.regret_realized.tolist() == [0.0, 0.0, 0.0]
    assert traj.regret_expected.tolist() == [0.4, 0.4 + 0.6 - 1.0, 0.4 + 0.6 + 0.7 - 2.0]

    # real runs: every engine's columns agree with the stream and with each other
    ens = SyntheticEnsemble([ErrorProfile(0.2, 0.3, 0.4, 0.1),
                             ErrorProfile(0.3, 0.1, 0.2, 0.4)])
    stream = make_stream("A+ B- A- B+ A- B+")
    for engine in CELL_MAP:
        traj = run_trial(config(engine=engine, horizon=6), stream, ens)
        assert traj.cell.tolist() == (2 * stream[0] + stream[1]).tolist()
        # fp and fn are the wrong predictions
        wrong = (traj.outcome == 1) | (traj.outcome == 3)
        assert traj.realized.tolist() == wrong.astype(float).tolist()
    assert np.all(np.isfinite(traj.q_neg))


def test_finish_matches_round_by_round_accumulation():
    # the one-pass derivation and the bound margins are bit-identical to
    # accumulating every aggregate, series and per-cell sum with += after
    # each round, and the rates and gaps to the scalar reference's (NaN
    # standing for None).  The second case has 9 experts, past the 8 at
    # which numpy sums a row pairwise, and no group-B arrival before round
    # 71, so every gap series starts with 70 NaNs.
    rng = np.random.default_rng(5)
    three = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                               ErrorProfile(0.1, 0.1, 0.4, 0.4),
                               ErrorProfile(0.2, 0.25, 0.2, 0.3)])
    mixed = stream_of([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                       for _ in range(300)])
    nine = SyntheticEnsemble([ErrorProfile(*rng.uniform(0.05, 0.45, 4)) for _ in range(9)])
    late_b = stream_of([(0 if t < 70 else int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                        for t in range(300)])
    cases = [(ens, stream, engine) for ens, stream in ((three, mixed), (nine, late_b))
             for engine in ("mw", "group_aware", "fairness_aware")]
    for ens, stream, engine in cases:
        traj = run_trial(config(engine=engine, horizon=300, q_recompute_stride=3),
                         stream, ens)
        if ens is nine:
            assert traj.d == 9 and traj.cell[:70].max() < 2 and traj.cell[70:].max() >= 2
            for series in (traj.fpr_gap, traj.fnr_gap, traj.eer_gap):
                assert np.isnan(series[:70]).all() and not np.isnan(series[-1])
        d = ens.d
        L_real = L_exp = 0.0
        L_z, L_f = np.zeros(2), np.zeros(d)
        L_fz, L_fzy, right_cum = np.zeros((2, d)), np.zeros((2, 2, d)), np.zeros((2, 2))
        counts, confusion = np.zeros((2, 2), dtype=np.int64), np.zeros((2, 4), dtype=np.int64)
        for i in range(traj.T):
            g, y = divmod(int(traj.cell[i]), 2)
            L_real += traj.realized[i]
            L_exp += traj.expected[i]
            L_z[g] += traj.expected[i]
            L_f += traj.losses[i]
            L_fz[g] += traj.losses[i]
            L_fzy[g, y] += traj.losses[i]
            if traj.right is not None:
                right_cum[g, y] += traj.right[i]
            counts[g, y] += 1
            confusion[g, traj.outcome[i]] += 1
            best = float(L_f.min())
            assert traj.regret_realized[i] == L_real - best
            assert traj.regret_expected[i] == L_exp - best
            rates = scalar_reference.group_rates(confusion)
            for series, (a, b) in zip((traj.fpr_gap, traj.fnr_gap, traj.eer_gap), rates):
                want = scalar_reference.gap(a, b)
                assert np.isnan(series[i]) if want is None else series[i] == want
        assert np.array_equal(traj.rates, np.array(rates, dtype=float), equal_nan=True)
        assert traj.counts.tolist() == counts.tolist()
        eta, slack, names = traj.eta, math.log(d) / traj.eta, traj.expert_names
        if engine == "mw":
            want = {f: (1.0 + eta) * L_f[i] + slack - L_exp for i, f in enumerate(names)}
        elif engine == "group_aware":
            want = {f"{g.name}/{f}": (1.0 + eta) * L_fz[g, i] + slack - L_z[g]
                    for g in Group for i, f in enumerate(names)}
        else:
            want = {}
            for g in Group:
                for y, sign in ((NEG, "-"), (POS, "+")):
                    cell = f"{g.name}/{sign}"
                    want[cell] = right_cum[g, y] - gamma(eta) * L_fzy[g, y].min()
                    want.update({f"{cell}/{f}": (1.0 + eta) * L_fzy[g, y, i] + slack
                                 - right_cum[g, y] for i, f in enumerate(names)})
        assert validate_bounds(traj, config(engine=engine)).margins == want
        assert (traj.right is None) == (engine != "fairness_aware")


def test_group_error_rates():
    # rounds (A,+) predicted 1, (A,+) predicted 0, then (B,-) predicted 0 twice
    traj = Trajectory("mw", 0.3, ["f0", "f1"], 4)
    traj.cell[:] = (1, 1, 2, 2)
    traj.outcome[:] = (0, 3, 2, 2)      # tp, fn, tn, tn
    traj.realized[:] = traj.losses[:, 0] = (0.0, 1.0, 0.0, 0.0)
    traj.finish()
    # only fairness_aware keeps a right-table and q column
    assert traj.right is None and traj.q_neg is None
    # per-group error rates: one miss out of two A rounds, none of two B rounds
    assert traj.rates[2].tolist() == [0.5, 0.0]
    assert traj.error_rate() == 0.25


def test_gap_series_undefined_until_both_groups_seen():
    ens = SyntheticEnsemble([ErrorProfile(0.2, 0.2, 0.2, 0.2),
                             ErrorProfile(0.3, 0.3, 0.3, 0.3)])
    stream = make_stream("A+ A- A+ B- B+ B-")
    traj = run_trial(config(horizon=6), stream, ens)
    assert np.all(np.isnan(traj.eer_gap[:3]))
    assert np.all(np.isfinite(traj.eer_gap[3:]))
    # fnr needs positives on both sides: first B positive arrives at round 5
    assert np.all(np.isnan(traj.fnr_gap[:4]))
    assert np.all(np.isfinite(traj.fnr_gap[4:]))


def test_mw_theorem_regret_bound_random_runs():
    # cumulative expected loss <= (1+eta) * best expert + ln(d)/eta
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        T = int(rng.integers(50, 400))
        eta = float(rng.uniform(0.02, 0.45))
        profiles = [ErrorProfile(*rng.uniform(0.05, 0.5, size=4)) for _ in range(d)]
        stream = stream_of([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                            for _ in range(T)])
        traj = run_trial(config(horizon=T, eta=eta, seed=int(rng.integers(1 << 30))),
                         stream, SyntheticEnsemble(profiles))
        bound = (1.0 + eta) * traj.losses.sum(axis=0).min() + math.log(d) / eta
        assert np.cumsum(traj.expected)[-1] <= bound + 1e-9


def fair_case(T, experts=None, **kw):
    """A fairness_aware config, stream and ensemble; ``experts`` is a list of
    error profiles or a (T, d) prediction matrix."""
    if isinstance(experts, np.ndarray):
        ens = file_ensemble(experts)
    else:
        ens = SyntheticEnsemble(experts or [ErrorProfile(0.3, 0.1, 0.2, 0.4),
                                            ErrorProfile(0.1, 0.35, 0.4, 0.1),
                                            ErrorProfile(0.25, 0.25, 0.2, 0.2)])
    rng = np.random.default_rng(21)
    stream = stream_of([(int(rng.random() < 0.4), int(rng.random() < 0.35))
                        for _ in range(T)])
    base = dict(engine="fairness_aware", horizon=T, eta=None, seed=4,
                lam=(1.0, 1.0, 1.0 / T))
    base.update(kw)
    return RunConfig(**base), stream, ens


def assert_same_trial(got, want):
    for name in ("cell", "outcome", "realized", "expected", "losses", "right", "q_neg",
                 "alpha_sums"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:   # right, q_neg and alpha_sums belong to fairness_aware
            assert g is None, name
            continue
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    # the final q is q_neg[-1]; the final rate estimates come from counts
    same = dump(got) == dump(want)   # a diff of two long dumps would take minutes
    assert same, "aggregates or series differ"


@pytest.mark.parametrize("T, kw", [
    (400, dict(q_recompute_stride=1)),
    (400, dict(q_recompute_stride=3, b_tolerance=(0.02, 0.01, 0.0))),
    (400, dict(q_recompute_stride=7, dirichlet_alpha=0.01)),
    (200, dict(lam=(0.0, 0.0, 0.0))),
    (50, dict(q_recompute_stride=60)),
    (1, {}),
    (2, {}),
    (1100, {}),     # 1099 stride points: two Q_BLOCK blocks
    # every expert mostly wrong at eta's cap: the reference floors and rescales
    (4000, dict(eta=0.49, experts=[ErrorProfile(e, e, e, e) for e in (1.0, 0.6, 0.9)],
                hits=dict(floor=1, rescale=1))),
    # 16 experts: cells span more than one 4096-row weight_states pass, and rescale
    (20000, dict(eta=0.3, q_recompute_stride=25, hits=dict(rescale=3), experts=[
        ErrorProfile(*np.random.default_rng(8).uniform(0.3, 0.6, 4)) for _ in range(16)])),
    (500, dict(q_recompute_stride=2,
               experts=np.random.default_rng(3).integers(0, 2, size=(500, 4)))),
])
def test_two_stage_trial_matches_per_round_reference(T, kw, monkeypatch):
    # the per-round loop solved q before each stride round, drew the table,
    # then the expert, from the engine rng, and updated one weight table cell;
    # the array passes must give every column and final bit for bit
    kw = dict(kw)
    hits = kw.pop("hits", {})
    events = watch_weight_updates(monkeypatch)
    cfg, stream, ens = fair_case(T, **kw)
    for trial in (0, 1):
        assert_same_trial(run_trial(cfg, stream, ens, trial),
                          scalar_reference.fairness_aware_trial(cfg, stream, ens, trial))
    for name, least in hits.items():
        assert events[name] >= least, events


def watch_weight_updates(monkeypatch):
    """Count the updates through ``domain._update_slice`` (the reference's
    path) that floor an entry or rescale the slice."""
    events = {"rescale": 0, "floor": 0}
    update = fairmw.domain._update_slice

    def watched(w, eta, losses):
        raw = w * np.power(1.0 - eta, losses)
        events["floor"] += int(np.any(raw < WEIGHT_FLOOR))
        events["rescale"] += int(np.maximum(raw, WEIGHT_FLOOR).max() < RESCALE_THRESHOLD)
        update(w, eta, losses)

    monkeypatch.setattr(fairmw.domain, "_update_slice", watched)
    return events


def test_fairness_aware_runs_without_per_round_calls(monkeypatch):
    # fairness_aware and group_aware trials are whole-trial array passes: no
    # per-round draw, weight update or predictions, whatever the experts
    def forbidden(*args, **kw):
        raise AssertionError("per-round call in an array-pass trial")

    monkeypatch.setattr(engines, "_sample", forbidden)
    monkeypatch.setattr(fairmw.domain, "_update_slice", forbidden)
    monkeypatch.setattr(SyntheticEnsemble, "round_predictions", forbidden)
    monkeypatch.setattr(MatrixEnsemble, "round_predictions", forbidden)
    for engine in ("fairness_aware", "group_aware"):
        for experts in (None, np.random.default_rng(3).integers(0, 2, size=(300, 3))):
            cfg, stream, ens = fair_case(300, experts=experts, engine=engine,
                                         q_recompute_stride=3)
            traj = run_trial(cfg, stream, ens)
            assert traj.T == 300 and np.all(np.isfinite(traj.expected))
    # mw deliberately stays on its per-round loop: one prediction draw per round
    monkeypatch.undo()
    rounds = []
    predict = SyntheticEnsemble.round_predictions

    def counting(self, t, *args):
        rounds.append(t)
        return predict(self, t, *args)

    monkeypatch.setattr(SyntheticEnsemble, "round_predictions", counting)
    cfg, stream, ens = fair_case(300, engine="mw")
    run_trial(cfg, stream, ens)
    assert rounds == list(range(1, 301))


def cell_kernel(cfg, stream, ens, trial=0):
    """A trial of any engine through the array passes: ``run_trial`` with
    its mw loop replaced by ``_cell_trial``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engines, "_mw_rounds", functools.partial(engines._cell_trial, cfg))
        return run_trial(cfg, stream, ens, trial)


def golden_group_aware(tmp_path):
    """The golden group_aware case's config and ensemble, and its stream of
    a trial as ``fairmw run`` draws it."""
    (tmp_path / "exp.cfg").write_text(GOLDEN_CASES["group_aware"][0], encoding="utf-8")
    payload = prepare_payload(build_spec(parse_config(tmp_path / "exp.cfg")))
    cfg = payload.run

    def stream(trial):
        rng = np.random.default_rng(trial_seed_sequence(cfg.seed, trial)[0])
        return synth_stream(*payload.stream_params, cfg.horizon, rng)
    return cfg, stream, payload.ensemble


@pytest.mark.parametrize("engine, kernel", [("group_aware", run_trial), ("mw", cell_kernel),
                                            ("mw", run_trial)],
                         ids=["group_aware", "mw", "mw_loop"])
@pytest.mark.parametrize("T, kw", [
    ("golden", {}),
    # every expert mostly wrong at eta's cap: the reference floors and rescales
    (4000, dict(eta=0.49, experts=[ErrorProfile(e, e, e, e) for e in (1.0, 0.6, 0.9)],
                hits=dict(floor=1, rescale=1))),
    # 16 experts: cells span more than one 4096-row weight_states pass, and rescale
    (20000, dict(eta=0.3, hits=dict(rescale=3), experts=[
        ErrorProfile(*np.random.default_rng(8).uniform(0.3, 0.6, 4)) for _ in range(16)])),
    (500, dict(experts=np.random.default_rng(3).integers(0, 2, size=(500, 4)))),
    (300, dict(only_a=True)),
    (1, {}),
    (2, {}),
])
def test_cell_kernel_matches_per_round_reference(engine, kernel, T, kw, monkeypatch,
                                                  tmp_path):
    # the per-round loop drew each round's expert from its cell with one
    # engine-rng call and updated one cell of its weight table; the array
    # passes and mw's loop must give every column, aggregate and series bit
    # for bit (group_aware and mw_loop through run_trial, mw through the
    # array passes)
    kw = dict(kw)
    hits, only_a = kw.pop("hits", {}), kw.pop("only_a", False)
    events = watch_weight_updates(monkeypatch)
    if T == "golden":
        cfg, streams, ens = golden_group_aware(tmp_path)
        cfg = dataclasses.replace(cfg, engine=engine)
    else:
        cfg, stream, ens = fair_case(T, engine=engine, **kw)
        if only_a:
            stream = (np.zeros_like(stream[0]), stream[1])
        streams = lambda trial: stream    # noqa: E731
    for trial in (0, 1):
        got = kernel(cfg, streams(trial), ens, trial)
        assert_same_trial(got, scalar_reference.cell_trial(cfg, streams(trial), ens, trial))
        if only_a:
            assert got.counts[Group.B].sum() == 0
    for name, least in hits.items():
        assert events[name] >= least, events


def test_fairness_aware_solves_q_in_blocks(monkeypatch):
    # one batched solve per Q_BLOCK stride points, each checked once by
    # check_q, and no other q check per trial; qopt has no one-system solve
    # left to call
    assert qopt.__all__ == ["assemble_systems", "solve_q_batch"]
    calls = []
    batched = engines.solve_q_batch

    def counting(a, b, lam):
        calls.append(len(a))
        return batched(a, b, lam)

    checked = []
    check = qopt.check_q

    def counting_check(q):
        checked.append(len(q))
        return check(q)

    monkeypatch.setattr(engines, "solve_q_batch", counting)
    monkeypatch.setattr(qopt, "check_q", counting_check)
    cfg, stream, ens = fair_case(300, q_recompute_stride=2)
    points = (300 - 1) // 2
    traj = run_trial(cfg, stream, ens)
    assert calls == [points] and checked == [points]
    # a small block splits the solves and leaves every output as it was
    calls.clear()
    checked.clear()
    monkeypatch.setattr(engines, "Q_BLOCK", 40)
    assert_same_trial(run_trial(cfg, stream, ens), traj)
    assert calls == checked == [40, 40, 40, points - 120]   # ceil(points / 40) calls
