import json
import math

import numpy as np
import pytest

from fairmw.domain import (
    Example,
    Group,
    NEG,
    POS,
    QDistribution,
    RunConfig,
)
from fairmw.engines import CELL_MAP, EngineState, Trajectory, run_trial, step
from fairmw.errors import EmptyStream, StreamExhausted
from fairmw.experts import ErrorProfile, FileEnsemble, SyntheticEnsemble


def make_stream(pattern, reps=1):
    """'A+ B- ...' shorthand for a list of featureless examples."""
    out = []
    for token in pattern.split() * reps:
        g = Group.A if token[0] == "A" else Group.B
        out.append(Example(g, POS if token[1] == "+" else NEG))
    return out


def file_ensemble(rows):
    matrix = np.array(rows, dtype=np.int8)
    names = [f"f{i}" for i in range(matrix.shape[1])]
    return FileEnsemble(names, matrix)


def preds(*values):
    return np.array(values, dtype=np.int8)


def test_mw_step_hand_example():
    state = EngineState.fresh("mw", 2, 0.5)
    table, _, losses, expected, right = step(
        state, preds(1, 0), Group.A, POS, np.random.default_rng(0))
    assert expected == 0.5 and right == 0.5
    assert table == -1
    assert np.array_equal(losses, [0.0, 1.0])
    assert np.array_equal(state.weights.slice(), [1.0, 0.5])
    assert state.estimates is None


def test_step_zero_one_losses():
    # losses are 1.0 exactly where an expert's prediction misses the label
    state = EngineState.fresh("mw", 4, 0.3)
    _, _, losses, _, _ = step(state, preds(1, 0, 1, 0), Group.B, POS,
                              np.random.default_rng(0))
    assert losses.dtype == np.float64
    assert losses.tolist() == [0.0, 1.0, 0.0, 1.0]
    _, _, losses, _, _ = step(state, preds(1, 0, 1, 0), Group.B, NEG,
                              np.random.default_rng(0))
    assert losses.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_mw_unanimous_correct_round_keeps_weights():
    state = EngineState.fresh("mw", 3, 0.3)
    before = state.weights.array.copy()
    step(state, preds(1, 1, 1), Group.B, POS, np.random.default_rng(1))
    assert np.array_equal(state.weights.array, before)


def test_mw_sampling_ignores_floored_expert():
    # with weights (1, 1e-300) the cumulative mass at index 0 already
    # equals the total, so the first expert is drawn
    state = EngineState.fresh("mw", 2, 0.1)
    state.weights.slice()[:] = (1.0, 1e-300)
    rng = np.random.default_rng(7)
    for _ in range(200):
        _, chosen, _, _, _ = step(state, preds(1, 0), Group.A, POS, rng)
        assert chosen == 0
        state.weights.slice()[:] = (1.0, 1e-300)


def test_cell_map_addresses_one_cell_per_round():
    # mw reads and updates (A,-) whatever arrives, group_aware (g,-) and
    # fairness_aware (g,y); every other cell keeps its bit pattern
    arrivals = [(Group.A, NEG), (Group.A, POS), (Group.B, NEG), (Group.B, POS)]
    q = QDistribution.uniform()
    for engine, (by_group, by_label) in CELL_MAP.items():
        for g, y in arrivals:
            state = EngineState.fresh(engine, 2, 0.4)
            step(state, preds(1 - y, y), g, y, np.random.default_rng(0), q)
            cell = (g if by_group else Group.A, y if by_label else NEG)
            moved = {(gg, yy) for gg in (0, 1) for yy in (0, 1)
                     if not np.array_equal(state.weights.array[gg, yy], [1.0, 1.0])}
            assert moved == {cell}, (engine, g, y)


def test_group_aware_updates_only_arriving_group():
    state = EngineState.fresh("group_aware", 2, 0.4)
    before_b = state.weights.slice(Group.B).copy()
    step(state, preds(0, 1), Group.A, POS, np.random.default_rng(2))
    assert np.array_equal(state.weights.slice(Group.B), before_b)
    assert not np.array_equal(state.weights.slice(Group.A), [1.0, 1.0])


def test_group_aware_matches_mw_on_filtered_subsequence():
    # weights and expected losses are rng-free, so the A slice of an
    # interleaved run must match a plain mw run over just the A rounds
    rng = np.random.default_rng(11)
    rounds = [(Group(int(rng.integers(0, 2))), int(rng.integers(0, 2)),
               rng.integers(0, 2, size=3).astype(np.int8)) for _ in range(40)]
    ga = EngineState.fresh("group_aware", 3, 0.25)
    mw = EngineState.fresh("mw", 3, 0.25)
    expected_ga, expected_mw = [], []
    for g, y, p in rounds:
        out = step(ga, p, g, y, np.random.default_rng(0))
        if g == Group.A:
            expected_ga.append(out[3])
            expected_mw.append(step(mw, p, g, y, np.random.default_rng(0))[3])
    assert expected_ga == expected_mw
    assert np.array_equal(ga.weights.slice(Group.A), mw.weights.slice())


def test_rmw_updates_only_true_label_slice():
    state = EngineState.fresh("fairness_aware", 2, 0.5)
    before = {(g, y): state.weights.slice(g, y).copy()
              for g in (Group.A, Group.B) for y in (NEG, POS)}
    step(state, preds(1, 0), Group.A, POS, np.random.default_rng(3),
         QDistribution.uniform())
    for g in (Group.A, Group.B):
        for y in (NEG, POS):
            same = np.array_equal(state.weights.slice(g, y), before[(g, y)])
            assert same == ((g, y) != (Group.A, POS))


def test_rmw_step_hand_example():
    state = EngineState.fresh("fairness_aware", 2, 0.5)
    table, _, _, expected, right = step(state, preds(1, 0), Group.A, POS,
                                        np.random.default_rng(4), QDistribution.uniform())
    # both slices are uniform, so either table gives expected loss 1/2
    assert expected == 0.5
    assert right == 0.5
    assert table in (NEG, POS)
    assert np.array_equal(state.weights.slice(Group.A, POS), [1.0, 0.5])
    # the wrong-table loss equals the right-table loss: zero alpha gap
    assert np.array_equal(state.alphas.sums, np.zeros((2, 2)))
    assert state.estimates.counts.tolist() == [[0, 1], [0, 0]]


def test_rmw_alpha_accumulates_cross_table_gap():
    state = EngineState.fresh("fairness_aware", 2, 0.5)
    rng = np.random.default_rng(5)
    q = QDistribution.uniform()
    step(state, preds(1, 0), Group.A, POS, rng, q)
    _, _, _, expected, right = step(state, preds(1, 0), Group.A, POS, rng, q)
    # second round: right slice (1, 0.5) gives 1/3, wrong slice stays 1/2
    assert abs(right - 1.0 / 3.0) < 1e-15
    assert expected == 0.5 * right + 0.5 * 0.5
    assert abs(state.alphas.sums[Group.A, NEG] - (0.5 - 1.0 / 3.0)) < 1e-15
    assert state.alphas.sums[Group.A, POS] == 0.0
    assert np.all(state.alphas.sums[Group.B] == 0.0)


def test_rmw_degenerate_q_reduces_to_mw_on_slice():
    # q_{A,+} = 1 on an all-(A,+) stream touches only that slice, so the
    # expected-loss series and final weights equal plain mw
    q = QDistribution(0.0, 0.5, 1.0, 0.5)
    rng = np.random.default_rng(6)
    rmw = EngineState.fresh("fairness_aware", 3, 0.2)
    mw = EngineState.fresh("mw", 3, 0.2)
    for _ in range(30):
        p = rng.integers(0, 2, size=3).astype(np.int8)
        out_r = step(rmw, p, Group.A, POS, np.random.default_rng(0), q)
        out_m = step(mw, p, Group.A, POS, np.random.default_rng(0))
        assert out_r[3] == out_m[3]
    assert np.array_equal(rmw.weights.slice(Group.A, POS), mw.weights.slice())


def test_rmw_table_draw_follows_q():
    q = QDistribution(1.0, 0.5, 0.0, 0.5)  # group A always draws the negative table
    state = EngineState.fresh("fairness_aware", 2, 0.3)
    rng = np.random.default_rng(8)
    for _ in range(50):
        table, _, _, _, _ = step(state, preds(0, 1), Group.A, POS, rng, q)
        assert table == NEG


def config(**kw):
    base = dict(engine="mw", horizon=20, eta=0.3, seed=0, trials=1)
    base.update(kw)
    return RunConfig(**base)


def test_run_trial_empty_stream():
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1)] * 2)
    with pytest.raises(EmptyStream):
        run_trial(config(), [], ens)
    traj = run_trial(config(allow_empty=True), [], ens)
    assert traj.T == 0
    assert traj.error_rate() == 0.0


def test_run_trial_stream_too_short():
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1)] * 2)
    with pytest.raises(StreamExhausted):
        run_trial(config(horizon=50), make_stream("A+ B-"), ens)


def test_run_trial_prediction_file_too_short():
    ens = file_ensemble([[1, 0], [0, 1], [1, 1]])
    stream = make_stream("A+ B- A- B+ A+")
    with pytest.raises(StreamExhausted):
        run_trial(config(horizon=5), stream, ens)


def test_run_trial_deterministic_replay():
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                             ErrorProfile(0.1, 0.1, 0.4, 0.4),
                             ErrorProfile(0.2, 0.2, 0.2, 0.2)])
    stream = make_stream("A+ B- A- B+ A+ A- B- B+ A+ B-", reps=4)
    cfg = config(engine="fairness_aware", horizon=40, trials=1, q_recompute_stride=3)
    dumps = [json.dumps(run_trial(cfg, stream, ens, trial=2).to_dict(), sort_keys=True)
             for _ in range(2)]
    assert dumps[0] == dumps[1]
    other = json.dumps(run_trial(cfg, stream, ens, trial=3).to_dict(), sort_keys=True)
    assert other != dumps[0]


def test_run_trial_group_isolation():
    # dropping the B rounds (with their prediction rows) leaves every A-round
    # expected loss identical under group_aware
    rng = np.random.default_rng(13)
    stream = make_stream("A+ B- A- A+ B+ A- B- A+ A- A+")
    rows = rng.integers(0, 2, size=(10, 3))
    full = run_trial(config(engine="group_aware", horizon=10), stream,
                     file_ensemble(rows))
    a_idx = [i for i, e in enumerate(stream) if e.group == Group.A]
    only_a = run_trial(config(engine="group_aware", horizon=len(a_idx)),
                       [stream[i] for i in a_idx], file_ensemble(rows[a_idx]))
    assert full.expected[a_idx].tolist() == only_a.expected.tolist()


def test_trajectory_loss_decompositions():
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                             ErrorProfile(0.1, 0.1, 0.4, 0.4)])
    stream = make_stream("A+ B- A- B+ A+ A- B- B+", reps=10)
    traj = run_trial(config(engine="fairness_aware", horizon=80), stream, ens)
    assert abs(traj.L_z.sum() - traj.L_expected) < 1e-9
    assert abs(traj.L_zy.sum() - traj.L_expected) < 1e-9
    assert np.allclose(traj.L_fz.sum(axis=0), traj.L_f, atol=1e-9)
    assert np.allclose(traj.L_fzy.sum(axis=(0, 1)), traj.L_f, atol=1e-9)
    assert int(traj.counts.sum()) == 80
    assert int(traj.confusion.sum()) == 80
    # right-table running sums match a replay over the recorded rounds
    replay = np.zeros((2, 2))
    for i in range(traj.T):
        replay[traj.group[i], traj.label[i]] += traj.right_step[i]
    assert np.allclose(replay, traj.right_table_cum, atol=1e-12)


def test_trajectory_q_series_validity():
    ens = SyntheticEnsemble([ErrorProfile(0.4, 0.1, 0.1, 0.4),
                             ErrorProfile(0.1, 0.4, 0.4, 0.1)])
    stream = make_stream("A+ B- A- B+ B- A+ A- B+", reps=15)
    traj = run_trial(config(engine="fairness_aware", horizon=120,
                            q_recompute_stride=5), stream, ens)
    q = traj.q_used
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert np.allclose(q[:, 0] + q[:, 2], 1.0, atol=1e-9)
    assert np.allclose(q[:, 1] + q[:, 3], 1.0, atol=1e-9)
    # round 1 is uniform and q only changes when (t-1) % stride == 0
    assert q[0].tolist() == [0.5, 0.5, 0.5, 0.5]
    for i in range(1, traj.T):
        t = i + 1
        if (t - 1) % 5 != 0:
            assert q[i].tolist() == q[i - 1].tolist()
    assert traj.q_final.as_vector() == tuple(q[-1].tolist())


def test_trajectory_regret_series():
    ens = SyntheticEnsemble([ErrorProfile(0.1, 0.1, 0.1, 0.1),
                             ErrorProfile(0.45, 0.45, 0.45, 0.45)])
    stream = make_stream("A+ B- A- B+", reps=50)
    traj = run_trial(config(horizon=200, eta=None), stream, ens)
    best = traj.L_f.min()
    assert abs(traj.regret_expected[-1] - (traj.L_expected - best)) < 1e-9
    assert abs(traj.regret_realized[-1] - (traj.L_realized - best)) < 1e-9
    # eta=None resolves to the recommended schedule, recorded on the trajectory
    assert 0.0 < traj.eta < 0.5


def test_trajectory_round_columns():
    # what record() is handed for each round comes back from the columns
    traj = Trajectory("fairness_aware", 0.3, ["f0", "f1"], 3)
    q = QDistribution(0.3, 0.6, 0.7, 0.4)
    rows = [(Group.A, POS, NEG, 1, 1, 0.0, 0.4, (1.0, 0.0), 0.25),
            (Group.B, NEG, POS, 0, 1, 1.0, 0.6, (1.0, 1.0), 0.5),
            (Group.B, POS, POS, 1, 0, 1.0, 0.7, (0.0, 1.0), 0.75)]
    for t, (g, y, table, e, p, real, exp, losses, right) in enumerate(rows, start=1):
        traj.record(t, g, y, e, p, real, exp, np.array(losses), table, right, q)
    assert len(traj) == 3
    assert traj.group.tolist() == [0, 1, 1]
    assert traj.label.tolist() == [1, 0, 1]
    assert traj.table.tolist() == [0, 1, 1]
    assert traj.expert.tolist() == [1, 0, 1]
    assert traj.prediction.tolist() == [1, 1, 0]
    assert traj.realized.tolist() == [0.0, 1.0, 1.0]
    assert traj.expected.tolist() == [0.4, 0.6, 0.7]
    assert traj.q_used.tolist() == [list(q.as_vector())] * 3
    assert traj.right_step.tolist() == [0.25, 0.5, 0.75]
    assert traj.right_table_cum.tolist() == [[0.0, 0.25], [0.5, 0.75]]
    assert traj.L_f.tolist() == [2.0, 2.0]
    assert traj.L_fzy[Group.B, NEG].tolist() == [1.0, 1.0]
    assert traj.confusion.tolist() == [[1, 0, 0, 0], [0, 1, 0, 1]]

    # a real run: columns agree with the stream and with each other
    ens = SyntheticEnsemble([ErrorProfile(0.2, 0.3, 0.4, 0.1),
                             ErrorProfile(0.3, 0.1, 0.2, 0.4)])
    stream = make_stream("A+ B- A- B+ A- B+")
    traj = run_trial(config(engine="fairness_aware", horizon=6), stream, ens)
    assert traj.group.tolist() == [int(e.group) for e in stream]
    assert traj.label.tolist() == [e.label for e in stream]
    assert np.all((traj.table == NEG) | (traj.table == POS))
    assert np.all(np.isfinite(traj.q_used))
    wrong = traj.prediction != traj.label
    assert traj.realized.tolist() == wrong.astype(float).tolist()


def test_group_error_rates():
    traj = Trajectory("mw", 0.3, ["f0", "f1"], 4)
    rows = [(Group.A, POS, 1), (Group.A, POS, 0), (Group.B, NEG, 0), (Group.B, NEG, 0)]
    for t, (g, y, pred) in enumerate(rows, start=1):
        losses = np.array([float(pred != y), 0.0])
        traj.record(t, g, y, expert=0, prediction=pred, realized=float(pred != y),
                    expected=0.0, losses=losses)
        assert traj.table[t - 1] == -1
    err_a, err_b = traj.group_error_rates()
    assert err_a == 0.5  # one miss out of two A rounds
    assert err_b == 0.0
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
        stream = [Example(Group(int(rng.integers(0, 2))), int(rng.integers(0, 2)))
                  for _ in range(T)]
        traj = run_trial(config(horizon=T, eta=eta, seed=int(rng.integers(1 << 30))),
                         stream, SyntheticEnsemble(profiles))
        bound = (1.0 + eta) * traj.L_f.min() + math.log(d) / eta
        assert traj.L_expected <= bound + 1e-9
