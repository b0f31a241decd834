"""The fairness_aware estimates: smoothed arrival rates and alpha gap sums.

The engine keeps no running estimator objects: ``engines._table_rounds``
gives each round's right- and wrong-table expected losses, and the trial
takes the alpha sums and the (group, label) counts as prefix sums of them.
These tests check the rates, the per-round gaps, and the sums and counts a
trial reports against round-by-round replays.
"""

import numpy as np

from fairmw import engines
from fairmw.domain import NEG, POS, Group, RunConfig, _update_slice, weight_states
from fairmw.engines import run_trial
from fairmw.estimators import smoothed_rates
from fairmw.experts import ErrorProfile, SyntheticEnsemble
from scalar_reference import dirichlet_rate, stream_of


def test_frequentist_examples():
    # with no prior mass the posterior predictive is the plain c/t rate
    counts = np.array([[0, 3], [0, 0]])
    rates = dirichlet_rate(counts, 10, 0.0)
    assert rates[Group.A, POS] == 0.3
    one_cell = np.array([[0, 0], [5, 0]])
    rates = dirichlet_rate(one_cell, 5, 0.0)
    assert rates[Group.B, NEG] == 1.0
    assert rates.sum() == 1.0


def test_dirichlet_symmetric_prior():
    rates = dirichlet_rate(np.zeros((2, 2)), 0, 1.0)
    assert np.allclose(rates, 0.25, atol=0)


def test_dirichlet_cell_rate_values():
    # (c + alpha) / (t + 4 alpha), exactly
    counts = np.array([[0, 9998], [2, 0]])
    rates = dirichlet_rate(counts, 10000, 1.0)
    assert rates[Group.A, POS] == 9999 / 10004
    counts[Group.A, POS] = 9999
    counts[Group.B, NEG] = 1
    rates = dirichlet_rate(counts, 10000, 1.0)
    assert abs(rates[Group.A, POS] - 0.99960) < 1e-5


def test_dirichlet_matches_frequentist_at_tiny_prior():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 50, size=(2, 2))
    t = int(counts.sum())
    diff = dirichlet_rate(counts, t, 1e-12) - counts / t
    assert np.max(np.abs(diff)) <= 1e-9


def test_mu_hat_group_conditional():
    # three (A,+) and one (A,-) arrival: (3 + 1) / (4 + 2) inside group A
    # only; group B has no data, and the symmetric prior gives 1/2
    p_hat, mu_hat = smoothed_rates(np.array([[1, 3], [0, 0]]), 1.0)
    assert mu_hat.tolist() == [2 / 3, 0.5]
    assert p_hat == (4 + 2) / (4 + 4)


def fair_trial(T, seed=8, **kw):
    rng = np.random.default_rng(seed)
    stream = stream_of([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                        for _ in range(T)])
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.1, 0.4),
                             ErrorProfile(0.1, 0.35, 0.4, 0.1),
                             ErrorProfile(0.25, 0.25, 0.2, 0.3)])
    cfg = RunConfig(**{**dict(engine="fairness_aware", horizon=T, eta=0.3), **kw})
    return cfg, stream, ens


def test_rate_estimates_invariants():
    # a trial's final estimates are the smoothed rates of its arrival counts
    cfg, stream, ens = fair_trial(500)
    traj = run_trial(cfg, stream, ens)
    assert traj.counts.sum() == 500
    cells = dirichlet_rate(traj.counts, 500, 1.0)
    assert abs(cells.sum() - 1.0) <= 1e-12
    assert np.all((cells > 0) & (cells < 1))
    p_hat, mu_hat = smoothed_rates(traj.counts, 1.0)
    assert 0.0 < p_hat < 1.0 and np.all((mu_hat > 0) & (mu_hat < 1))
    # p_hat is group A's share of the cell rates, mu_hat[z] its positive share
    assert abs(p_hat - cells[Group.A].sum()) <= 1e-15
    assert np.allclose(mu_hat, cells[:, POS] / cells.sum(axis=1), rtol=0, atol=1e-15)


def test_dirichlet_convergence_single_seed():
    truth = np.array([[0.4, 0.25], [0.2, 0.15]])
    rng = np.random.default_rng(123)
    counts = np.bincount(rng.choice(4, size=10000, p=truth.ravel()), minlength=4)
    assert np.max(np.abs(dirichlet_rate(counts.reshape(2, 2), 10000, 1.0) - truth)) <= 0.02


def alpha_gaps(eta, cells, losses):
    """The alpha gap wrong - right of every round of a fairness_aware
    history: the expected loss of the group's other-label table minus that
    of the arrival's own table, both before the round's update."""
    cells = np.asarray(cells, dtype=np.int8)
    loss, _ = engines._table_rounds(eta, cells, [cells & 2, cells | 1],
                                    np.asarray(losses, dtype=float), np.full(len(cells), 0.5))
    rows = np.arange(len(cells))
    return loss[rows, 1 - (cells & 1)] - loss[rows, cells & 1]


A_NEG, A_POS, B_NEG, B_POS = range(4)   # cells 2 * group + label


def test_alpha_step_examples():
    gaps = alpha_gaps(0.5, [A_NEG, A_POS, A_POS, A_POS], [[0, 1], [1, 0], [1, 0], [0, 0]])
    # identical (uniform) slices -> zero gap regardless of losses
    assert gaps[0] == 0.0
    # (A,-) is (1, 0.5) after round 1 and (A,+) (0.5, 1) after round 3:
    # round 3 reads wrong 1 / 1.5 and right 0.5 / 1.5
    assert gaps[1] == 2 / 3 - 0.5
    assert gaps[2] == 2 / 3 - 1 / 3
    # all experts correct this round
    assert gaps[3] == 0.0


def test_alpha_step_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        cells = rng.integers(0, 4, size=200)
        losses = rng.random((200, 3)) < 0.5
        assert np.all(np.abs(alpha_gaps(rng.uniform(0.01, 0.49), cells, losses)) <= 1.0)


def test_alpha_tracker_replay_equality():
    # a trial's alpha sums and counts equal a round-by-round replay that adds
    # each gap, taken from pre-update weights, to the arrival's other-label
    # cell; no other cell ever moves
    cfg, stream, ens = fair_trial(300, seed=6, q_recompute_stride=3)
    traj = run_trial(cfg, stream, ens)
    weights = np.ones((2, 2, 3))    # [group, label, expert]
    alpha = np.zeros((2, 2))
    counts = np.zeros((2, 2), dtype=np.int64)
    for i in range(traj.T):
        g, y = divmod(int(traj.cell[i]), 2)
        w_right, w_wrong = weights[g, y], weights[g, 1 - y]
        alpha[g, 1 - y] += (float(w_wrong @ traj.losses[i]) / float(w_wrong.sum())
                            - float(w_right @ traj.losses[i]) / float(w_right.sum()))
        counts[g, y] += 1
        _update_slice(w_right, cfg.eta, traj.losses[i])
    assert traj.alpha_sums.tobytes() == alpha.tobytes()
    assert traj.counts.tolist() == counts.tolist()


def test_alpha_tracker_add_matches_record():
    # every gap is the wrong-table loss minus the right one, from each
    # cell's weight_states row after that cell's earlier rounds
    rng = np.random.default_rng(9)
    cells = rng.integers(0, 4, size=120)
    losses = (rng.random((120, 3)) < 0.4).astype(float)
    gaps = alpha_gaps(0.3, cells, losses)
    states = [weight_states(0.3, losses[cells == c]) for c in range(4)]
    seen = [0, 0, 0, 0]
    for i, c in enumerate(cells):
        w_right, w_wrong = states[c][seen[c]], states[c ^ 1][seen[c ^ 1]]
        e_right = float(w_right @ losses[i]) / float(w_right.sum())
        e_wrong = float(w_wrong @ losses[i]) / float(w_wrong.sum())
        assert gaps[i] == e_wrong - e_right
        seen[c] += 1


def test_sums_vector_canonical_order(monkeypatch):
    # q is assembled from the sums in canonical cell order (A,-), (B,-),
    # (A,+), (B,+).  The one stride point of a T-round trial at stride T - 1
    # reads the sums after round T - 1, which a (T - 1)-round trial reports.
    seen = []
    assemble = engines.assemble_systems

    def recording(alpha_sums, *args):
        seen.append(alpha_sums.copy())
        return assemble(alpha_sums, *args)

    monkeypatch.setattr(engines, "assemble_systems", recording)
    cfg, stream, ens = fair_trial(41, q_recompute_stride=40)
    run_trial(cfg, stream, ens)
    sums = run_trial(RunConfig(**{**vars(cfg), "horizon": 40}), stream, ens).alpha_sums
    assert len(seen) == 1 and np.all(sums != 0.0)
    assert seen[0].tolist() == [[sums[Group.A, NEG], sums[Group.B, NEG],
                                 sums[Group.A, POS], sums[Group.B, POS]]]


def test_smoothed_rates_batch_matches_running_estimates():
    # batched rates at every prefix equal the textbook formulas in Python
    # floats, bitwise
    rng = np.random.default_rng(8)
    a = 0.3
    counts = np.zeros((2, 2), dtype=np.int64)
    snapshots, p_hat, mu = [], [], []
    for t in range(200):
        t_a, t_b = float(counts[0].sum()), float(counts[1].sum())
        p_hat.append((t_a + 2.0 * a) / (t + 4.0 * a))
        mu.append([(float(counts[0, 1]) + a) / (t_a + 2.0 * a),
                   (float(counts[1, 1]) + a) / (t_b + 2.0 * a)])
        snapshots.append(counts.copy())
        counts[int(rng.integers(0, 2)), int(rng.random() < 0.3)] += 1
    batch_p, batch_mu = smoothed_rates(np.array(snapshots), a)
    assert batch_p.tolist() == p_hat
    assert batch_mu.tolist() == mu
