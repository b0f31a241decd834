import numpy as np

from fairmw.domain import Group, NEG, POS
from fairmw.engines import EngineState, step
from fairmw.estimators import (
    AlphaTracker,
    RateEstimates,
    dirichlet_rate,
    smoothed_rates,
)


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
    est = RateEstimates(dirichlet_alpha=1.0)
    for _ in range(3):
        est.update(Group.A, POS)
    est.update(Group.A, NEG)
    # (3 + 1) / (4 + 2) inside group A only
    assert est.mu_hat(Group.A) == 2 / 3
    # group B has no data: symmetric prior gives 1/2
    assert est.mu_hat(Group.B) == 0.5


def test_rate_estimates_invariants():
    rng = np.random.default_rng(8)
    est = RateEstimates(dirichlet_alpha=1.0)
    for _ in range(500):
        est.update(Group(int(rng.integers(0, 2))), int(rng.integers(0, 2)))
    assert est.counts.sum() == est.t == 500
    cells = dirichlet_rate(est.counts, est.t, est.alpha)
    assert abs(cells.sum() - 1.0) <= 1e-12
    assert np.all((cells > 0) & (cells < 1))
    assert 0.0 < est.p_hat < 1.0


def test_dirichlet_convergence_single_seed():
    truth = np.array([[0.4, 0.25], [0.2, 0.15]])
    rng = np.random.default_rng(123)
    est = RateEstimates(dirichlet_alpha=1.0)
    flat = truth.ravel()
    for idx in rng.choice(4, size=10000, p=flat):
        est.update(Group(int(idx) // 2), int(idx) % 2)
    assert np.max(np.abs(dirichlet_rate(est.counts, est.t, est.alpha) - truth)) <= 0.02


def alpha_step(state, losses, group, label):
    """The alpha contributions of one fairness_aware step, [group, label].

    Every expert predicts the label exactly where its loss is 0, so the
    step sees these losses; the step never reads q, and the uniform only
    picks the candidate experts.
    """
    before = state.alphas.sums.copy()
    predictions = np.where(np.asarray(losses) > 0, 1 - label, label).astype(np.int8)
    step(state, predictions, group, label, 0.5)
    return state.alphas.sums - before


def test_alpha_step_examples():
    state = EngineState.fresh("fairness_aware", 2, 0.3)
    # identical slices -> zero gap regardless of losses
    out = alpha_step(state, [1.0, 0.0], Group.A, POS)
    assert np.all(out == 0.0)

    state.weights.array[Group.A, POS] = (1.0, 3.0)
    state.weights.array[Group.A, NEG] = (3.0, 1.0)
    out = alpha_step(state, [1.0, 0.0], Group.A, POS)
    assert out[Group.A, NEG] == 0.5
    assert out[Group.A, POS] == 0.0
    assert np.all(out[Group.B] == 0.0)

    # all experts correct this round
    out = alpha_step(state, [0.0, 0.0], Group.A, POS)
    assert np.all(out == 0.0)


def test_alpha_step_bounded():
    rng = np.random.default_rng(4)
    for _ in range(200):
        state = EngineState.fresh("fairness_aware", 3, 0.3)
        for g in (Group.A, Group.B):
            for y in (NEG, POS):
                state.weights.array[g, y] = rng.uniform(0.01, 1.0, size=3)
        losses = (rng.random(3) < 0.5).astype(float)
        g = Group(int(rng.integers(0, 2)))
        y = int(rng.integers(0, 2))
        out = alpha_step(state, losses, g, y)
        assert np.all(np.abs(out) <= 1.0)
        # only the arriving group's wrong-label cell can be nonzero
        mask = np.zeros((2, 2), dtype=bool)
        mask[g, 1 - y] = True
        assert np.all(out[~mask] == 0.0)


def test_alpha_tracker_replay_equality():
    # the step's running sums equal a replay of the per-round gaps taken
    # from pre-update weights
    rng = np.random.default_rng(6)
    state = EngineState.fresh("fairness_aware", 3, 0.2)
    expected = np.zeros((2, 2))
    for _ in range(100):
        losses = (rng.random(3) < 0.4).astype(float)
        g = Group(int(rng.integers(0, 2)))
        y = int(rng.integers(0, 2))
        w_right = state.weights.slice(g, y).copy()
        w_wrong = state.weights.slice(g, 1 - y).copy()
        expected[g, 1 - y] += (float(w_wrong @ losses) / float(w_wrong.sum())
                               - float(w_right @ losses) / float(w_right.sum()))
        alpha_step(state, losses, g, y)
    assert np.array_equal(state.alphas.sums, expected)


def test_alpha_tracker_add_matches_record():
    state = EngineState.fresh("fairness_aware", 2, 0.3)
    state.weights.array[Group.B, NEG] = (0.2, 0.8)
    state.weights.array[Group.B, POS] = (0.7, 0.3)
    losses = np.array([1.0, 0.0])
    e_right = float(state.weights.array[Group.B, NEG] @ losses)
    e_wrong = float(state.weights.array[Group.B, POS] @ losses)
    alpha_step(state, losses, Group.B, NEG)
    via_add = AlphaTracker()
    via_add.add(Group.B, POS, e_wrong - e_right)
    assert np.array_equal(state.alphas.sums, via_add.sums)


def test_sums_vector_canonical_order():
    tracker = AlphaTracker()
    tracker.add(Group.A, NEG, 0.1)
    tracker.add(Group.B, NEG, 0.2)
    tracker.add(Group.A, POS, 0.3)
    tracker.add(Group.B, POS, 0.4)
    assert tracker.sums_vector().tolist() == [0.1, 0.2, 0.3, 0.4]


def test_smoothed_rates_batch_matches_running_estimates():
    # batched rates at every prefix equal the running estimator's and the
    # textbook formulas in Python floats, bitwise
    rng = np.random.default_rng(8)
    a = 0.3
    est = RateEstimates(dirichlet_alpha=a)
    snapshots, p_hat, mu = [], [], []
    for _ in range(200):
        c = est.counts
        t_a, t_b = float(c[0].sum()), float(c[1].sum())
        p_hat.append((t_a + 2.0 * a) / (est.t + 4.0 * a))
        mu.append([(float(c[0, 1]) + a) / (t_a + 2.0 * a),
                   (float(c[1, 1]) + a) / (t_b + 2.0 * a)])
        assert (est.p_hat, [est.mu_hat(Group.A), est.mu_hat(Group.B)]) == (p_hat[-1], mu[-1])
        snapshots.append(c.copy())
        est.update(Group(int(rng.integers(0, 2))), int(rng.random() < 0.3))
    batch_p, batch_mu = smoothed_rates(np.array(snapshots), a)
    assert batch_p.tolist() == p_hat
    assert batch_mu.tolist() == mu
