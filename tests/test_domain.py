import dataclasses
import json
import math

import numpy as np
import pytest

from fairmw.domain import (
    CONFIG_KEY,
    CONFIG_KEYS,
    ENGINES,
    NEG,
    POS,
    Group,
    RESCALE_THRESHOLD,
    RunConfig,
    WEIGHT_FLOOR,
    _update_slice,
    gamma,
    recommended_eta,
    trial_seed_sequence,
    weight_states,
)
from fairmw.errors import ConfigError, FairmwError
from fairmw.estimators import smoothed_rates


def test_recommended_eta_examples():
    assert abs(recommended_eta(10000, 3) - 0.010482) < 1e-6
    assert recommended_eta(4, 16) == 0.49
    assert recommended_eta(1, 2) == 0.49


def test_recommended_eta_errors():
    with pytest.raises(FairmwError, match="need at least 2 experts, got 1"):
        recommended_eta(100, 1)
    with pytest.raises(ConfigError, match="horizon must be >= 1, got 0"):
        recommended_eta(0, 5)


def test_recommended_eta_below_half():
    rng = np.random.default_rng(11)
    for _ in range(200):
        T = int(rng.integers(1, 100000))
        d = int(rng.integers(2, 200))
        eta = recommended_eta(T, d)
        assert 0.0 < eta < 0.5


def mw_weight_update(w, eta, loss):
    """One weight through _update_slice, next to an expert pinned at 1.0.

    The pinned expert (loss 0) keeps the slice maximum at 1.0, so the
    power-of-two rescale never fires and the floor shows on its own.
    """
    pair = np.array([1.0, w])
    _update_slice(pair, eta, np.array([0.0, loss]))
    assert pair[0] == 1.0
    return float(pair[1])


def test_mw_weight_update_examples():
    assert mw_weight_update(1.0, 0.5, 1.0) == 0.5
    assert mw_weight_update(1.0, 0.5, 0.0) == 1.0
    assert mw_weight_update(0.5, 0.25, 1.0) == 0.375


def test_mw_weight_update_monotone_and_floored():
    rng = np.random.default_rng(3)
    w = 1.0
    for _ in range(500):
        nxt = mw_weight_update(w, rng.uniform(0.01, 0.49), rng.uniform(0.0, 1.0))
        assert WEIGHT_FLOOR <= nxt <= w <= 1.0
        w = nxt
    # floor engages instead of underflowing to zero
    assert mw_weight_update(1e-300, 0.49, 1.0) == WEIGHT_FLOOR


def test_exponent_additivity():
    # two updates with l1, l2 match one update with l1+l2 when the sum <= 1
    rng = np.random.default_rng(7)
    for _ in range(300):
        w = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.01, 0.49)
        l1 = rng.uniform(0.0, 1.0)
        l2 = rng.uniform(0.0, 1.0 - l1)
        two = mw_weight_update(mw_weight_update(w, eta, l1), eta, l2)
        one = mw_weight_update(w, eta, l1 + l2)
        assert abs(two - one) <= 1e-12


def test_cell_order_and_index():
    # position i of every canonical-order vector (q rows, the assembled
    # alpha sums) is cell (g, y) with i = 2 * y + g; the engines' cell codes
    # 2 * g + y map to it by the column order [0, 2, 1, 3]
    order = ((Group.A, NEG), (Group.B, NEG), (Group.A, POS), (Group.B, POS))
    sums = np.array([[1.0, 2.0], [3.0, 4.0]])   # [group, label]
    for i, (g, y) in enumerate(order):
        assert i == 2 * y + g
        assert sums.T.ravel()[i] == sums[g, y] == sums.ravel()[[0, 2, 1, 3]][i]


def test_weight_table_shapes():
    # a cell of a (group, label, expert) weight table is a 1-D view, which
    # _update_slice updates in place; weight_states gives its rows from ones
    table = np.ones((2, 2, 5))
    cell = table[Group.A, POS]
    assert cell.shape == (5,) and cell.base is table
    losses = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    _update_slice(cell, 0.5, losses)
    assert table[Group.A, POS].tolist() == [0.5, 1.0, 1.0, 1.0, 0.5]
    states = weight_states(0.5, losses[None])
    assert states.shape == (2, 5) and states[0].tolist() == [1.0] * 5
    assert states[1].tobytes() == cell.tobytes()


def test_weight_table_slice_isolation():
    table = np.ones((2, 2, 4))
    before = table.copy()
    _update_slice(table[Group.A, POS], 0.3, np.array([1.0, 0.0, 1.0, 0.5]))
    # only the (A,+) slice moved; every other slice is bit-identical
    for g in (Group.A, Group.B):
        for y in (NEG, POS):
            if (g, y) == (Group.A, POS):
                assert not np.array_equal(table[g, y], before[g, y])
            else:
                assert np.array_equal(table[g, y], before[g, y])


def test_weight_table_pi_normalized():
    rng = np.random.default_rng(5)
    table = np.ones((2, 6))    # one slice per group
    for _ in range(50):
        w = table[int(rng.integers(0, 2))]
        _update_slice(w, 0.2, rng.uniform(0, 1, size=6))
        pi = w / w.sum()
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.all(pi >= 0)


def test_weight_table_entries_in_unit_interval():
    rng = np.random.default_rng(9)
    table = np.ones((2, 2, 3))
    for _ in range(400):
        g, y = rng.integers(0, 2, size=2)
        _update_slice(table[g, y], 0.45, rng.uniform(0, 1, size=3))
    assert np.all((table > 0.0) & (table <= 1.0))


def test_rescale_preserves_pi_exactly():
    # push a slice's max below 2**-512 and check the selection distribution
    # is preserved bit-for-bit by the power-of-two rescale
    w = np.array([math.ldexp(1.0, -512), math.ldexp(1.0, -514)])
    _update_slice(w, 0.5, np.array([1.0, 1.0]))
    # raw update would give (2**-513, 2**-515); rescale multiplies by 2**512
    assert w.max() == 0.5
    raw = np.array([math.ldexp(1.0, -513), math.ldexp(1.0, -515)])
    assert np.array_equal(w / w.sum(), raw / raw.sum())


@pytest.mark.parametrize("d, eta, p_loss", [(3, 0.49, 0.7), (16, 0.45, 0.6), (2, 0.1, 0.5),
                                            (9, 0.3, 0.65)])
def test_weight_states_match_update_slice(d, eta, p_loss):
    # row k is bitwise the slice after k _update_slice calls, across the
    # 4096-row passes and through floors and rescales; expert 0 always
    # loses, and the first two cases floor it and rescale more than once
    rng = np.random.default_rng(d)
    losses = (rng.random((9000, d)) < p_loss).astype(float)
    losses[:, 0] = 1.0
    states = weight_states(eta, losses)
    assert states.shape == (9001, d)
    w = np.ones(d)
    floors = rescales = 0
    for k, row in enumerate(losses, start=1):
        raw = w * np.power(1.0 - eta, row)
        floors += int(np.any(raw < WEIGHT_FLOOR))
        rescales += int(np.maximum(raw, WEIGHT_FLOOR).max() < RESCALE_THRESHOLD)
        _update_slice(w, eta, row)
        assert states[k].tobytes() == w.tobytes(), k
    assert (floors > 0 and rescales > 1) == (eta > 0.2), (floors, rescales)
    assert weight_states(eta, losses[:0]).tolist() == [[1.0] * d]


def test_run_config_validation():
    cfg = RunConfig()
    assert cfg.engine in ENGINES
    with pytest.raises(ConfigError):
        RunConfig(engine="hedge")
    with pytest.raises(ConfigError):
        RunConfig(eta=0.5)
    with pytest.raises(ConfigError):
        RunConfig(eta=0.0)
    with pytest.raises(ConfigError, match="horizon: expected an integer in"):
        RunConfig(horizon=0)
    with pytest.raises(ConfigError):
        RunConfig(trials=0)
    with pytest.raises(ConfigError):
        RunConfig(lam=(1.0, -0.1, 1.0))
    with pytest.raises(ConfigError):
        RunConfig(b_tolerance=(0.0, 0.0))
    with pytest.raises(ConfigError):
        RunConfig(dirichlet_alpha=0.0)
    with pytest.raises(ConfigError):
        RunConfig(q_recompute_stride=0)


def test_config_keys_cover_every_run_config_field():
    fields = [key.field for key in CONFIG_KEYS if key.field]
    assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert len({name for key in CONFIG_KEYS for name in key.names}) == sum(
        len(key.names) for key in CONFIG_KEYS)
    run = RunConfig()
    for key in CONFIG_KEYS:   # every default parses and lies in its own range
        if key.default is not None:
            key.check(key.parse(key.default), run)


def test_horizon_and_stride_size_limits():
    # Out-of-range sizes are checked here rather than run: the largest
    # horizon still sizes a (T, 7) float64 array in bytes an intp can count.
    limit = max(T for T in (2 ** 57, 2 ** 57 + 1, np.iinfo(np.intp).max // 56,
                            np.iinfo(np.intp).max // 56 + 1)
                if CONFIG_KEY["horizon"].ok(T, None))
    assert limit == np.iinfo(np.intp).max // 56
    assert limit * 7 * np.dtype(np.float64).itemsize <= np.iinfo(np.intp).max
    RunConfig(horizon=limit)
    for horizon in (limit + 1, 2 ** 62, 10 ** 22):
        with pytest.raises(ConfigError, match="horizon"):
            RunConfig(horizon=horizon)
    RunConfig(engine="fairness_aware", q_recompute_stride=np.iinfo(np.int64).max)
    for stride in (2 ** 63, 10 ** 23):
        with pytest.raises(ConfigError, match="stride"):
            RunConfig(q_recompute_stride=stride)


def test_eta_range_keeps_gamma_below_one():
    for eta in (5e-324, 1e-320, 1e-17, 1.1e-16):
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(eta=eta)
    for eta in (1.2e-16, 1e-9, 0.25, 0.49):
        assert 0.0 < gamma(RunConfig(eta=eta).eta) < 1.0
        assert math.isfinite(math.log(1000) / eta)


@pytest.mark.parametrize("T", [1, 2, 300, 1000, 4097])
def test_alpha_range_keeps_smoothed_rates_inside_the_unit_interval(T):
    # For fairness_aware, every alpha the table admits keeps each smoothed
    # rate strictly inside (0, 1) at every count up to T: one cell holding
    # all t arrivals is the extreme case of each rate.  mw and group_aware
    # never smooth, so they only need alpha > 0.
    t = np.arange(0, T + 1, dtype=float)
    run = RunConfig(engine="fairness_aware", horizon=T)
    ok = [a for a in (2.0 * math.ulp(T + 1.0), 1e-9, 0.25, 1.0, 1e300, 4e307)
          if CONFIG_KEY["dirichlet_alpha"].ok(a, run)]
    assert len(ok) == 6
    for alpha in ok:
        counts = np.zeros((len(t), 2, 2))
        for cell in np.ndindex(2, 2):
            counts[:] = 0.0
            counts[(slice(None), *cell)] = t
            p_hat, mu_hat = smoothed_rates(counts, alpha)
            for rate in (p_hat, mu_hat[:, 0], mu_hat[:, 1]):
                assert np.all((rate > 0.0) & (rate < 1.0)), (alpha, cell)
    for alpha in (1e-320, 1e-20, 1.2e-16, 0.3 * 2.0 ** -44, 1e308, 1.7e308):
        with pytest.raises(ConfigError, match="dirichlet_alpha"):
            RunConfig(engine="fairness_aware", horizon=max(T, 300), dirichlet_alpha=alpha)
        RunConfig(engine="group_aware", horizon=T, dirichlet_alpha=alpha)
    with pytest.raises(ConfigError, match="dirichlet_alpha"):
        RunConfig(engine="mw", dirichlet_alpha=0.0)


def test_rejected_small_alphas_do_reach_a_rate_of_one():
    # The rows the table rejects at T = 300 do break a smoothed rate at some
    # count below 300: 1.2e-16 at t = 1, and 0.3 ulp(300) at a count one
    # binade below 300, where checking the horizon alone would admit it.
    t = np.arange(1, 301, dtype=float)
    for alpha in (1.2e-16, 0.3 * math.ulp(300.0)):
        mu = (t + alpha) / (t + 2.0 * alpha)
        assert np.any(mu == 1.0), alpha
    alpha = 0.3 * math.ulp(300.0)
    assert (300.0 + alpha) / (300.0 + 2.0 * alpha) < 1.0


def test_trial_seed_sequence_deterministic():
    draws = []
    for _ in range(2):
        children = trial_seed_sequence(42, 7)
        assert len(children) == 3
        draws.append([np.random.default_rng(c).integers(0, 2**63) for c in children])
    assert draws[0] == draws[1]
    other = [np.random.default_rng(c).integers(0, 2**63)
             for c in trial_seed_sequence(42, 8)]
    assert other != draws[0]


def test_trial_seed_sequence_serializable_identity():
    # the derivation is pure data: identical (seed, trial) means identical
    # entropy state, which json round-trips for the record
    a = trial_seed_sequence(1, 2)[0].state
    b = trial_seed_sequence(1, 2)[0].state
    assert json.dumps(a, default=str) == json.dumps(b, default=str)
