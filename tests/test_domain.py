import json
import math

import numpy as np
import pytest

from fairmw.domain import (
    ENGINES,
    NEG,
    POS,
    Group,
    RESCALE_THRESHOLD,
    RunConfig,
    WEIGHT_FLOOR,
    WeightTable,
    _update_slice,
    recommended_eta,
    trial_seed_sequence,
    weight_states,
)
from fairmw.errors import ConfigError, InvalidExpertCount, InvalidHorizon


def test_recommended_eta_examples():
    assert abs(recommended_eta(10000, 3) - 0.010482) < 1e-6
    assert recommended_eta(4, 16) == 0.49
    assert recommended_eta(1, 2) == 0.49


def test_recommended_eta_errors():
    with pytest.raises(InvalidExpertCount):
        recommended_eta(100, 1)
    with pytest.raises(InvalidHorizon):
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
    assert WeightTable(3).array.shape == (2, 2, 3)
    assert WeightTable(5).d == 5
    assert WeightTable(3).slice().shape == (3,)
    assert np.all(WeightTable(3).array == 1.0)
    with pytest.raises(InvalidExpertCount):
        WeightTable(1)


def test_weight_table_slice_isolation():
    table = WeightTable(4)
    before = table.array.copy()
    table.update(0.3, np.array([1.0, 0.0, 1.0, 0.5]), Group.A, POS)
    # only the (A,+) slice moved; every other slice is bit-identical
    for g in (Group.A, Group.B):
        for y in (NEG, POS):
            if (g, y) == (Group.A, POS):
                assert not np.array_equal(table.array[g, y], before[g, y])
            else:
                assert np.array_equal(table.array[g, y], before[g, y])


def test_weight_table_pi_normalized():
    rng = np.random.default_rng(5)
    table = WeightTable(6)
    for _ in range(50):
        g = Group(int(rng.integers(0, 2)))
        table.update(0.2, rng.uniform(0, 1, size=6), g)
        w = table.slice(g)
        pi = w / w.sum()
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.all(pi >= 0)


def test_weight_table_entries_in_unit_interval():
    rng = np.random.default_rng(9)
    table = WeightTable(3)
    for _ in range(400):
        g = Group(int(rng.integers(0, 2)))
        y = int(rng.integers(0, 2))
        table.update(0.45, rng.uniform(0, 1, size=3), g, y)
    assert np.all((table.array > 0.0) & (table.array <= 1.0))


def test_rescale_preserves_pi_exactly():
    # push a slice's max below 2**-512 and check the selection distribution
    # is preserved bit-for-bit by the power-of-two rescale
    table = WeightTable(2)
    sl = table.slice(Group.A, NEG)
    sl[:] = (math.ldexp(1.0, -512), math.ldexp(1.0, -514))
    table.update(0.5, np.array([1.0, 1.0]), Group.A, NEG)
    # raw update would give (2**-513, 2**-515); rescale multiplies by 2**512
    scaled = table.slice(Group.A, NEG)
    assert scaled.max() == 0.5
    raw = np.array([math.ldexp(1.0, -513), math.ldexp(1.0, -515)])
    assert np.array_equal(scaled / scaled.sum(), raw / raw.sum())


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
    with pytest.raises(InvalidHorizon):
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
