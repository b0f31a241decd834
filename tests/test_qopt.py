import numpy as np
import pytest

from fairmw.errors import NonFiniteInput
from fairmw.qopt import (
    REG_WEIGHT,
    ConstraintSystem,
    assemble_constraint_system,
    objective,
    solve_q,
)


def grid_oracle(system, resolution=1e-3):
    """Brute-force minimum of the same regularized objective on a grid.

    Uses the (a, b) substitution q = (a, b, 1-a, 1-b), so feasibility is
    built in.  Vectorized: the full 1001x1001 grid is a single evaluation.
    """
    steps = np.arange(0.0, 1.0 + resolution / 2, resolution)
    a, b = np.meshgrid(steps, steps, indexing="ij")
    lam, A, bvec = system.lam, system.a, system.b
    total = np.zeros_like(a)
    for i in range(3):
        resid = lam[i] * (A[i, 0] * a + A[i, 1] * b
                          + A[i, 2] * (1 - a) + A[i, 3] * (1 - b) - bvec[i])
        total += resid ** 2
    reg = REG_WEIGHT * float(np.max(lam)) ** 2
    total += reg * 2.0 * ((a - 0.5) ** 2 + (b - 0.5) ** 2)
    flat = int(np.argmin(total))
    return float(total.ravel()[flat]), (float(a.ravel()[flat]), float(b.ravel()[flat]))


def random_system(rng):
    a = rng.uniform(-1, 1, size=(3, 4))
    a[0, 2:] = 0.0
    a[1, :2] = 0.0
    b = rng.uniform(-0.5, 0.5, size=3)
    lam = rng.uniform(0, 2, size=3)
    return ConstraintSystem(a, b, lam)


def test_assemble_zero_alphas():
    sys_ = assemble_constraint_system(np.zeros(4), 0.5, 0.5, 0.5, 10,
                                      b_tolerance=(0.01, 0.01, 0.05))
    assert np.all(sys_.a == 0.0)
    assert sys_.b.tolist() == [0.01, 0.01, 0.05]
    assert sys_.lam.tolist() == [1.0, 1.0, 1.0]


def test_assemble_row_values():
    sums = np.array([0.2, -0.2, 0.1, -0.1])
    sys_ = assemble_constraint_system(sums, 0.5, 0.5, 0.5, 100)
    assert np.allclose(sys_.a[0], [0.008, 0.008, 0.0, 0.0], atol=1e-15)
    assert np.allclose(sys_.a[1], [0.0, 0.0, -0.004, -0.004], atol=1e-15)
    assert np.allclose(sys_.a[2], sums, atol=0)
    # structural zeros
    assert sys_.a[0, 2] == sys_.a[0, 3] == 0.0
    assert sys_.a[1, 0] == sys_.a[1, 1] == 0.0


def test_assemble_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        assemble_constraint_system([np.nan, 0, 0, 0], 0.5, 0.5, 0.5, 10)
    with pytest.raises(NonFiniteInput):
        ConstraintSystem(np.full((3, 4), np.inf), np.zeros(3), np.ones(3))


def test_solve_zero_system_is_uniform():
    sys_ = ConstraintSystem(np.zeros((3, 4)), np.zeros(3), np.ones(3))
    q = solve_q(sys_)
    assert q.as_vector() == (0.5, 0.5, 0.5, 0.5)


def test_solve_rank_deficient_tiebreak():
    # single row 2a - b = 0; the regularizer picks (0.3, 0.6) on that line
    a = np.zeros((3, 4))
    a[0] = (2.0, -1.0, 0.0, 0.0)
    q = solve_q(ConstraintSystem(a, np.zeros(3), np.ones(3)))
    assert abs(q.q_a_neg - 0.3) < 1e-6
    assert abs(q.q_b_neg - 0.6) < 1e-6
    assert abs(q.q_a_pos - 0.7) < 1e-6
    assert abs(q.q_b_pos - 0.4) < 1e-6


def test_solve_fixed_residual_row():
    # rows 1-2 are balance terms that vanish at the uniform point; row 3
    # contributes a constant residual of 2 for every feasible q.  The optimum
    # is uniform, but the stationarity system is ill-conditioned there
    # (lam^2 / reg ~ 1e8), so allow a small positional wobble and pin the
    # objective instead.
    a = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
    ])
    sys_ = ConstraintSystem(a, np.zeros(3), np.ones(3))
    q = solve_q(sys_)
    for v in q.as_vector():
        assert abs(v - 0.5) <= 1e-6
    assert 4.0 <= objective(sys_, q.as_vector()) <= 4.0 + 1e-9


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        sys_ = random_system(rng)
        q = solve_q(sys_)
        solver_obj = objective(sys_, q.as_vector())
        oracle_obj, _ = grid_oracle(sys_)
        assert solver_obj <= oracle_obj + 1e-6


def test_solver_feasible():
    rng = np.random.default_rng(99)
    for _ in range(200):
        q = solve_q(random_system(rng))
        v = np.array(q.as_vector())
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert abs(v[0] + v[2] - 1.0) <= 1e-12
        assert abs(v[1] + v[3] - 1.0) <= 1e-12


def test_lambda_scaling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sys_ = random_system(rng)
        scaled = ConstraintSystem(sys_.a, sys_.b, sys_.lam * 1000.0)
        q1 = np.array(solve_q(sys_).as_vector())
        q2 = np.array(solve_q(scaled).as_vector())
        assert np.max(np.abs(q1 - q2)) <= 1e-9


def test_regret_only_lambda():
    # lambda (0,0,1) must behave as if rows 1-2 were absent
    rng = np.random.default_rng(57)
    for _ in range(25):
        sys_ = random_system(rng)
        only_row3 = ConstraintSystem(
            np.vstack([np.zeros((2, 4)), sys_.a[2]]), sys_.b * (0, 0, 1),
            np.array([1.0, 1.0, 1.0]))
        masked = ConstraintSystem(sys_.a, sys_.b, np.array([0.0, 0.0, 1.0]))
        q_masked = np.array(solve_q(masked).as_vector())
        q_row3 = np.array(solve_q(only_row3).as_vector())
        assert np.max(np.abs(q_masked - q_row3)) <= 1e-9


def test_zero_lambda_returns_uniform():
    sys_ = ConstraintSystem(np.ones((3, 4)), np.zeros(3), np.zeros(3))
    assert solve_q(sys_).as_vector() == (0.5, 0.5, 0.5, 0.5)


def test_objective_matches_manual():
    sys_ = ConstraintSystem(np.arange(12, dtype=float).reshape(3, 4),
                            np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 2.0]))
    q = (0.2, 0.4, 0.8, 0.6)
    resid = sys_.lam * (sys_.a @ np.array(q) - sys_.b)
    manual = float(resid @ resid) + REG_WEIGHT * 4.0 * float(np.sum((np.array(q) - 0.5) ** 2))
    assert abs(objective(sys_, q) - manual) <= 1e-12


def degenerate_systems():
    """Systems whose stationarity determinant rounds to exactly 0.0."""
    rng = np.random.default_rng(5)
    systems = []
    for scale in (1e5, 1e6, 1e7):
        # regret-only lambda: only the alpha-sum row counts, and at these
        # magnitudes P*Q and R*R agree to the last bit
        for low in (-1.0, 0.0):
            for _ in range(10):
                sums = rng.uniform(low, 1.0, size=4) * scale
                systems.append(assemble_constraint_system(
                    sums, 0.7, 0.3, 0.2, t_elapsed=1000, lam=(0.0, 0.0, 1.0)))
        # exactly parallel u = v rows: a[:, 0] - a[:, 2] == a[:, 1] - a[:, 3]
        a = np.zeros((3, 4))
        a[0, :2] = scale
        a[2] = np.array([3.0, 2.0, 1.0, 0.0]) * scale
        # the last b puts the zero-residual line a + b = 1 through uniform q
        for b in ((0.0, 0.0, 0.0), (0.0, 0.0, 2.5 * scale), (scale, 0.0, 3.0 * scale)):
            systems.append(ConstraintSystem(a, np.array(b), np.ones(3)))
    return systems


def test_solve_survives_zero_determinant():
    corners = [(a, b, 1.0 - a, 1.0 - b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    for sys_ in degenerate_systems():
        q = np.array(solve_q(sys_).as_vector())
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert q[0] + q[2] == 1.0 and q[1] + q[3] == 1.0
        got = objective(sys_, q)
        for other in [(0.5, 0.5, 0.5, 0.5)] + corners:
            assert got <= objective(sys_, other)
