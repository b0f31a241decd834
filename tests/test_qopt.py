import math

import numpy as np
import pytest

import scalar_reference
from fairmw.errors import ConfigError, NonFiniteInput
from fairmw.qopt import REG_WEIGHT, assemble_systems, check_q, solve_q_batch
from scalar_reference import ConstraintSystem, assemble_constraint_system, objective, solve_q


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
    assert q == (0.5, 0.5, 0.5, 0.5)


def test_solve_rank_deficient_tiebreak():
    # single row 2a - b = 0; the regularizer picks (0.3, 0.6) on that line
    a = np.zeros((3, 4))
    a[0] = (2.0, -1.0, 0.0, 0.0)
    q_a_neg, q_b_neg, q_a_pos, q_b_pos = solve_q(ConstraintSystem(a, np.zeros(3), np.ones(3)))
    assert abs(q_a_neg - 0.3) < 1e-6
    assert abs(q_b_neg - 0.6) < 1e-6
    assert abs(q_a_pos - 0.7) < 1e-6
    assert abs(q_b_pos - 0.4) < 1e-6


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
    for v in q:
        assert abs(v - 0.5) <= 1e-6
    assert 4.0 <= objective(sys_, q) <= 4.0 + 1e-9


def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        sys_ = random_system(rng)
        q = solve_q(sys_)
        solver_obj = objective(sys_, q)
        oracle_obj, _ = grid_oracle(sys_)
        assert solver_obj <= oracle_obj + 1e-6


def test_solver_feasible():
    rng = np.random.default_rng(99)
    for _ in range(200):
        v = np.array(solve_q(random_system(rng)))
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert abs(v[0] + v[2] - 1.0) <= 1e-12
        assert abs(v[1] + v[3] - 1.0) <= 1e-12


def test_lambda_scaling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sys_ = random_system(rng)
        scaled = ConstraintSystem(sys_.a, sys_.b, sys_.lam * 1000.0)
        q1 = np.array(solve_q(sys_))
        q2 = np.array(solve_q(scaled))
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
        q_masked = np.array(solve_q(masked))
        q_row3 = np.array(solve_q(only_row3))
        assert np.max(np.abs(q_masked - q_row3)) <= 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam_regret", [1e100, 1e160, 1e300])
def test_extreme_lambda_is_scaled_exactly(lam_regret):
    # lambda is scaled by the power of two that puts max(lambda) in [0.5, 1)
    # before the solve: no overflow and no warning, and every q is bitwise
    # the scalar reference's at the scaled lambda, interior optima included
    rng = np.random.default_rng(91)
    a = engine_like_batch(rng, 500)
    lam = np.array([1.0, 1.0, lam_regret])
    q = solve_q_batch(a, np.zeros(3), lam)
    scaled = lam * 2.0 ** -math.frexp(lam_regret)[1]
    want = [reference_q(ai, np.zeros(3), scaled) for ai in a]
    assert q.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    assert q.tolist() == solve_q_batch(a, np.zeros(3), scaled).tolist()


def test_zero_lambda_returns_uniform():
    sys_ = ConstraintSystem(np.ones((3, 4)), np.zeros(3), np.zeros(3))
    assert solve_q(sys_) == (0.5, 0.5, 0.5, 0.5)


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
        q = np.array(solve_q(sys_))
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert q[0] + q[2] == 1.0 and q[1] + q[3] == 1.0
        got = objective(sys_, q)
        for other in [(0.5, 0.5, 0.5, 0.5)] + corners:
            assert got <= objective(sys_, other)


def reference_q(a, b, lam):
    a_star, b_star = scalar_reference.solve(a, b, lam)
    return [a_star, b_star, 1.0 - a_star, 1.0 - b_star]


def assert_batch_matches_reference(a, b, lam):
    q = solve_q_batch(a, b, lam)
    want = [reference_q(ai, np.asarray(b, float), np.asarray(lam, float)) for ai in a]
    # tolist() keeps the sign of zero; compare the bit patterns
    assert q.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    return q


def engine_like_batch(rng, n):
    """Systems as the engine assembles them: alpha sums from 1e-3 to 1e6 in
    magnitude, either sign, with estimates strictly inside (0, 1)."""
    sums = rng.choice([-1.0, 1.0], size=(n, 4)) * 10.0 ** rng.uniform(-3, 6, size=(n, 4))
    p_hat, mu_a, mu_b = rng.uniform(0.05, 0.95, size=(3, n))
    t = rng.integers(1, 200000, size=n).astype(float)
    return assemble_systems(sums, p_hat, mu_a, mu_b, t)


def test_batch_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(77)
    for k in range(20):
        n = 1000
        if k % 2:
            a = engine_like_batch(rng, n)
            b = rng.uniform(0, 0.05, size=3) if k % 4 == 1 else np.zeros(3)
            lam = np.array([1.0, 1.0, 2e-4])
        else:
            a = rng.uniform(-1, 1, size=(n, 3, 4)) * 10.0 ** rng.uniform(-2, 3, size=(n, 1, 1))
            a[:, 0, 2:] = 0.0
            a[:, 1, :2] = 0.0
            b = rng.uniform(-0.5, 0.5, size=3)
            lam = rng.uniform(0, 2, size=3)
        assert_batch_matches_reference(a, b, lam)
        # a system's q does not depend on the batch it is solved in
        q1 = solve_q_batch(a[:1], b, lam)
        assert q1.tolist() == solve_q_batch(a, b, lam)[:1].tolist()


def test_assemble_systems_matches_scalar_reference():
    rng = np.random.default_rng(78)
    n = 2000
    sums = rng.choice([-1.0, 1.0], size=(n, 4)) * 10.0 ** rng.uniform(-3, 6, size=(n, 4))
    p_hat, mu_a, mu_b = rng.uniform(0.05, 0.95, size=(3, n))
    t = rng.integers(1, 200000, size=n)
    got = assemble_systems(sums, p_hat, mu_a, mu_b, t)
    want = [scalar_reference.assemble(*args) for args in zip(sums, p_hat, mu_a, mu_b, t)]
    assert got.tolist() == np.array(want).tolist()
    one = assemble_constraint_system(sums[0], p_hat[0], mu_a[0], mu_b[0], t[0])
    assert one.a.tolist() == want[0].tolist()


def test_batch_matches_reference_at_zero_determinant():
    systems = degenerate_systems()
    for lam in ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        a = np.array([s.a for s in systems])
        assert_batch_matches_reference(a, np.zeros(3), lam)
    u = a[:, :, 0] - a[:, :, 2]
    v = a[:, :, 1] - a[:, :, 3]
    P = np.einsum("ij,ij->i", u, u) + 2e-8
    Q = np.einsum("ij,ij->i", v, v) + 2e-8
    R = np.einsum("ij,ij->i", u, v)
    assert np.any(P * Q - R * R == 0.0)


def test_batch_matches_reference_when_rounding_makes_det_negative():
    # Mathematically det > 0, but at large alpha sums with only the regret
    # row weighted, P*Q - R*R is rounding noise and can come out negative.
    # The interior point is then still offered when it lands in the box;
    # only the box test screens it.
    rng = np.random.default_rng(5)
    n = 4000
    sums = rng.uniform(-1.0, 1.0, size=(n, 4)) * 10.0 ** rng.uniform(5, 7, size=(n, 1))
    a = assemble_systems(sums, np.full(n, 0.7), np.full(n, 0.3), np.full(n, 0.2),
                         np.full(n, 1000))
    lam = np.array([0.0, 0.0, 1.0])
    eps = REG_WEIGHT
    dets, inbox = [], []
    for ai in a:
        u, v, c = ai[2, 0] - ai[2, 2], ai[2, 1] - ai[2, 3], ai[2, 2] + ai[2, 3]
        P, Q, R = u * u + 2.0 * eps, v * v + 2.0 * eps, u * v
        S, U = u * c - eps, v * c - eps
        det = P * Q - R * R
        a0, b0 = ((U * R - S * Q) / det, (R * S - P * U) / det) if det else (2.0, 2.0)
        dets.append(det)
        inbox.append(0.0 <= a0 <= 1.0 and 0.0 <= b0 <= 1.0)
    negative = np.array(dets) < 0.0
    offered = negative & np.array(inbox)
    assert negative.sum() > 100 and offered.sum() > 50
    q = assert_batch_matches_reference(a[negative], np.zeros(3), lam)
    assert np.all((q >= 0.0) & (q <= 1.0))


def test_batch_skips_unoffered_interior_when_edges_overflow():
    # b_regret = -1e160 keeps P, Q and R moderate while S, U and every
    # residual are ~1e160, so each objective overflows to inf.  The
    # interior point lies far outside the box and is not offered; the first
    # edge wins, as in the scalar scan (scoring the unoffered point as +inf
    # would keep it, since no inf edge is smaller).
    a = np.zeros((2, 3, 4))
    a[:, 0, :2] = [(0.3, -0.2), (0.7, 0.1)]
    a[:, 1, 2:] = [(-0.1, 0.4), (0.2, -0.5)]
    a[:, 2] = (1.0, -3.0, 0.0, 0.0)
    b, lam = np.array([0.0, 0.0, -1e160]), np.ones(3)
    for ai in a:
        system = ConstraintSystem(ai, b, lam)
        edges = [objective(system, (x, y, 1 - x, 1 - y)) for x in (0.0, 1.0) for y in (0.0, 1.0)]
        assert edges == [np.inf] * 4
    q = assert_batch_matches_reference(a, b, lam)
    assert q[:, 0].tolist() == [0.0, 0.0]   # the first edge: q_{A,-} = 0


def test_batch_rejects_nonfinite_and_infeasible_rows():
    good = np.zeros((4, 3, 4))
    bad = good.copy()
    bad[2, 2, 1] = np.inf
    with pytest.raises(NonFiniteInput):
        solve_q_batch(bad, np.zeros(3), np.ones(3))
    with pytest.raises(NonFiniteInput):
        solve_q_batch(good, np.array([0.0, np.nan, 0.0]), np.ones(3))
    sums = np.zeros((4, 4))
    sums[3, 1] = np.nan
    ones = np.full(4, 0.5)
    with pytest.raises(NonFiniteInput):
        assemble_systems(sums, ones, ones, ones, np.arange(1, 5))
    with pytest.raises(NonFiniteInput):
        assemble_systems(np.zeros((4, 4)), ones, ones, ones, np.arange(0, 4))  # t = 0
    q = solve_q_batch(good, np.zeros(3), np.ones(3))
    assert q.tolist() == [[0.5] * 4] * 4
    q[1] = (0.5, 1.2, 0.5, -0.2)
    with pytest.raises(ConfigError, match="outside"):
        check_q(q)
    q[1] = (0.5, 0.5, 0.6, 0.5)
    with pytest.raises(ConfigError, match="q_a_neg"):
        check_q(q)


def test_check_q_validation():
    # rows in canonical cell order (A,-), (B,-), (A,+), (B,+)
    q = np.array([[0.5, 0.5, 0.5, 0.5], [0.3, 0.6, 0.7, 0.4]])
    assert check_q(q) is q
    with pytest.raises(ConfigError, match="q_a_neg"):
        check_q(np.array([[0.3, 0.5, 0.5, 0.5]]))   # group A does not normalize
    with pytest.raises(ConfigError, match="outside"):
        check_q(np.array([[1.2, 0.5, -0.2, 0.5]]))
