"""Constraint system assembly and the relaxed solve for q*.

The system is three rows (fpr, fnr, regret) over the four cells in
canonical order q = (q_{A,-}, q_{B,-}, q_{A,+}, q_{B,+}).  Solving uses
the per-group normalizations q_{A,-}+q_{A,+} = 1 and q_{B,-}+q_{B,+} = 1
to substitute q = (a, b, 1-a, 1-b), which reduces the weighted
least-squares problem to a two-variable convex quadratic over the unit
square.  That minimum is found exactly: the unconstrained stationary
point if it lies in the box, otherwise the best of the four clamped edge
minimizers.  No iterative solver is involved.

A proximal term REG_WEIGHT * max(lambda)^2 * ||q - uniform||^2 breaks
ties toward the uniform distribution when (lambda A) is rank-deficient;
scaling it with lambda keeps the argmin invariant under positive
rescaling of lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import QDistribution
from .errors import NonFiniteInput

__all__ = ["ConstraintSystem", "assemble_constraint_system", "solve_q", "objective"]

REG_WEIGHT = 1e-8


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows: fpr, fnr, regret; columns in canonical cell order."""

    a: np.ndarray          # (3, 4)
    b: np.ndarray          # (3,)
    lam: np.ndarray        # (3,) nonnegative

    def __post_init__(self):
        for name, arr in (("A", self.a), ("b", self.b), ("lambda", self.lam)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteInput(f"non-finite entries in {name}")


def assemble_constraint_system(alpha_sums, p_hat: float, mu_a: float, mu_b: float,
                               t_elapsed: int, b_tolerance=(0.0, 0.0, 0.0),
                               lam=(1.0, 1.0, 1.0)) -> ConstraintSystem:
    """Build the 3x4 system from running alpha sums and rate estimates.

    alpha_sums come in canonical cell order (A,-), (B,-), (A,+), (B,+).
    Denominators use the elapsed round count, matching the running sums
    in the numerators.
    """
    s_an, s_bn, s_ap, s_bp = (float(v) for v in alpha_sums)
    inputs = (s_an, s_bn, s_ap, s_bp, p_hat, mu_a, mu_b, float(t_elapsed))
    if not all(np.isfinite(v) for v in inputs):
        raise NonFiniteInput("non-finite assembly input")
    t = float(t_elapsed)
    a = np.zeros((3, 4))
    a[0, 0] = s_an / (p_hat * (1.0 - mu_a) * t)
    a[0, 1] = -s_bn / ((1.0 - p_hat) * (1.0 - mu_b) * t)
    a[1, 2] = -s_ap / (p_hat * mu_a * t)
    a[1, 3] = s_bp / ((1.0 - p_hat) * mu_b * t)
    a[2] = (s_an, s_bn, s_ap, s_bp)
    return ConstraintSystem(a, np.asarray(b_tolerance, dtype=float),
                            np.asarray(lam, dtype=float))


def objective(system: ConstraintSystem, q) -> float:
    """||lambda o (Aq - b)||^2 plus the uniform-tie-break term."""
    qv = np.asarray(q, dtype=float)
    resid = system.lam * (system.a @ qv - system.b)
    reg = REG_WEIGHT * float(np.max(system.lam)) ** 2
    return float(resid @ resid + reg * np.sum((qv - 0.5) ** 2))


def solve_q(system: ConstraintSystem) -> QDistribution:
    """Exact minimizer of the relaxed problem over feasible q."""
    lam_max = float(np.max(system.lam))
    if lam_max == 0.0:
        return QDistribution.uniform()
    eps = REG_WEIGHT * lam_max ** 2

    # Substitute q = (a, b, 1-a, 1-b).  Row i residual becomes
    # u_i*a + v_i*b + c_i with the coefficients below; the tie-break term
    # adds 2*eps*((a-1/2)^2 + (b-1/2)^2).
    A, bvec, lam = system.a, system.b, system.lam
    u = lam * (A[:, 0] - A[:, 2])
    v = lam * (A[:, 1] - A[:, 3])
    c = lam * (A[:, 2] + A[:, 3] - bvec)

    P = float(u @ u) + 2.0 * eps
    Q = float(v @ v) + 2.0 * eps
    R = float(u @ v)
    S = float(u @ c) - eps
    U = float(v @ c) - eps

    candidates = []
    det = P * Q - R * R
    if det != 0.0:
        # A non-finite stationary point fails the box test below.
        a0 = (U * R - S * Q) / det
        b0 = (R * S - P * U) / det
        if 0.0 <= a0 <= 1.0 and 0.0 <= b0 <= 1.0:
            candidates.append((a0, b0))
    else:
        # det rounds to zero when the u and v rows are parallel at this
        # magnitude; uniform q, the tie-break target, stands in for the
        # interior point.
        candidates.append((0.5, 0.5))
    # Edge minimizers of the 1-D restrictions, clamped to the box; these
    # cover the entire boundary including the corners.
    candidates.append((0.0, _clamp(-U / Q)))
    candidates.append((1.0, _clamp(-(R + U) / Q)))
    candidates.append((_clamp(-S / P), 0.0))
    candidates.append((_clamp(-(R + S) / P), 1.0))

    best = min(candidates,
               key=lambda ab: objective(system, (ab[0], ab[1], 1.0 - ab[0], 1.0 - ab[1])))
    a_star, b_star = best
    return QDistribution(a_star, b_star, 1.0 - a_star, 1.0 - b_star)


def _clamp(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)
