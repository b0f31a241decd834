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
rescaling of lambda.  The solve first scales lambda by the power of two
that puts max(lambda) in [0.5, 1): every quantity then scales by a power
of two, which is exact, so q is unchanged while extreme weights (up to
the largest finite float) no longer overflow.

Assembly and solve work on a batch of n systems that share b and lambda
(``assemble_systems``, ``solve_q_batch``).  Every dot product is a
batched ``np.matmul``, which rounds exactly as the 1-D ``@`` does, so a
system's q does not depend on the batch it is solved in.  Every solved
row passes ``check_q`` on its way out.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NonFiniteInput

__all__ = ["assemble_systems", "solve_q_batch"]

REG_WEIGHT = 1e-8


def _require_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput(f"non-finite entries in {name}")


def assemble_systems(alpha_sums, p_hat, mu_a, mu_b, t_elapsed) -> np.ndarray:
    """The (n, 3, 4) matrices A of n systems from running alpha sums (n, 4)
    and the matching rate estimates and elapsed round counts (each (n,)).

    alpha_sums come in canonical cell order (A,-), (B,-), (A,+), (B,+).
    Denominators use the elapsed round count, matching the running sums
    in the numerators.
    """
    s = np.asarray(alpha_sums, dtype=float)
    p, mu_a, mu_b, t = (np.asarray(v, dtype=float) for v in (p_hat, mu_a, mu_b, t_elapsed))
    _require_finite(alpha_sums=s, p_hat=p, mu_a=mu_a, mu_b=mu_b, t_elapsed=t)
    a = np.zeros((len(s), 3, 4))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a[:, 0, 0] = s[:, 0] / (p * (1.0 - mu_a) * t)
        a[:, 0, 1] = -s[:, 1] / ((1.0 - p) * (1.0 - mu_b) * t)
        a[:, 1, 2] = -s[:, 2] / (p * mu_a * t)
        a[:, 1, 3] = s[:, 3] / ((1.0 - p) * mu_b * t)
    a[:, 2] = s
    _require_finite(A=a)
    return a


def check_q(q: np.ndarray) -> np.ndarray:
    """Check rows of q in canonical cell order: every component in [0, 1] and
    each group's pair summing to 1, both within 1e-12.  Returns q."""
    outside = ~((q >= -1e-12) & (q <= 1.0 + 1e-12))
    if outside.any():
        raise ConfigError(f"q component {q[outside][0]} outside [0, 1]")
    for z, name in ((0, "a"), (1, "b")):
        if np.any(np.abs(q[:, z] + q[:, z + 2] - 1.0) > 1e-12):
            raise ConfigError(f"q_{name}_neg + q_{name}_pos must equal 1")
    return q


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, k) arrays."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _objectives(a, b, lam, reg: float, q: np.ndarray) -> np.ndarray:
    """||lambda o (A q - b)||^2 + reg ||q - 1/2||^2, one system and q per row.
    The four squares add left to right, as numpy sums a row of fewer than 8
    (``fairmw.engines`` says which operations define bits)."""
    resid = lam * (np.matmul(a, q[:, :, None])[:, :, 0] - b)
    s = (q - 0.5) ** 2
    return _dot(resid, resid) + reg * (((s[:, 0] + s[:, 1]) + s[:, 2]) + s[:, 3])


def _q(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Rows (qa, qb, 1-qa, 1-qb): q in canonical cell order."""
    return np.stack([qa, qb, 1.0 - qa, 1.0 - qb], axis=1)


def _clamp(x: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1]; NaN stays NaN."""
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def solve_q_batch(a, b, lam) -> np.ndarray:
    """Exact minimizers of the relaxed problem for n systems (n, 3, 4) that
    share b and lambda; rows are q in canonical cell order, shape (n, 4).

    The candidates are, in order: the interior stationary point (offered
    only when it lies in the box; uniform q stands in when the determinant
    is 0), then the four clamped edge minimizers.  The first candidate with
    the smallest objective wins; a NaN objective is never smaller, and a
    candidate that is not offered is skipped, not scored.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.asarray(lam, dtype=float)
    _require_finite(A=a, b=b, lam=lam)
    n = len(a)
    lam_max = float(np.max(lam))
    if lam_max == 0.0:
        return np.full((n, 4), 0.5)
    # lam_max = m * 2**e with m in [0.5, 1): scaling lambda by 2**-e is exact
    # and leaves q as it is, but keeps lam_max ** 2 and det finite.
    m, e = math.frexp(lam_max)
    lam = lam * math.ldexp(1.0, -e)
    eps = REG_WEIGHT * m ** 2

    # Substitute q = (a, b, 1-a, 1-b).  Row i residual becomes
    # u_i*a + v_i*b + c_i with the coefficients below; the tie-break term
    # adds 2*eps*((a-1/2)^2 + (b-1/2)^2).
    u = lam * (a[:, :, 0] - a[:, :, 2])
    v = lam * (a[:, :, 1] - a[:, :, 3])
    c = lam * (a[:, :, 2] + a[:, :, 3] - b)
    P = _dot(u, u) + 2.0 * eps
    Q = _dot(v, v) + 2.0 * eps
    R = _dot(u, v)
    S = _dot(u, c) - eps
    U = _dot(v, c) - eps

    det = P * Q - R * R
    # det rounds to zero when the u and v rows are parallel at this
    # magnitude; uniform q, the tie-break target, stands in for the interior
    # point.  A non-finite stationary point fails the box test.
    singular = det == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a0 = np.where(singular, 0.5, (U * R - S * Q) / det)
        b0 = np.where(singular, 0.5, (R * S - P * U) / det)
        offered = singular | ((0.0 <= a0) & (a0 <= 1.0) & (0.0 <= b0) & (b0 <= 1.0))
        best = _objectives(a, b, lam, eps, _q(a0, b0))
        # Edge minimizers of the 1-D restrictions, clamped to the box; these
        # cover the entire boundary including the corners.
        zeros, ones = np.zeros(n), np.ones(n)
        edges = ((zeros, _clamp(-U / Q)), (ones, _clamp(-(R + U) / Q)),
                 (_clamp(-S / P), zeros), (_clamp(-(R + S) / P), ones))
        for ea, eb in edges:
            obj = _objectives(a, b, lam, eps, _q(ea, eb))
            take = ~offered | (obj < best)
            a0 = np.where(take, ea, a0)
            b0 = np.where(take, eb, b0)
            best = np.where(take, obj, best)
            offered[:] = True
    return check_q(_q(a0, b0))
