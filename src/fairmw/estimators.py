"""Running arrival statistics and cross-table loss-gap (alpha) sums.

Rates are Dirichlet posterior predictives with symmetric prior mass
``alpha_prior`` per cell.  That keeps every derived probability strictly
inside (0, 1), which guarantees positive denominators in the constraint
system from the very first round.

All (2, 2) count/sum arrays are indexed [group, label].
"""

from __future__ import annotations

import numpy as np

from .domain import Group

__all__ = [
    "dirichlet_rate",
    "smoothed_rates",
    "RateEstimates",
    "AlphaTracker",
]


def dirichlet_rate(counts: np.ndarray, t: int, alpha_prior: float) -> np.ndarray:
    """Posterior predictive cell rates (c + alpha)/(t + 4*alpha)."""
    return (np.asarray(counts, dtype=float) + alpha_prior) / (t + 4.0 * alpha_prior)


def smoothed_rates(counts: np.ndarray, alpha_prior: float):
    """(p_hat, mu_hat) from [..., group, label] counts: p_hat (...,) and
    mu_hat (..., 2) indexed by group; see ``RateEstimates``."""
    c = np.asarray(counts, dtype=float)
    t_z = c.sum(axis=-1)
    p_hat = (t_z[..., Group.A] + 2.0 * alpha_prior) / (t_z.sum(axis=-1) + 4.0 * alpha_prior)
    return p_hat, (c[..., 1] + alpha_prior) / (t_z + 2.0 * alpha_prior)


class RateEstimates:
    """Streaming (group, label) counts with smoothed derived rates.

    p_hat is the smoothed probability of group A; mu_hat(z) the smoothed
    group-conditional positive rate, computed from counts within group z
    only: (c_{z,+} + alpha)/(t_z + 2*alpha).
    """

    def __init__(self, dirichlet_alpha: float = 1.0):
        self.alpha = float(dirichlet_alpha)
        self.counts = np.zeros((2, 2), dtype=np.int64)
        self.t = 0

    def update(self, group: Group, label: int) -> None:
        self.counts[group, label] += 1
        self.t += 1

    @property
    def p_hat(self) -> float:
        return float(smoothed_rates(self.counts, self.alpha)[0])

    def mu_hat(self, group: Group) -> float:
        return float(smoothed_rates(self.counts, self.alpha)[1][group])


class AlphaTracker:
    """Running per-cell sums of the alpha loss gaps.

    On a (z, y) arrival the engine adds, to cell (z, 1-y), the expected
    loss the wrong-label table would have suffered on this round's losses
    minus that of the right-label table, both from pre-update weights.
    """

    def __init__(self):
        self.sums = np.zeros((2, 2))

    def add(self, group: Group, wrong_label: int, value: float) -> None:
        self.sums[group, wrong_label] += value

    def sums_vector(self) -> np.ndarray:
        """Sums in canonical cell order (A,-), (B,-), (A,+), (B,+)."""
        return self.sums.T.ravel()
