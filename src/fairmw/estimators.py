"""Dirichlet-smoothed arrival-rate estimates for the q solve and bound report.

Rates are posterior predictives with symmetric prior mass ``alpha_prior``
per (group, label) cell.  That keeps every derived probability strictly
inside (0, 1), which guarantees positive denominators in the constraint
system from the very first round.  The q solve smooths prefix sums of a
trial's counts (``fairmw.engines``), the bound report its final counts.
"""

from __future__ import annotations

import numpy as np

from .domain import Group

__all__ = ["smoothed_rates"]


def smoothed_rates(counts: np.ndarray, alpha_prior: float):
    """(p_hat, mu_hat) from [..., group, label] counts: p_hat (...,) and
    mu_hat (..., 2) indexed by group.

    p_hat is the smoothed probability of group A; mu_hat[z] the smoothed
    group-conditional positive rate, from counts within group z only:
    (c_{z,+} + alpha)/(t_z + 2*alpha).
    """
    c = np.asarray(counts, dtype=float)
    t_z = c[..., 0] + c[..., 1]    # exact sums of counts; see fairmw.engines on bits
    t = t_z[..., 0] + t_z[..., 1]
    p_hat = (t_z[..., Group.A] + 2.0 * alpha_prior) / (t + 4.0 * alpha_prior)
    return p_hat, (c[..., 1] + alpha_prior) / (t_z + 2.0 * alpha_prior)
