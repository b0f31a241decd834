"""Deterministic bound evaluators.

The bound checks are exact inequalities about expectation series, so they
are evaluated from trajectory aggregates with no Monte Carlo involved.
Each is checked on every cell the engine updates (``engines.CELL_MAP``),
and ``BoundReport.margins`` keys it as bounds.json does: by the cell's
group z and label y ("-" or "+") where the engine keys on them, f an
expert name.

* ``f`` (mw), ``z/f`` (group_aware), ``z/y/f`` (fairness_aware):
  (1+eta) * loss_f + ln(d)/eta - compared >= 0 over the cell's rounds,
  where loss_f sums expert f's losses and compared sums the right-table
  expected loss if the engine keys on label, the expected loss otherwise.
* ``z/y`` (fairness_aware): compared >= gamma(eta) * min_f loss_f.
* fairness_bound_rhs: the FPR/FNR bound right-hand sides with plug-in
  estimates (empirical best-in-hindsight cell loss, p and mu smoothed
  from the trial's counts, its final q, supplied or measured epsilon).

A margin >= 0 means the bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Group, RunConfig, gamma
from .errors import EngineMismatch
from .engines import CELL_MAP, Trajectory
from .estimators import smoothed_rates

__all__ = [
    "gamma",
    "BoundReport",
    "validate_bounds",
    "measured_epsilon",
]


@dataclass
class BoundReport:
    gamma_eta: float
    margins: dict[str, float]                 # bound name as in bounds.json -> margin
    fairness_bound_rhs: dict | None = None    # {"fpr": rhs|None, "fnr": rhs|None}
    epsilon_used: float | None = None

    def min_margin(self) -> float | None:
        return min(self.margins.values()) if self.margins else None


def measured_epsilon(traj: Trajectory, cell_losses: np.ndarray) -> float:
    """Max per-expert empirical cross-group error-rate gap over both labels,
    from each expert's (2, 2, d) [group, label, expert] loss sums.

    Cells without observations are skipped; 0.0 when nothing is comparable.
    """
    both = traj.counts.min(axis=0) > 0    # labels observed in both groups
    rates = cell_losses[:, both] / traj.counts[:, both, None]
    return float(np.abs(rates[0] - rates[1]).max(initial=0.0))


def validate_bounds(traj: Trajectory, config: RunConfig,
                    epsilon: float | None = None) -> BoundReport:
    """Evaluate every bound the trajectory's engine admits.

    Every cell the engine updates gets its margins, visited or not.  A
    round's losses go to its update cell ``cell & (2 * by_group + by_label)``
    by ``np.bincount``, in round order.  fairness_aware adds both
    fairness-bound right-hand sides, which read the same cell sums.
    """
    if traj.engine != config.engine:
        raise EngineMismatch(
            f"trajectory from engine {traj.engine!r}, config says {config.engine!r}")
    eta = traj.eta
    g_eta = gamma(eta)
    slack = math.log(traj.d) / eta
    by_group, by_label = CELL_MAP[traj.engine]
    mask = 2 * by_group + by_label
    update = traj.cell & mask
    compared = np.bincount(update, weights=traj.right if by_label else traj.expected,
                           minlength=4).tolist()
    experts = np.column_stack([np.bincount(update, weights=traj.losses[:, f], minlength=4)
                               for f in range(traj.d)])    # (4 cells, d)
    margins = {}
    for c in sorted({c & mask for c in range(4)}):
        key = [Group(c >> 1).name] * by_group + ["-+"[c & 1]] * by_label
        for name, loss in zip(traj.expert_names, experts[c].tolist()):
            margins["/".join(key + [name])] = (1.0 + eta) * loss + slack - compared[c]
        if by_label:
            margins["/".join(key)] = compared[c] - g_eta * float(experts[c].min())
    if traj.engine != "fairness_aware":
        return BoundReport(gamma_eta=g_eta, margins=margins)

    cell_losses = experts.reshape(2, 2, traj.d)
    eps = epsilon if epsilon is not None else measured_epsilon(traj, cell_losses)
    rhs = {key: _fairness_rhs(traj, cell_losses, eta, g_eta, eps, config.dirichlet_alpha, label)
           for label, key in enumerate(("fpr", "fnr"))}
    return BoundReport(gamma_eta=g_eta, margins=margins,
                       fairness_bound_rhs=rhs, epsilon_used=eps)


def _fairness_rhs(traj: Trajectory, cell_losses: np.ndarray, eta: float, g_eta: float,
                  eps: float, alpha_prior: float, label: int) -> float | None:
    """Right-hand side of the FPR (label=0) or FNR (label=1) bound, from the
    trajectory's final q, alpha sums and per-cell expert losses, and p and
    mu smoothed from its counts with prior mass ``alpha_prior``."""
    if traj.alpha_sums is None:
        return None
    c_b = int(traj.counts[Group.B, label])
    if c_b == 0:
        return None
    best_b = float(cell_losses[Group.B, label].min()) / c_b
    p_hat, mu_hat = smoothed_rates(traj.counts, alpha_prior)
    p, mu_a, mu_b = float(p_hat), float(mu_hat[Group.A]), float(mu_hat[Group.B])
    T = traj.T
    q_a, q_b = traj.q_neg[-1].tolist()    # q_{z,-}; q_{z,+} = 1 - q_{z,-}
    s_a, s_b = traj.alpha_sums[:, label].tolist()
    if label == 0:
        den_a, den_b = p * (1.0 - mu_a) * T, (1.0 - p) * (1.0 - mu_b) * T
    else:
        q_a, q_b = 1.0 - q_a, 1.0 - q_b
        den_a, den_b = p * mu_a * T, (1.0 - p) * mu_b * T
    return abs((1.0 + eta - g_eta) * best_b + eps * (1.0 + eta)
               + (q_a * s_a / den_a - q_b * s_b / den_b))
