"""Fairness/performance metrics and deterministic bound evaluators.

The bound checks are exact inequalities about expectation series, so they
are evaluated from trajectory aggregates with no Monte Carlo involved.
``BoundReport.margins`` keys each margin as bounds.json writes it (z a
group, y "-" or "+", f an expert name):

* ``f`` (mw), ``z/f`` (group_aware, over group z's rounds): for every
  expert f, (1+eta) * L_f + ln(d)/eta - sum_t expected_loss_t >= 0.
* ``z/y/f`` (fairness_aware): per cell (z,y) and expert f,
  (1+eta) * L_{f,z,y} + ln(d)/eta - right_table_expected_loss_{z,y} >= 0.
* ``z/y`` (fairness_aware): per cell, right_table series
  >= gamma(eta) * min_f L_{f,z,y}.
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
from .errors import EmptyTrajectory, EngineMismatch
from .engines import Trajectory
from .estimators import smoothed_rates

__all__ = [
    "gamma",
    "FairnessReport",
    "compute_rates",
    "regret",
    "BoundReport",
    "validate_bounds",
    "measured_epsilon",
]


@dataclass(frozen=True)
class FairnessReport:
    """Per-group realized rates; entries are None until defined."""

    fpr_a: float | None
    fpr_b: float | None
    fnr_a: float | None
    fnr_b: float | None
    err_a: float | None
    err_b: float | None
    fpr_gap: float | None
    fnr_gap: float | None
    eer_gap: float | None


def compute_rates(confusion) -> FairnessReport:
    """Rates from the trajectory's (2, 4) per-group (tp, fp, tn, fn) counts.

    Row 0 is group A, row 1 group B.  A rate whose denominator is zero is
    None, and any gap involving it is None as well — undefined, not zero.
    """
    vals = {}
    for g, (tp, fp, tn, fn) in zip(Group, confusion):
        neg = fp + tn
        pos = tp + fn
        n = neg + pos
        vals[g, "fpr"] = fp / neg if neg > 0 else None
        vals[g, "fnr"] = fn / pos if pos > 0 else None
        vals[g, "err"] = (fp + fn) / n if n > 0 else None

    def gap(key):
        a, b = vals[Group.A, key], vals[Group.B, key]
        return abs(a - b) if a is not None and b is not None else None

    return FairnessReport(
        fpr_a=vals[Group.A, "fpr"], fpr_b=vals[Group.B, "fpr"],
        fnr_a=vals[Group.A, "fnr"], fnr_b=vals[Group.B, "fnr"],
        err_a=vals[Group.A, "err"], err_b=vals[Group.B, "err"],
        fpr_gap=gap("fpr"), fnr_gap=gap("fnr"), eer_gap=gap("err"))


def regret(traj: Trajectory) -> tuple[float, float]:
    """(realized, expected) cumulative loss minus the best fixed expert."""
    if traj.T == 0:
        raise EmptyTrajectory("regret of an empty trajectory")
    best = float(traj.L_f.min())
    return traj.L_realized - best, traj.L_expected - best


@dataclass
class BoundReport:
    gamma_eta: float
    margins: dict[str, float]                 # bound name as in bounds.json -> margin
    fairness_bound_rhs: dict | None = None    # {"fpr": rhs|None, "fnr": rhs|None}
    epsilon_used: float | None = None

    def min_margin(self) -> float | None:
        return min(self.margins.values()) if self.margins else None


def measured_epsilon(traj: Trajectory) -> float:
    """Max per-expert empirical cross-group error-rate gap over both labels.

    Cells without observations are skipped; 0.0 when nothing is comparable.
    """
    eps = 0.0
    for y in (0, 1):
        ca, cb = traj.counts[0, y], traj.counts[1, y]
        if ca == 0 or cb == 0:
            continue
        rate_a = traj.L_fzy[0, y] / ca
        rate_b = traj.L_fzy[1, y] / cb
        eps = max(eps, float(np.max(np.abs(rate_a - rate_b))))
    return eps


def validate_bounds(traj: Trajectory, config: RunConfig,
                    epsilon: float | None = None) -> BoundReport:
    """Evaluate every bound the trajectory's engine admits.

    mw: one regret margin per expert.  group_aware: the same margin per
    (group, expert) over that group's subsequence.  fairness_aware: the
    per-cell sandwich margins plus both fairness-bound right-hand sides.
    """
    if traj.T == 0:
        raise EmptyTrajectory("cannot validate bounds on an empty trajectory")
    if traj.engine != config.engine:
        raise EngineMismatch(
            f"trajectory from engine {traj.engine!r}, config says {config.engine!r}")
    eta = traj.eta
    g_eta = gamma(eta)
    slack = math.log(traj.d) / eta
    names = traj.expert_names

    if traj.engine == "mw":
        lhs = float(traj.expected.sum())
        margins = {names[f]: (1.0 + eta) * float(traj.L_f[f]) + slack - lhs
                   for f in range(traj.d)}
        return BoundReport(gamma_eta=g_eta, margins=margins)

    margins = {}
    if traj.engine == "group_aware":
        for g in Group:
            lhs = float(traj.L_z[g])
            for f in range(traj.d):
                margins[f"{g.name}/{names[f]}"] = (
                    (1.0 + eta) * float(traj.L_fz[g, f]) + slack - lhs)
        return BoundReport(gamma_eta=g_eta, margins=margins)

    # fairness_aware
    for g in Group:
        for y, sign in ((0, "-"), (1, "+")):
            cell = f"{g.name}/{sign}"
            series = float(traj.right_table_cum[g, y])
            for f in range(traj.d):
                margins[f"{cell}/{names[f]}"] = (
                    (1.0 + eta) * float(traj.L_fzy[g, y, f]) + slack - series)
            margins[cell] = series - g_eta * float(traj.L_fzy[g, y].min())

    eps = epsilon if epsilon is not None else measured_epsilon(traj)
    rhs = {"fpr": _fairness_rhs(traj, eta, g_eta, eps, config.dirichlet_alpha, label=0),
           "fnr": _fairness_rhs(traj, eta, g_eta, eps, config.dirichlet_alpha, label=1)}
    return BoundReport(gamma_eta=g_eta, margins=margins,
                       fairness_bound_rhs=rhs, epsilon_used=eps)


def _fairness_rhs(traj: Trajectory, eta: float, g_eta: float, eps: float,
                  alpha_prior: float, label: int) -> float | None:
    """Right-hand side of the FPR (label=0) or FNR (label=1) bound, from the
    trajectory's final q and alpha sums and p and mu smoothed from its
    counts with prior mass ``alpha_prior``."""
    if traj.alpha_sums is None:
        return None
    c_b = int(traj.counts[Group.B, label])
    if c_b == 0:
        return None
    best_b = float(traj.L_fzy[Group.B, label].min()) / c_b
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
