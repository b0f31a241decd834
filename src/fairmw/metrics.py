"""Fairness/performance metrics and deterministic bound evaluators.

The bound checks are exact inequalities about expectation series, so they
are evaluated from trajectory aggregates with no Monte Carlo involved:

* theorem1_margin (mw; per group slice for group_aware): for every
  expert f, (1+eta) * L_f + ln(d)/eta - sum_t expected_loss_t >= 0.
* lemma1_margin (fairness_aware): per cell (z,y) and expert f,
  (1+eta) * L_{f,z,y} + ln(d)/eta - right_table_expected_loss_{z,y} >= 0.
* lemma2_margin (fairness_aware): per cell, right_table series
  >= gamma(eta) * min_f L_{f,z,y}.
* fairness_bound_rhs: the FPR/FNR bound right-hand sides with plug-in
  estimates (empirical best-in-hindsight cell loss, smoothed p and mu,
  final q, supplied or measured epsilon).

A margin >= 0 means the bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Group, RunConfig
from .errors import DomainError, EmptyTrajectory, EngineMismatch
from .engines import Trajectory

__all__ = [
    "gamma",
    "FairnessReport",
    "compute_rates",
    "regret",
    "BoundReport",
    "validate_bounds",
    "measured_epsilon",
]


def gamma(eta: float) -> float:
    """ln(1-eta) / ln(1-eta(1+eta)); in (0,1) on the open interval (0, 1/2)."""
    if not 0.0 < eta < 0.5:
        raise DomainError(f"gamma requires 0 < eta < 1/2, got {eta}")
    return math.log1p(-eta) / math.log1p(-eta * (1.0 + eta))


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
    theorem1_margin: dict | None = None       # expert name -> margin (mw),
                                              # (group, name) -> margin (group_aware)
    lemma1_margin: dict | None = None         # (group, label, name) -> margin
    lemma2_margin: dict | None = None         # (group, label) -> margin
    fairness_bound_rhs: dict | None = None    # {"fpr": rhs|None, "fnr": rhs|None}
    epsilon_used: float | None = None

    def min_margin(self) -> float | None:
        pools = [m.values() for m in (self.theorem1_margin, self.lemma1_margin,
                                      self.lemma2_margin) if m]
        vals = [v for pool in pools for v in pool]
        return min(vals) if vals else None


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
        return BoundReport(gamma_eta=g_eta, theorem1_margin=margins)

    if traj.engine == "group_aware":
        margins = {}
        for g in (Group.A, Group.B):
            lhs = float(traj.L_z[g])
            for f in range(traj.d):
                margins[g.name, names[f]] = (
                    (1.0 + eta) * float(traj.L_fz[g, f]) + slack - lhs)
        return BoundReport(gamma_eta=g_eta, theorem1_margin=margins)

    # fairness_aware
    lemma1 = {}
    lemma2 = {}
    for g in (Group.A, Group.B):
        for y in (0, 1):
            series = float(traj.right_table_cum[g, y])
            for f in range(traj.d):
                lemma1[g.name, y, names[f]] = (
                    (1.0 + eta) * float(traj.L_fzy[g, y, f]) + slack - series)
            lemma2[g.name, y] = series - g_eta * float(traj.L_fzy[g, y].min())

    eps = epsilon if epsilon is not None else measured_epsilon(traj)
    rhs = {"fpr": _fairness_rhs(traj, eta, g_eta, eps, label=0),
           "fnr": _fairness_rhs(traj, eta, g_eta, eps, label=1)}
    return BoundReport(gamma_eta=g_eta, lemma1_margin=lemma1, lemma2_margin=lemma2,
                       fairness_bound_rhs=rhs, epsilon_used=eps)


def _fairness_rhs(traj: Trajectory, eta: float, g_eta: float, eps: float,
                  label: int) -> float | None:
    """Right-hand side of the FPR (label=0) or FNR (label=1) bound."""
    if traj.alpha_sums is None or traj.q_final is None:
        return None
    c_b = int(traj.counts[Group.B, label])
    if c_b == 0:
        return None
    best_b = float(traj.L_fzy[Group.B, label].min()) / c_b
    p = traj.p_hat_final
    mu_a, mu_b = traj.mu_hat_final
    T = traj.T
    qv = traj.q_final.as_vector()  # (a-, b-, a+, b+)
    s = traj.alpha_sums
    if label == 0:
        q_a, q_b = qv[0], qv[1]
        den_a, den_b = p * (1.0 - mu_a) * T, (1.0 - p) * (1.0 - mu_b) * T
        s_a, s_b = float(s[0, 0]), float(s[1, 0])
    else:
        q_a, q_b = qv[2], qv[3]
        den_a, den_b = p * mu_a * T, (1.0 - p) * mu_b * T
        s_a, s_b = float(s[0, 1]), float(s[1, 1])
    return abs((1.0 + eta - g_eta) * best_b + eps * (1.0 + eta)
               + (q_a * s_a / den_a - q_b * s_b / den_b))
