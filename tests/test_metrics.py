import dataclasses
import math

import numpy as np
import pytest

import scalar_reference
from scalar_reference import stream_of
from fairmw.domain import Group, NEG, POS, RunConfig
from fairmw.engines import Trajectory, run_trial
from fairmw.errors import FairmwError
from fairmw.experts import ErrorProfile, SyntheticEnsemble
from fairmw.metrics import (
    BoundReport,
    gamma,
    measured_epsilon,
    validate_bounds,
)


def test_gamma_reference_values():
    assert abs(gamma(0.25) - 0.767779828765767) < 1e-12
    assert abs(gamma(0.25) - 0.76778) < 1e-5
    assert abs(gamma(1e-6) - 0.9999990000005002) < 1e-12


def test_gamma_domain():
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(FairmwError, match="gamma requires 0 < eta < 1/2"):
            gamma(bad)


def test_gamma_limits():
    # continuous extensions: 1 at eta -> 0+, 1/2 at eta -> 1/2-
    assert abs(gamma(0.5 - 1e-12) - 0.5) < 1e-9
    assert gamma(1e-9) < 1.0


def test_gamma_monotone_and_bounded():
    grid = np.linspace(0.001, 0.499, 100)
    vals = [gamma(float(e)) for e in grid]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def fabricate(engine, eta, names, rows):
    """rows: (group, label, expected_loss, realized_loss, per-expert losses);
    the prediction is wrong on a round with a realized loss."""
    traj = Trajectory(engine, eta, names, len(rows))
    for i, (g, y, exp, real, losses) in enumerate(rows):
        scalar_reference.record(traj, i, g, y, 1 - y if real else y, real, exp, losses)
    return traj.finish()


def cell_losses(traj):
    """Each expert's loss sums per (group, label) cell, (2, 2, d), summed
    round by round."""
    out = np.zeros((2, 2, traj.d))
    for c, losses in zip(traj.cell.tolist(), traj.losses):
        out[c >> 1, c & 1] += losses
    return out


def from_confusion(confusion):
    """A one-expert trajectory whose rounds have (2, 4) per-group
    (tp, fp, tn, fn) counts ``confusion``."""
    rows = [(g, y, 0.0, wrong, (wrong,))
            for g, row in zip(Group, confusion)
            for (y, wrong), n in zip(((POS, 0.0), (NEG, 1.0), (NEG, 0.0), (POS, 1.0)), row)
            for _ in range(n)]
    return fabricate("mw", 0.3, ["f1"], rows)


def final_gaps(traj):
    return [traj.fpr_gap[-1], traj.fnr_gap[-1], traj.eer_gap[-1]]


def test_final_rates_hand_example():
    traj = from_confusion([[9, 2, 8, 1], [8, 1, 9, 2]])
    (fpr_a, _), (fnr_a, _), (err_a, _) = traj.rates.tolist()
    fpr_gap, fnr_gap, eer_gap = final_gaps(traj)
    assert abs(fpr_a - 0.2) < 1e-15
    assert abs(fnr_a - 0.1) < 1e-15
    assert abs(err_a - 0.15) < 1e-15
    assert abs(fpr_gap - 0.1) < 1e-15
    assert abs(fnr_gap - 0.1) < 1e-15
    assert eer_gap == 0.0


def test_final_rates_column_per_group():
    # column 0 of the (3, 2) rates is group A, column 1 group B
    traj = from_confusion([[9, 2, 8, 1], [8, 1, 9, 2]])
    fpr, fnr, _ = traj.rates
    assert abs(fpr[Group.B] - 0.1) < 1e-15
    assert abs(fnr[Group.B] - 0.2) < 1e-15
    assert abs(fpr[Group.A] - 0.2) < 1e-15
    assert abs(fnr[Group.A] - 0.1) < 1e-15


def test_final_rates_undefined_cells():
    # group A saw no negatives: its fpr and the fpr gap are NaN, not 0
    traj = from_confusion([[2, 0, 0, 1], [1, 1, 1, 1]])
    fpr_gap, fnr_gap, _ = final_gaps(traj)
    assert np.isnan(traj.rates[0, Group.A])
    assert np.isnan(fpr_gap)
    assert not np.isnan(fnr_gap)


def test_regret_hand_example():
    per_round = (3 / 7, 4 / 7, 1.0)
    rows = [(Group.A, POS, 0.6, 5 / 7, per_round)] * 7
    traj = fabricate("mw", 0.3, ["f1", "f2", "f3"], rows)
    assert abs(traj.regret_realized[-1] - 2.0) < 1e-9
    assert abs(traj.regret_expected[-1] - 1.2) < 1e-9


def test_regret_can_be_negative():
    rows = [(Group.A, POS, 0.0, 0.0, (0.5, 1.0))] * 4
    traj = fabricate("mw", 0.3, ["f1", "f2"], rows)
    assert abs(traj.regret_realized[-1] - (-2.0)) < 1e-9
    assert abs(traj.regret_expected[-1] - (-2.0)) < 1e-9


def test_measured_epsilon():
    rows = [
        (Group.A, NEG, 0.5, 0.0, (0.0, 1.0)),
        (Group.A, NEG, 0.5, 1.0, (1.0, 1.0)),
        (Group.B, NEG, 0.5, 0.0, (0.0, 1.0)),
        (Group.A, POS, 0.5, 0.0, (1.0, 1.0)),  # no B positives: skipped
    ]
    traj = fabricate("mw", 0.3, ["f1", "f2"], rows)
    # negatives: A rates (0.5, 1.0), B rates (0.0, 1.0) -> max gap 0.5
    losses = np.array([[[1.0, 2.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
    assert cell_losses(traj).tolist() == losses.tolist()
    assert abs(measured_epsilon(traj, losses) - 0.5) < 1e-12


def test_theorem1_margins_hand_example():
    eta = 0.25
    rows = [(Group.A, POS, 0.5, 1.0, (1.0, 0.0))]
    traj = fabricate("mw", eta, ["f1", "f2"], rows)
    report = validate_bounds(traj, RunConfig(engine="mw", horizon=1, eta=eta))
    slack = math.log(2) / eta
    assert set(report.margins) == {"f1", "f2"}   # mw keys are expert names
    assert abs(report.margins["f1"] - (1.25 + slack - 0.5)) < 1e-12
    assert abs(report.margins["f2"] - (slack - 0.5)) < 1e-12
    assert abs(report.min_margin() - (slack - 0.5)) < 1e-12
    assert report.fairness_bound_rhs is None


def test_group_aware_margins_per_group():
    eta = 0.2
    rows = [
        (Group.A, POS, 0.5, 1.0, (1.0, 0.0)),
        (Group.B, POS, 0.5, 0.0, (0.0, 1.0)),
    ]
    traj = fabricate("group_aware", eta, ["f1", "f2"], rows)
    report = validate_bounds(traj, RunConfig(engine="group_aware", horizon=2, eta=eta))
    slack = math.log(2) / eta
    assert set(report.margins) == {"A/f1", "A/f2", "B/f1", "B/f2"}
    assert abs(report.margins["A/f2"] - (slack - 0.5)) < 1e-12
    assert abs(report.margins["B/f1"] - (slack - 0.5)) < 1e-12
    assert abs(report.margins["A/f1"] - (1.2 + slack - 0.5)) < 1e-12


def test_engine_mismatch():
    traj = fabricate("mw", 0.3, ["f1", "f2"], [(Group.A, POS, 0.5, 0.0, (0, 1))])
    with pytest.raises(FairmwError, match="trajectory from engine 'mw', config says 'group_aware'"):
        validate_bounds(traj, RunConfig(engine="group_aware", horizon=1, eta=0.3))
    # no trajectory is empty: one of zero rounds, or fewer, is not built
    for T in (0, -1):
        with pytest.raises(FairmwError, match=f"got T = {T}"):
            Trajectory("mw", 0.3, ["f1", "f2"], T)


def test_unvisited_cell_margins_are_exact():
    # an all-(A,+) run leaves the other cells empty: lemma 1 margin is
    # exactly ln(d)/eta and lemma 2 margin exactly 0 there
    ens = SyntheticEnsemble([ErrorProfile(0.2, 0.2, 0.2, 0.2),
                             ErrorProfile(0.3, 0.3, 0.3, 0.3)])
    stream = stream_of([(Group.A, POS)] * 12)
    cfg = RunConfig(engine="fairness_aware", horizon=12, eta=0.25, seed=1)
    traj = run_trial(cfg, stream, ens)
    report = validate_bounds(traj, cfg)
    slack = math.log(2) / 0.25
    # keys: "z/y/f" per cell and expert (lemma 1), "z/y" per cell (lemma 2)
    assert len(report.margins) == 4 * 2 + 4
    for cell in ("A/-", "B/-", "B/+"):
        assert report.margins[f"{cell}/expert_0"] == slack
        assert report.margins[f"{cell}/expert_1"] == slack
        assert report.margins[cell] == 0.0
    # the visited cell accumulated real expectation mass
    assert report.margins["A/+"] > 0.0
    # no B arrivals at all: both fairness right-hand sides are undefined
    assert report.fairness_bound_rhs == {"fpr": None, "fnr": None}


def test_margins_cover_every_cell_the_engine_addresses():
    # the golden configs visit every cell; a trial that leaves out cells its
    # engine updates must still report their margins, at their zero-sum
    # values: ln(d)/eta per expert and 0 for the sandwich
    ens = SyntheticEnsemble([ErrorProfile(0.2, 0.3, 0.25, 0.35),
                             ErrorProfile(0.3, 0.2, 0.35, 0.25)])
    slack = math.log(2) / 0.25
    cfg = RunConfig(engine="group_aware", horizon=20, eta=0.25, seed=1)
    traj = run_trial(cfg, stream_of([(Group.A, POS), (Group.A, NEG)] * 10), ens)
    margins = validate_bounds(traj, cfg).margins
    assert sorted(margins) == ["A/expert_0", "A/expert_1", "B/expert_0", "B/expert_1"]
    assert margins["B/expert_0"] == margins["B/expert_1"] == slack
    assert margins["A/expert_0"] != slack

    cfg = RunConfig(engine="fairness_aware", horizon=30, eta=0.25, seed=1)
    traj = run_trial(cfg, stream_of([(Group.A, POS), (Group.B, NEG), (Group.A, NEG)] * 10),
                     ens)
    assert traj.counts[Group.B].tolist() == [10, 0]
    margins = validate_bounds(traj, cfg).margins
    assert sorted(k for k in margins if k.startswith("B/")) == [
        "B/+", "B/+/expert_0", "B/+/expert_1", "B/-", "B/-/expert_0", "B/-/expert_1"]
    assert margins["B/+"] == 0.0
    assert margins["B/+/expert_0"] == margins["B/+/expert_1"] == slack
    assert margins["B/-"] > 0.0


def test_rmw_bounds_hold_on_seeded_run():
    ens = SyntheticEnsemble([ErrorProfile(0.35, 0.1, 0.3, 0.15),
                             ErrorProfile(0.1, 0.35, 0.15, 0.3),
                             ErrorProfile(0.2, 0.2, 0.2, 0.2)])
    rng = np.random.default_rng(77)
    stream = stream_of([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                        for _ in range(600)])
    cfg = RunConfig(engine="fairness_aware", horizon=600, eta=0.1, seed=5,
                    q_recompute_stride=4)
    traj = run_trial(cfg, stream, ens)
    report = validate_bounds(traj, cfg)
    assert report.min_margin() >= -1e-9
    assert report.fairness_bound_rhs["fpr"] is not None
    assert report.fairness_bound_rhs["fpr"] >= 0.0
    assert report.fairness_bound_rhs["fnr"] >= 0.0
    assert report.epsilon_used == measured_epsilon(traj, cell_losses(traj))


def test_epsilon_override_feeds_the_rhs():
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.25, 0.15),
                             ErrorProfile(0.15, 0.25, 0.2, 0.3)])
    rng = np.random.default_rng(31)
    stream = stream_of([(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                        for _ in range(200)])
    cfg = RunConfig(engine="fairness_aware", horizon=200, eta=0.2, seed=9)
    traj = run_trial(cfg, stream, ens)
    low = validate_bounds(traj, cfg, epsilon=0.0)
    high = validate_bounds(traj, cfg, epsilon=0.5)
    assert low.epsilon_used == 0.0 and high.epsilon_used == 0.5
    # the eps * (1 + eta) term moves both sides by the same positive shift
    # unless the absolute value folds; check it responded at all
    assert high.fairness_bound_rhs["fpr"] != low.fairness_bound_rhs["fpr"]


def test_fairness_rhs_reads_the_trial_at_a_non_default_prior():
    # the right-hand sides read the trial's own final q and alpha sums and
    # smooth its counts with the config's prior; built here from the
    # per-round reference and its own Python-float rates, at a prior and
    # stride that no golden case sets
    ens = SyntheticEnsemble([ErrorProfile(0.3, 0.2, 0.25, 0.15),
                             ErrorProfile(0.15, 0.25, 0.2, 0.3),
                             ErrorProfile(0.2, 0.3, 0.1, 0.35)])
    rng = np.random.default_rng(12)
    stream = stream_of([(int(rng.random() < 0.4), int(rng.random() < 0.35))
                        for _ in range(300)])
    cfg = RunConfig(engine="fairness_aware", horizon=300, eta=0.2, seed=6,
                    lam=(1.0, 1.0, 1.0 / 300), dirichlet_alpha=0.25, q_recompute_stride=7)
    ref = scalar_reference.fairness_aware_trial(cfg, stream, ens)
    p, mu_a, mu_b = scalar_reference.rates(ref.counts, 0.25)
    L_fzy = cell_losses(ref)
    eta, g_eta, eps, T = ref.eta, gamma(ref.eta), measured_epsilon(ref, L_fzy), ref.T
    q_a, q_b = ref.q_neg[-1].tolist()
    want = {}
    for key, y, (qa, qb), den_a, den_b in (
            ("fpr", NEG, (q_a, q_b), p * (1.0 - mu_a) * T, (1.0 - p) * (1.0 - mu_b) * T),
            ("fnr", POS, (1.0 - q_a, 1.0 - q_b), p * mu_a * T, (1.0 - p) * mu_b * T)):
        best_b = float(L_fzy[Group.B, y].min()) / int(ref.counts[Group.B, y])
        s_a, s_b = ref.alpha_sums[:, y].tolist()
        want[key] = abs((1.0 + eta - g_eta) * best_b + eps * (1.0 + eta)
                        + (qa * s_a / den_a - qb * s_b / den_b))
    traj = run_trial(cfg, stream, ens)
    assert validate_bounds(traj, cfg).fairness_bound_rhs == want
    default = validate_bounds(traj, dataclasses.replace(cfg, dirichlet_alpha=1.0))
    assert default.fairness_bound_rhs["fpr"] != want["fpr"]


def test_fairness_rhs_none_without_final_state():
    rows = [(Group.A, POS, 0.5, 0.0, (0.0, 1.0)),
            (Group.B, NEG, 0.5, 0.0, (1.0, 0.0))]
    traj = fabricate("fairness_aware", 0.25, ["f1", "f2"], rows)
    report = validate_bounds(
        traj, RunConfig(engine="fairness_aware", horizon=2, eta=0.25))
    assert report.fairness_bound_rhs == {"fpr": None, "fnr": None}


def test_bound_report_min_margin_empty():
    assert BoundReport(gamma_eta=0.7, margins={}).min_margin() is None
