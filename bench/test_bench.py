"""The benchmark's own tests: every correctness check fails on a corrupted
copy of a real output, the traced run reports every per-layer metric, and
BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import time
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = run.ROOT
SEED = 5


def small(name: str, tmp: Path) -> workloads.Workload:
    """The named workload cut down to run in about a second."""
    w = workloads.WORKLOADS[name]
    if name == "mw_long":
        text = (ROOT / w.config).read_text(encoding="utf-8")
        cfg = tmp / "mw_short.cfg"
        cfg.write_text(text.replace("horizon = 200000", "horizon = 20000"), encoding="utf-8")
        return dataclasses.replace(w, config=cfg)
    if name == "dataset_builtin":
        return dataclasses.replace(w, csv_rows=3000)
    return w


def operate(name: str, tmp: Path, trace: bool = False):
    prep = workloads.prepare(small(name, tmp), ROOT, tmp, SEED, trials=2)
    op = run.Operation(prep, tmp, workers=1, trace=trace, deadline=time.monotonic() + 120)
    return prep, op


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def output(request, tmp_path_factory):
    """(workload name, prepared inputs, a checked output directory)."""
    tmp = tmp_path_factory.mktemp(request.param)
    prep, op = operate(request.param, tmp)
    assert op.errors == []
    return request.param, prep, tmp / "out"


def corrupted(output, tmp: Path, summary_edit=None, rows_edit=None) -> list[str]:
    """Check a copy of ``output`` after editing its summary and rounds."""
    name, prep, out = output
    copy = tmp / "corrupt"
    shutil.copytree(out, copy)
    summary, header, rows = checks.load_outputs(copy)
    if summary_edit:
        summary_edit(summary)
        (copy / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    if rows_edit:
        rows_edit(rows)
        with open(copy / "rounds.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
    return checks.check_run(name, copy, prep.cfg, prep.planted)


def test_unmodified_copy_passes(output, tmp_path):
    assert corrupted(output, tmp_path) == []


def test_margin_below_threshold_fails(output, tmp_path):
    def edit(s):
        s["trial_results"][1]["min_bound_margin"] = -2e-9
    assert any("min_bound_margin" in e for e in corrupted(output, tmp_path, edit))


def test_missing_round_fails(output, tmp_path):
    errors = corrupted(output, tmp_path, rows_edit=lambda rows: rows.pop(len(rows) // 2))
    assert any("data rows" in e for e in errors)
    assert any("t column" in e for e in errors)


def test_final_regret_mismatch_fails(output, tmp_path):
    def edit(rows):
        rows[-1][3] = repr(float(rows[-1][3]) * (1 + 1e-6) + 1e-6)
    assert any("regret_expected" in e for e in corrupted(output, tmp_path, rows_edit=edit))


def test_horizon_mismatch_fails(output, tmp_path):
    def edit(s):
        s["horizon"] += 1
    assert any("horizon" in e for e in corrupted(output, tmp_path, edit))


def test_changed_bytes_fail(output):
    first = checks.digest(output[2])
    assert checks.same_bytes(first, dict(first)) == []
    assert checks.same_bytes(first, {**first, "rounds.csv": "0" * 64}) != []


def only(name):
    return pytest.mark.parametrize("output", [name], indirect=True)


@only("fair_preset")
def test_fair_preset_group_share_fails(output, tmp_path):
    def edit(s):
        (a_neg, a_pos), (b_neg, b_pos) = s["trial_results"][0]["counts"]
        shift = (a_neg + a_pos) // 20
        s["trial_results"][0]["counts"] = [[a_neg - shift, a_pos], [b_neg + shift, b_pos]]
    assert any("group A share" in e for e in corrupted(output, tmp_path, edit))


@only("fair_preset")
def test_fair_preset_q_outside_unit_interval_fails(output, tmp_path):
    def edit(rows):
        rows[10][8] = "1.5"
    assert any("outside [0, 1]" in e for e in corrupted(output, tmp_path, rows_edit=edit))


@only("fair_preset")
def test_fair_preset_gap_above_best_assignment_fails(output, tmp_path):
    assert checks.best_assignment_gaps(output[1].cfg) == pytest.approx((0.07, 0.27))

    def edit(s):
        for tr in s["trial_results"]:
            tr["fnr_gap"] = 0.27
    assert any("mean fnr_gap" in e for e in corrupted(output, tmp_path, edit))


@only("mw_long")
def test_mw_long_q_column_filled_fails(output, tmp_path):
    def edit(rows):
        rows[3][7] = "0.5"
    assert any("q columns" in e for e in corrupted(output, tmp_path, rows_edit=edit))


@only("mw_long")
@pytest.mark.parametrize("error_rate", [0.14, 0.25])
def test_mw_long_error_rate_outside_bounds_fails(output, tmp_path, error_rate):
    def edit(s):
        for tr in s["trial_results"]:
            tr["error_rate"] = error_rate
    assert any("mean error_rate" in e for e in corrupted(output, tmp_path, edit))


@only("dataset_builtin")
@pytest.mark.parametrize("key", ["rows_read", "rows_kept", "drops"])
def test_dataset_ingest_report_off_by_one_fails(output, tmp_path, key):
    def edit(s):
        report = s["ingest_report"]
        if key == "drops":
            report["drops"]["missing_feature"] += 1
        else:
            report[key] -= 1
    assert any(f"ingest_report {key}" in e for e in corrupted(output, tmp_path, edit))


@only("dataset_builtin")
def test_dataset_stats_mismatch_fails(output, tmp_path):
    def edit(s):
        s["data_stats"]["p"] += 1e-6
    assert any("data_stats p" in e for e in corrupted(output, tmp_path, edit))


@only("dataset_builtin")
def test_dataset_error_above_majority_fails(output, tmp_path):
    def edit(s):
        for tr in s["trial_results"]:
            tr["error_rate"] = output[1].planted["majority_error"]
    assert any("majority-class" in e for e in corrupted(output, tmp_path, edit))


def test_census_generator_is_seeded(tmp_path):
    a = workloads.census.generate(tmp_path / "a.csv", 3, 500, 0.1)
    b = workloads.census.generate(tmp_path / "b.csv", 3, 500, 0.1)
    assert a == b and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a["rows_kept"] == 500 - a["rows_missing"] == sum(map(sum, a["counts"]))
    text = (tmp_path / "a.csv").read_text()
    assert ">50K." in text and ", ?," in text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    prep, op = operate(name, tmp_path, trace=True)
    assert op.errors == [] and op.absent == []
    assert set(op.layers) == {m[0] for m in tracing.PER_LAYER}
    horizon = checks.expected_horizon(prep.cfg, prep.planted)
    assert op.layers["engines.rounds"] == 2 * horizon
    calls = op.layers["qopt.solve_q.calls"]
    assert calls == (2 * (horizon - 1) if name == "fair_preset" else 0)
    if name == "dataset_builtin":
        assert op.layers["ingest.load_dataset.rows"] == prep.planted["rows_written"]


def test_missing_function_is_marked_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    tracer = tracing.Tracer()
    tracer.install([("qopt.solve_q", "fairmw.engines", "no_such_function"),
                    ("domain.WeightTable.update", "fairmw.domain", "NoSuchClass.update")])
    assert tracer.absent == {"qopt.solve_q", "domain.WeightTable.update"}
    values, absent = tracing.per_layer_metrics({}, {"absent": sorted(tracer.absent),
                                                    "failed_hooks": [], "counters": {}},
                                               rounds=1, output_bytes=1, overhead_pct=0.0)
    assert {"qopt.solve_q.calls", "qopt.solve_q.us_per_call",
            "domain.WeightTable.update.us_per_call"} == set(absent)
    assert values["qopt.solve_q.calls"] == 0


def test_self_time_subtracts_children():
    np = pytest.importorskip("numpy")
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner holds leaf [2, 3]
    names = ["outer", "inner", "leaf"]
    name = np.array([0, 1, 2, 1], dtype=np.uint16)
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    stats = tracing.layer_stats(names, name, parent, start, end)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert stats["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert stats["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [m[:3] for m in tracing.PER_LAYER]
