"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start the real command on minimal inputs, so they need the
package source in src/ and take about a minute in total.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import generator  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


# -------------------------------------------------------------- generator

def test_generator_is_deterministic_per_seed():
    for make in (generator.sweep_unit, generator.scan_unit,
                 generator.oracle_unit):
        assert make(7, 0) == make(7, 0)
        assert make(7, 1) == make(7, 1)
    assert generator.scan_unit(7, 0) != generator.scan_unit(8, 0)
    assert generator.scan_unit(7, 0) != generator.scan_unit(7, 1)
    assert generator.sweep_config_text("acv") == generator.sweep_config_text(
        "acv")


def test_generated_inputs_are_valid():
    grid = set(generator.grid(generator.SCAN_GRID))
    for seed in range(30):
        for point in generator.scan_unit(seed, 0):
            p = point["params"]
            assert p["load_resistance"] >= 0 and p["load_inductance"] >= 0
            assert p["modulation_index"] + p["modulation_index_2h"] <= 1.0
            assert not grid & set(point["spot_hz"])
            assert all(abs(f - 50.0) > generator.GUARD_BAND_HZ
                       for f in point["spot_hz"] + point["circulating_hz"])
        for campaign in generator.oracle_unit(seed, 0):
            freqs = campaign["freqs"]
            assert set(freqs) <= set(generator.SPOT_GRID)
            assert generator.common_cycles(freqs) \
                == generator.ORACLE_COMMON_CYCLES
            assert all(abs(f - 50.0) > generator.GUARD_BAND_HZ for f in freqs)
    # twelve consecutive scan points cover every (mode, order) pair
    unit = generator.scan_unit(3, 0)
    assert len({(p["mode"], p["order"]) for p in unit}) == 12


# ---------------------------------------------------------------- checks

def test_sweep_checker_flags_a_1e6_perturbation():
    ref = checks.load_reference("sweep")["acv-h8"]
    grid = generator.grid(generator.SWEEP_GRID)
    rows = [tuple(r) for r in ref]
    assert checks.compare_sweep(rows, ref, grid) is None
    f, re, im = rows[100]
    rows[100] = (f, re * (1 + 1e-6), im)
    assert checks.compare_sweep(rows, ref, grid) is not None
    # a change within the CSV's ninth digit is not a mismatch
    rows[100] = (f, re + 0.5 * checks._ninth_digit(re), im)
    assert checks.compare_sweep(rows, ref, grid) is None
    # a missing row is
    assert checks.compare_sweep(rows[:-1], ref, grid) is not None


def test_scan_checker_flags_a_1e6_perturbation():
    ref = checks.load_reference("scan")["0:1"]
    values = json.loads(json.dumps(ref))
    assert checks.compare_scan(values, ref) is None
    values["spot"][1][0] *= 1 + 1e-6
    assert checks.compare_scan(values, ref) is not None
    values = json.loads(json.dumps(ref))
    values["sweep"][2][2] *= 1 + 1e-12
    assert checks.compare_scan(values, ref) is None
    values["circulating"][0][1] *= 1 + 1e-6
    assert checks.compare_scan(values, ref) is not None


def test_a_failed_cli_sweep_is_counted_by_class(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    sweep = workloads.Sweep(workloads.Clock(), str(tmp_path), 1, smoke=True)
    with open(sweep.configs["acv"], "w", encoding="ascii") as fh:
        fh.write("vdc_v = -1\n")
    ops = sweep.run([("acv-h4", "acv", 4)])
    assert ops[0].error == "exit2"
    sweep.check(ops)
    assert ops[0].error == "ConfigError"


# ----------------------------------------------------------------- spans

def _tree():
    # root [0, 10] -> a [1, 4] -> g [2, 3];  root -> b [5, 9]
    return [
        spans.Span("bench.op", 0.0, 10.0, -1, 0),
        spans.Span("cli.main", 1.0, 4.0, 0, 0),
        spans.Span("impedance_engine.sweep", 2.0, 3.0, 1, 0),
        spans.Span("cli.parse_config", 5.0, 9.0, 0, 0),
    ]


def test_self_time_arithmetic():
    tree = _tree()
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert spans.layer_self_seconds(tree) == {
        "bench": 3.0, "cli": 6.0, "impedance_engine": 1.0}
    # per root: the cli layer's own time, other layers' children excluded
    assert spans.layer_call_seconds(tree, "bench.op", "cli") == [6.0]
    assert spans.layer_call_seconds(tree, "cli.main", "cli") == [2.0]


def test_td_sim_work_is_counted_from_the_steps_integrated():
    # one campaign of 2 points: 3 schedules of 10 settling steps plus a
    # 4-step window, and a 6-step reference cycle
    tree = [spans.Span("bench.op", 0.0, 10.0, -1, 0),
            spans.Span("td_sim.measure_impedance_many", 0.0, 10.0, 0, 0)]
    for k in range(3):
        tree.append(spans.Span(spans.RUN, k, k + 1.0, 1, 0, extra=4))
        run = len(tree) - 1
        tree.append(spans.Span(spans.ADVANCE, k, k + 0.5, run, 0, extra=10))
        tree.append(spans.Span(spans.ADVANCE, k + 0.5, k + 1.0, run, 0,
                               extra=4))
    tree.append(spans.Span(spans.ADVANCE, 4.0, 5.0, 1, 0, extra=6))
    out = metrics.span_metrics(tree, points=2, ops=1, steps_per_cycle=2)
    assert out["td_sim.cycles_per_point"] == (3 * 14 + 6) / 2 / 2
    assert out["td_sim.window_ratio"] == 12 / 48
    # no td_sim work: both read 0
    out = metrics.span_metrics(_tree(), points=2, ops=1, steps_per_cycle=2)
    assert out["td_sim.cycles_per_point"] == out["td_sim.window_ratio"] == 0


def test_slowest_mode_is_the_largest_median():
    ops = [("open", 1.0), ("acv", 5.0), ("open", 3.0), ("acv", 6.0),
           ("acv", 100.0), ("ccc", 5.5)]
    assert metrics.slowest_mode(ops) == ("acv", 6.0, 3)


def test_tracer_records_nesting_and_skips_when_disabled():
    tracer = spans.Tracer()
    inner = tracer.wrap("hss_core.inner", lambda x: x + 1)
    outer = tracer.wrap("mmc_model.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    with tracer.root(metrics.ROOT, 5):
        outer(1)
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [(metrics.ROOT, -1, 5), ("mmc_model.outer", 0, 5),
                     ("hss_core.inner", 1, 5)]
    self_t = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in self_t)
    assert sum(self_t) == pytest.approx(tracer.spans[0].seconds)


# --------------------------------------------------------------- contract

def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "scan",
                                                      "oracle"]


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


WORKLOAD_NAMES = {
    "sweep": ("sweep_points_per_s", "sweep_s_p50"),
    "scan": ("scan_points_per_s", "scan_op_s_p50"),
    "oracle": ("oracle_points_per_min", "oracle_open_campaign_s_p50",
               "oracle_acv_campaign_s_p50"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "scan", "oracle"])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(summary["metrics"]) == set(table)
    for name, entry in summary["metrics"].items():
        assert entry["unit"] == table[name][0]
        assert isinstance(entry["value"], (int, float))
    if trace:
        m = {k: v["value"] for k, v in summary["metrics"].items()}
        # the oracle is pure time stepping, the analytic workloads use none
        if workload == "oracle":
            assert m["hss_core.self_share"] == 0.0
            assert m["td_sim.us_per_step"] > 0.0
        else:
            assert m["td_sim.self_share"] == 0.0
            assert m["hss_core.factor_calls_per_point"] > 0.0
    else:
        text = "\n".join(lines[:-1])
        for name in WORKLOAD_NAMES[workload]:
            assert name in text
        assert all(summary["metrics"][k]["value"] > 0
                   for k in metrics.END_TO_END)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
