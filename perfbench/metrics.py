"""Names, units and directions of every metric, and the per-layer
arithmetic on a traced run's spans.

BENCHMARK.json lists the same names; the benchmark's tests keep the two in
step.
"""

from __future__ import annotations

import statistics

import spans as sp

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "points_per_s": ("1/s", "higher"),
    "slowest_mode_op_s_p50": ("s", "lower"),
}

PER_LAYER = {
    "hss_core.factor_us_p50": ("us", "lower"),
    "hss_core.factor_calls_per_point": ("count", "lower"),
    "hss_core.solve_us_p50": ("us", "lower"),
    "hss_core.rhs_cols_per_point": ("count", "lower"),
    "hss_core.toeplitz_matrix_us_p50": ("us", "lower"),
    "hss_core.toeplitz_matrix_calls_per_point": ("count", "lower"),
    "hss_core.lu_flops_per_point": ("flop", "lower"),
    "hss_core.self_share": ("ratio", "lower"),
    "hss_core.blas_threads": ("count", "lower"),
    "hss_core.blas1_speedup": ("ratio", "lower"),
    "mmc_model.steady_state_us_p50": ("us", "lower"),
    "mmc_model.steady_state_calls_per_op": ("count", "lower"),
    "mmc_model.feedback_channels_us_p50": ("us", "lower"),
    "mmc_model.openloop_perturbation_us_p50": ("us", "lower"),
    "mmc_model.self_share": ("ratio", "lower"),
    "impedance_engine.point_us_p50": ("us", "lower"),
    "impedance_engine.self_share": ("ratio", "lower"),
    "impedance_engine.find_resonances_ms_p50": ("ms", "lower"),
    "impedance_engine.circulating_us_p50": ("us", "lower"),
    "impedance_engine.failed_point_ratio": ("ratio", "lower"),
    "impedance_engine.excluded_points": ("count", "lower"),
    "cli.self_ms_p50": ("ms", "lower"),
    "cli.parse_config_ms_p50": ("ms", "lower"),
    "cli.csv_bytes": ("B", "lower"),
    "td_sim.us_per_step": ("us", "lower"),
    "td_sim.settle_cycles.open": ("count", "lower"),
    "td_sim.settle_cycles.acv": ("count", "lower"),
    "td_sim.reference_s": ("s", "lower"),
    "td_sim.cycles_per_point": ("count", "lower"),
    "td_sim.window_ratio": ("ratio", "higher"),
    "td_sim.extract_phasor_us_p50": ("us", "lower"),
    "td_sim.self_share": ("ratio", "lower"),
    "td_sim.dev_pct_max": ("%", "lower"),
    "errors.SingularSystemError": ("count", "lower"),
    "errors.PoleAtResonanceError": ("count", "lower"),
    "errors.DegenerateResponseError": ("count", "lower"),
    "errors.DivergenceError": ("count", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.first_point_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

ROOT = "bench.op"      # one span per timed benchmark operation
PROBE = "bench.probe"  # td_sim probes of the traced oracle run


def median(values) -> float:
    """Median, 0.0 for no samples: a layer that did no work reports 0."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num, den) -> float:
    return num / den if den else 0.0


def slowest_mode(ops) -> tuple:
    """(mode, median seconds, samples) of the control mode whose operations
    have the largest median wall time; ``ops`` are (mode, seconds) pairs."""
    by_mode = {}
    for mode, seconds in ops:
        by_mode.setdefault(mode, []).append(seconds)
    return max(((mode, statistics.median(t), len(t))
                for mode, t in by_mode.items()), key=lambda m: m[1])


def span_metrics(spans, points: int, ops: int, steps_per_cycle: int) -> dict:
    """Per-layer metrics of the workload's spans.

    ``points`` counts impedance points attempted, ``ops`` benchmark
    operations; both come from the workload's outputs, not from the spans.
    ``steps_per_cycle`` is td_sim's number of time steps per fundamental
    cycle.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def us(name):
        return median(s.seconds * 1e6 for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    total = sum(s.seconds for s in by_name.get(ROOT, ()))
    layer_self = sp.layer_self_seconds(spans)
    factors = by_name.get("hss_core.DenseFactor.__init__", ())
    # LAPACK's zgetrf count: 8/3 n^3 real flops (computed, not measured)
    lu_flops = sum(8.0 / 3.0 * s.extra ** 3 for s in factors)
    rhs_cols = sum(s.extra for s in by_name.get("hss_core.DenseFactor.solve",
                                                ()))
    steps = sum(s.extra for s in by_name.get(sp.ADVANCE, ()))
    window = sum(s.extra for s in by_name.get(sp.RUN, ()))
    out = {
        "hss_core.factor_us_p50": us("hss_core.DenseFactor.__init__"),
        "hss_core.factor_calls_per_point": ratio(len(factors), points),
        "hss_core.solve_us_p50": us("hss_core.DenseFactor.solve"),
        "hss_core.rhs_cols_per_point": ratio(rhs_cols, points),
        "hss_core.toeplitz_matrix_us_p50": us(
            "hss_core.ToeplitzOperator.matrix"),
        "hss_core.toeplitz_matrix_calls_per_point": ratio(
            calls("hss_core.ToeplitzOperator.matrix"), points),
        "hss_core.lu_flops_per_point": ratio(lu_flops, points),
        "mmc_model.steady_state_us_p50": us("mmc_model.steady_state"),
        "mmc_model.steady_state_calls_per_op": ratio(
            calls("mmc_model.steady_state"), ops),
        "mmc_model.feedback_channels_us_p50": us(
            "mmc_model.feedback_channels"),
        "mmc_model.openloop_perturbation_us_p50": us(
            "mmc_model.build_openloop_perturbation"),
        "impedance_engine.point_us_p50": us("impedance_engine.impedance_at"),
        "impedance_engine.find_resonances_ms_p50": us(
            "impedance_engine.find_resonances") / 1e3,
        "impedance_engine.circulating_us_p50": us(
            "impedance_engine.circulating_impedance_at"),
        "cli.self_ms_p50": median(
            t * 1e3 for t in sp.layer_call_seconds(spans, "cli.main", "cli")),
        "cli.parse_config_ms_p50": us("cli.parse_config") / 1e3,
        "td_sim.extract_phasor_us_p50": us("td_sim.extract_phasor"),
        # integrated cycles per point, and the share of the integrated
        # steps that lands in an analysis window
        "td_sim.cycles_per_point": ratio(steps / steps_per_cycle, points),
        "td_sim.window_ratio": ratio(window, steps),
    }
    for layer in ("hss_core", "mmc_model", "impedance_engine", "td_sim"):
        out[f"{layer}.self_share"] = ratio(layer_self.get(layer, 0.0), total)
    return out
