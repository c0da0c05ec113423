"""Child process of the benchmark: a set-up probe or one workload run.

    worker.py probe
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
                  [--smoke]

``probe`` imports the package, computes the first analytic point and prints
its two timings as one JSON line. ``run`` measures whole units of a
workload until ``--seconds`` of timed work have passed (at least one unit)
and writes ``result.json``, ``inputs.json`` and, when traced,
``spans.json`` into ``--out``.

Warm-up rule: every process computes one analytic point on the reference
leg (``first_point``) before anything is timed. That point, with the
imports before it, is what a user pays once per process, and ``setup_s``
measures exactly that in fresh processes. Nothing else is excluded; caches
a CLI user pays for on every call are cleared before every operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import environment
import generator as gen
import metrics
import spans

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_point():
    from mmc_hss import impedance_engine, mmc_model
    params = mmc_model.CircuitParams(**gen.REFERENCE_LEG)
    control = mmc_model.ControlConfig(mode="acv+ccc", **gen.REFERENCE_GAINS)
    return impedance_engine.impedance_at(params, control, 35.0, order=8)


def probe() -> None:
    t0 = time.perf_counter()
    import mmc_hss  # noqa: F401
    from mmc_hss import impedance_engine, mmc_model  # noqa: F401
    t1 = time.perf_counter()
    first_point()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_point_s": t2 - t1}),
          flush=True)


# --------------------------------------------------------------- td_sim

PROBE_METRICS = ("td_sim.us_per_step", "td_sim.settle_cycles.open",
                 "td_sim.settle_cycles.acv", "td_sim.reference_s")


def _oracle_probes(tracer, wl) -> dict:
    """Single simulate calls on the reference leg, for the td_sim layer:
    cost per integrated step, settling, and the cold reference cycle."""
    from mmc_hss import td_sim

    def timed_simulate(mode):
        first = len(tracer.spans)
        with tracer.root(metrics.PROBE, -2) as root:
            series = td_sim.simulate(wl.params, wl.control(mode), wl.sim)
        steps = sum(s.extra for s in tracer.spans[first:]
                    if s.name == spans.ADVANCE)
        return root.seconds, steps, series

    td_sim.reset_caches()
    open_s, open_steps, open_series = timed_simulate("open")
    cold_s, _, _ = timed_simulate("acv")
    warm_s, _, acv_series = timed_simulate("acv")
    return {
        "td_sim.us_per_step": open_s / open_steps * 1e6,
        "td_sim.settle_cycles.open": open_series.settle_cycles_used,
        "td_sim.settle_cycles.acv": acv_series.settle_cycles_used,
        "td_sim.reference_s": cold_s - warm_s,
    }


# ------------------------------------------------------------------ run

def _error_counts(ops, names) -> dict:
    counts = dict.fromkeys(names, 0)
    for op in ops:
        if op.error in counts:
            counts[op.error] += 1
        for name, k in op.point_errors.items():
            if name in counts:
                counts[name] += k
    return counts


def _per_layer(args, tracer, wl, ops, result, untraced_s) -> dict:
    """Per-layer metrics of a traced run (run.py adds set-up and BLAS)."""
    failed_points = sum(sum(op.point_errors.values()) for op in ops)
    attempted_points = sum(op.points for op in ops) + failed_points
    steps_per_cycle = round(1.0 / (gen.REFERENCE_LEG["fundamental_freq"]
                                   * gen.SIM["dt"]))
    out = metrics.span_metrics(tracer.spans, attempted_points, len(ops),
                               steps_per_cycle)
    if args.workload == "oracle":
        out.update(_oracle_probes(tracer, wl))
        sweeps = []
    else:
        out.update(dict.fromkeys(PROBE_METRICS, 0.0))
        sweeps = ops
    out.update({
        "td_sim.dev_pct_max": max(op.dev_pct for op in ops),
        "impedance_engine.failed_point_ratio": metrics.ratio(
            failed_points, attempted_points),
        "impedance_engine.excluded_points": metrics.ratio(
            sum(op.excluded for op in sweeps), len(sweeps)),
        "cli.csv_bytes": metrics.median(
            op.csv_bytes for op in ops if op.csv_bytes),
        "trace.overhead_pct": (result["unit_seconds"][0] - untraced_s)
        / untraced_s * 100.0,
    })
    out.update({f"errors.{k}": v for k, v in result["errors"].items()})
    return out


def _write_json(directory, name, data) -> None:
    with open(os.path.join(directory, name), "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1)


def run(args) -> None:
    import workloads

    first_point()
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](workloads.Clock(tracer), args.out,
                                            args.seed, args.smoke)
    plans, units = [], []

    def measure(unit):
        plan = wl.inputs(unit)
        ops = wl.run(plan)
        # checks run outside the timed region, and untraced
        with tracer.paused() if tracer else contextlib.nullcontext():
            wl.check(ops)
        return plan, ops

    untraced_s = None
    if args.trace:
        # the same first unit, untraced then traced, gives the overhead
        _, ops = measure(0)
        untraced_s = sum(op.seconds for op in ops)
        import mmc_hss
        missing = tracer.install(mmc_hss)
        tracer.enabled = True
    timed = 0.0
    while True:
        plan, ops = measure(len(units))
        plans.append(plan)
        units.append(ops)
        timed += sum(op.seconds for op in ops)
        if timed >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_ops = [op for ops in units for op in ops]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment.record(ROOT_DIR),
        "unit_seconds": [sum(op.seconds for op in ops) for ops in units],
        "ops": [[op.as_dict() for op in ops] for ops in units],
        "peak_rss_mb": peak_rss_mb,
        "errors": _error_counts(all_ops, workloads.ERROR_NAMES),
    }
    if args.trace:
        result["per_layer"] = _per_layer(args, tracer, wl, all_ops, result,
                                          untraced_s)
        result["untraced_unit_s"] = untraced_s
        result["untraced_targets"] = missing
        _write_json(args.out, "spans.json",
                    [[s.name, s.start, s.end, s.parent, s.op]
                     for s in tracer.spans])
    _write_json(args.out, "inputs.json", {
        "workload": args.workload, "seed": args.seed, "units": plans})
    _write_json(args.out, "result.json", result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("probe")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True,
                       choices=("sweep", "scan", "oracle"))
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "probe":
        probe()
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
