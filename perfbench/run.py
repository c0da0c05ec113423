"""The mmc-hss benchmark.

    python3 perfbench/run.py --workload sweep|scan|oracle --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Each run starts fresh child processes with an explicit environment:

* set-up probes, each importing the package and computing a first analytic
  point (``setup_s``);
* one worker that measures whole units of the workload, closed loop with a
  single caller, until ``--seconds`` of timed work have passed, and checks
  every output outside the timed region;
* with ``--trace 1``, the worker also records spans around the package's
  public functions, and for ``sweep`` and ``scan`` a second worker repeats
  one unit with one BLAS thread.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics without tracing, the per-layer metrics with it.
The exit code is 0 whenever that line is printed, also when a check failed.
Everything a run writes goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import environment
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0
# timed set-up probes per run, half before and half after the worker, so
# their median spans the run rather than one moment of the machine's load
SETUP_PROBES = {0: 8, 1: 4}
WORKLOADS = ("sweep", "scan", "oracle")

# per workload: the workload-specific names of its numbers (see README),
# printed beside the workload-neutral gated names
LABELS = {
    "sweep": ("sweep_points_per_s", "sweep_s_p50", "CLI invocation"),
    "scan": ("scan_points_per_s", "scan_op_s_p50", "operating point"),
    "oracle": ("oracle_points_per_min", None, "campaign"),
}
UNIT_NAMES = {"sweep": "pass of 8 CLI sweeps",
              "scan": "cycle of 12 operating points",
              "oracle": "open + acv campaign pair"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(deadline) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before finishing the run")
    return left


def setup_probe(env, deadline) -> dict:
    """Wall time from spawning a fresh interpreter until it has imported the
    package and returned a first analytic point."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "probe"], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(_remaining(deadline), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or not line:
        raise BenchError(f"set-up probe failed: {err.strip()}")
    out = json.loads(line)
    out["wall_s"] = wall
    return out


def run_worker(env, out_dir, args, deadline, trace, seconds) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, WORKER, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    log_path = os.path.join(out_dir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=_remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out; log in {log_path}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}; "
                         f"log in {log_path}")
    with open(os.path.join(out_dir, "result.json"), encoding="ascii") as fh:
        return json.load(fh)


def _ops(result) -> list:
    return [op for unit in result["ops"] for op in unit]


def _failed(op) -> bool:
    return bool(op["error"] or op["point_errors"] or op["mismatch"])


def _line(name, value, unit, note=""):
    print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")


def report_end_to_end(args, result, probes) -> dict:
    ops = _ops(result)
    unit_s = result["unit_seconds"]
    points = sum(op["points"] for op in ops)
    slowest, slowest_s, slowest_n = metrics.slowest_mode(
        (op["mode"], op["seconds"]) for op in ops)
    values = {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "peak_rss_mb": result["peak_rss_mb"],
        "points_per_s": points / sum(unit_s),
        "slowest_mode_op_s_p50": slowest_s,
    }
    rate_name, op_name, op_label = LABELS[args.workload]
    print(f"end-to-end, untraced ({len(unit_s)} x {UNIT_NAMES[args.workload]},"
          f" {len(ops)} {op_label}s, {points} points):")
    if args.workload == "oracle":
        _line(rate_name, 60.0 * values["points_per_s"], "1/min",
              f"n={points} points")
        for mode in ("open", "acv"):
            times = [op["seconds"] for op in ops if op["kind"] == mode]
            _line(f"oracle_{mode}_campaign_s_p50", statistics.median(times),
                  "s", f"n={len(times)}")
    else:
        _line(rate_name, values["points_per_s"], "1/s", f"n={points} points")
        _line(op_name, statistics.median(op["seconds"] for op in ops), "s",
              f"n={len(ops)}")
    notes = {"setup_s": f"n={len(probes)}",
             "slowest_mode_op_s_p50": f"{slowest}, n={slowest_n}"}
    for name in metrics.END_TO_END:
        _line(name, values[name], metrics.END_TO_END[name][0],
              f"(gated) {notes.get(name, '')}")
    return values


def per_layer_values(result, probes, blas1) -> dict:
    values = dict(result["per_layer"])
    values["setup.import_s"] = statistics.median(p["import_s"]
                                                 for p in probes)
    values["setup.first_point_s"] = statistics.median(p["first_point_s"]
                                                      for p in probes)
    values["hss_core.blas_threads"] = result["environment"]["blas_threads_max"]
    # default BLAS threads against one thread, same unit, both untraced;
    # 0 on the oracle, where hss_core does no timed work
    values["hss_core.blas1_speedup"] = (
        result["untraced_unit_s"] / blas1["unit_seconds"][0]
        if blas1 is not None else 0.0)
    missing = set(metrics.PER_LAYER) - set(values)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    print(f"per-layer, traced ({len(result['unit_seconds'])} unit(s); "
          f"untraced unit {result['untraced_unit_s']:.4g} s, traced "
          f"{result['unit_seconds'][0]:.4g} s):")
    for name in metrics.PER_LAYER:
        _line(name, values[name], metrics.PER_LAYER[name][0])
    if result["untraced_targets"]:
        print(f"  not traced (absent from the package): "
              f"{', '.join(result['untraced_targets'])}")
    return {name: values[name] for name in metrics.PER_LAYER}


def bench(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "mmc_hss",
                                       "__init__.py")):
        raise BenchError("src/mmc_hss not found: run from the root of a "
                         "checkout of the repository")
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = environment.child_env(ROOT)

    setup_probe(env, deadline)   # fills byte-code and file caches; untimed
    n_probes = SETUP_PROBES[args.trace]
    probes = [setup_probe(env, deadline) for _ in range(n_probes // 2)]
    result = run_worker(env, out_dir, args, deadline, args.trace,
                        args.seconds)
    probes += [setup_probe(env, deadline)
               for _ in range(n_probes - n_probes // 2)]
    record = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, one "
          f"caller; nproc {record['nproc']}, BLAS {record['blas_vendor']} "
          f"threads {record['blas_threads']}, numba "
          f"{'importable' if record['numba_importable'] else 'absent'}, "
          f"RK4 kernel {record['rk4_kernel']}, python {record['python']}, "
          f"numpy {record['numpy']}, scipy {record['scipy']}, "
          f"commit {record['git_commit']}")
    if args.trace:
        blas1 = None
        if args.workload != "oracle":
            blas1 = run_worker(environment.child_env(ROOT, blas_threads=1),
                               os.path.join(out_dir, "blas1"), args,
                               deadline, 0, seconds=0)
        values = per_layer_values(result, probes, blas1)
        table = metrics.PER_LAYER
    else:
        values = report_end_to_end(args, result, probes)
        table = metrics.END_TO_END

    ops = _ops(result)
    failed = [op for op in ops if _failed(op)]
    checked = sum(op["checked"] for op in ops)
    errors = {k: v for k, v in result["errors"].items() if v}
    verdict = "passed" if not failed else "FAILED"
    unchecked = len(ops) - checked
    print(f"ops attempted {len(ops)}, failed {len(failed)}; checks {verdict}: "
          f"{checked} checked against reference values, {unchecked} "
          f"unchecked{' (beyond the stored references)' if unchecked else ''}"
          f"; typed errors {errors or 'none'}")
    for op in failed[:5]:
        print(f"  failed: {op['kind']}: "
              f"{op['error'] or op['point_errors'] or op['mismatch']}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchError(f"{name} is not finite")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run; whole units, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        summary = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
