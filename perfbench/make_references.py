"""Regenerate the stored reference values the checks compare against.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the root of a checkout whose results are known to be right; it
rewrites ``perfbench/reference/sweep.json`` (every row of the eight sweep
CSVs) and ``perfbench/reference/scan.json`` (the first unit of every seed
in REFERENCE_SEEDS). Scratch files go to ``.perfbench_out/references``.
"""

from __future__ import annotations

import json
import os

import checks
import workloads

REFERENCE_SEEDS = range(0, 20)
# stored coarse-sweep points of a scan point: every fifth grid frequency
SCAN_SWEEP_STRIDE = 5


def _round(x: float) -> float:
    """Twelve significant digits: far below the 1e-9 bar, short on disk."""
    return float(f"{x:.12g}")


def sweep_reference(workdir) -> dict:
    wl = workloads.Sweep(workloads.Clock(), workdir, seed=0)
    ops = wl.run(wl.inputs(0))
    out = {}
    for op in sorted(ops, key=lambda op: op.kind):
        if op.error is not None:
            raise RuntimeError(f"{op.kind}: {op.error}")
        out[op.kind] = [list(row) for row in checks.read_sweep_csv(op.csv)]
    return out


def scan_reference() -> dict:
    out = {}
    for seed in REFERENCE_SEEDS:
        wl = workloads.Scan(workloads.Clock(), None, seed)
        for op in wl.run(wl.inputs(0)):
            if op.error is not None or op.point_errors:
                raise RuntimeError(f"seed {seed} point {op.kind} failed")
            v = op.values
            out[f"{seed}:{op.kind}"] = {
                "sweep": [[f, _round(re), _round(im)]
                          for f, re, im in v["sweep"][::SCAN_SWEEP_STRIDE]],
                "spot": [[_round(re), _round(im)] for re, im in v["spot"]],
                "circulating": [[_round(re), _round(im)]
                                for re, im in v["circulating"]],
                "resonances": [[_round(f), kind]
                               for f, kind in v["resonances"]],
            }
        print(f"scan seed {seed} done", flush=True)
    return out


def _write(name, data):
    path = os.path.join(checks.REFERENCE_DIR, f"{name}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workdir = os.path.join(root, ".perfbench_out", "references")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    _write("sweep", sweep_reference(workdir))
    _write("scan", scan_reference())


if __name__ == "__main__":
    main()
