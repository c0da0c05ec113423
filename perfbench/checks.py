"""Correctness checks against values stored from a known-good commit.

The analytic engine is held to a 1e-9 relative bar. Sweep CSVs carry nine
significant digits, so a CSV value may in addition differ from its
reference by one unit in the ninth digit of each component.
"""

from __future__ import annotations

import functools
import json
import math
import os

RTOL = 1e-9
SWEEP_CSV_HEADER = "freq_hz,z_re_ohm,z_im_ohm,z_mag_db,z_phase_deg"
# resonance frequencies come out of a parabolic fit through three grid
# points, which amplifies a 1e-9 change of |Z|
RESONANCE_RTOL = 1e-6
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@functools.lru_cache(maxsize=None)
def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def close(a: complex, b: complex, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _ninth_digit(x: float) -> float:
    """One unit in the ninth significant digit of x."""
    if x == 0.0:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def read_sweep_csv(path: str) -> list:
    """[(freq_hz, re, im)] from an ``mmc-hss sweep`` CSV."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"{path}: unexpected CSV header")
    rows = []
    for line in lines[1:]:
        f, re, im, _, _ = (float(v) for v in line.split(","))
        rows.append((f, re, im))
    return rows


def compare_sweep(rows, reference, grid) -> str | None:
    """None when the CSV rows match the reference rows on ``grid``, else a
    description of the first difference."""
    wanted = set(grid)
    expected = [r for r in reference if r[0] in wanted]
    if [r[0] for r in rows] != [r[0] for r in expected]:
        return (f"frequency column differs: {len(rows)} rows against "
                f"{len(expected)} expected")
    for (f, re, im), (_, re_ref, im_ref) in zip(rows, expected):
        z, z_ref = complex(re, im), complex(re_ref, im_ref)
        allowed = (RTOL * abs(z_ref) + _ninth_digit(re_ref)
                   + _ninth_digit(im_ref))
        if not abs(z - z_ref) <= allowed:
            return f"{f:g} Hz: {z} against reference {z_ref}"
    return None


def compare_scan(values: dict, reference: dict) -> str | None:
    """None when a scan point's results match its stored reference."""
    sweep = {f: complex(re, im) for f, re, im in values["sweep"]}
    for f, re, im in reference["sweep"]:
        if f not in sweep or not close(sweep[f], complex(re, im)):
            return (f"sweep at {f:g} Hz: {sweep.get(f)} against "
                    f"{complex(re, im)}")
    for key in ("spot", "circulating"):
        for i, ((re, im), (re_ref, im_ref)) in enumerate(
                zip(values[key], reference[key], strict=True)):
            if not close(complex(re, im), complex(re_ref, im_ref)):
                return (f"{key} point {i}: {complex(re, im)} against "
                        f"{complex(re_ref, im_ref)}")
    found, ref = values["resonances"], reference["resonances"]
    if [k for _, k in found] != [k for _, k in ref]:
        return f"resonances {found} against {ref}"
    for (f, _), (f_ref, _) in zip(found, ref):
        if abs(f - f_ref) > RESONANCE_RTOL * abs(f_ref):
            return f"resonance at {f} Hz against {f_ref} Hz"
    return None
