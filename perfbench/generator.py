"""Seeded inputs for every workload.

One generator turns ``--seed`` into the inputs of a run; the program under
test only ever sees the generated values. Every argument a workload passes
is pinned here, including the ones that equal today's library or CLI
defaults, so a later change of a default does not silently change what the
benchmark measures.

Only the standard library is used, so inputs can be generated (and tested)
without importing the package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

MODES = ("open", "acv", "ccc", "acv+ccc")

# The reference leg of paper_sim.cfg, copied so that an edit of the shipped
# example config cannot change the benchmark's inputs.
REFERENCE_LEG = {
    "vdc": 320e3,
    "arm_inductance": 0.36,
    "arm_resistance": 1.0,
    "sm_capacitance": 140e-6,
    "sm_per_arm": 20,
    "fundamental_freq": 50.0,
    "modulation_index": 0.847,
    "modulation_phase": 0.0,
    "modulation_index_2h": 0.0,
    "modulation_phase_2h": 0.0,
    "load_resistance": 550.0,
    "load_inductance": 0.0,
}
REFERENCE_GAINS = {
    "kpv": 1.0,
    "krv": 20.0,
    "kf": 0.0,
    "resonant_damping": 0.0,
    "ra": 20.0,
    "sampling_period": 1e-4,
}
# every SimConfig field, at the values the CLI uses today
SIM = {
    "dt": 1e-5,
    "settle_cycles": 300,
    "measure_cycles": 2,
    "ramp_cycles": 20,
    "post_ramp_cycles": 30,
    "perturb_freq": 0.0,
    "perturb_amplitude": 0.0,
    "periodicity_tol": 1e-6,
    "reference_settle_cycles": 800,
}
# a shortened schedule, only for the smoke tests of the benchmark itself
SMOKE_SIM = dict(SIM, settle_cycles=12, ramp_cycles=2, post_ramp_cycles=3,
                 measure_cycles=1, reference_settle_cycles=12)

GUARD_BAND_HZ = 2.0
SWEEP_ORDERS = (4, 8)
SWEEP_GRID = (5.0, 500.0, 1.0)          # start, stop, step in Hz
SMOKE_SWEEP_GRID = (5.0, 500.0, 45.0)   # a subset of SWEEP_GRID
SCAN_ORDERS = (4, 8, 16)
SCAN_GRID = (5.0, 495.0, 10.0)
SPOT_GRID = (10.0, 35.0, 80.0, 120.0, 200.0)
# Every oracle campaign integrates the same number of cycles whatever the
# seed: its two probes share a common period of this many fundamental
# cycles, so the measurement window (and with it the cost) is fixed and the
# seed only changes which probes are measured.
ORACLE_COMMON_CYCLES = 10

# names of the CLI configuration keys, in CircuitParams/ControlConfig/
# SimConfig field order
_CLI_KEYS = {
    "vdc": "vdc_v",
    "arm_inductance": "arm_inductance_h",
    "arm_resistance": "arm_resistance_ohm",
    "sm_capacitance": "sm_capacitance_f",
    "sm_per_arm": "sm_per_arm",
    "fundamental_freq": "fundamental_hz",
    "modulation_index": "modulation_index",
    "modulation_phase": "modulation_phase_rad",
    "modulation_index_2h": "modulation_index_2h",
    "modulation_phase_2h": "modulation_phase_2h_rad",
    "load_resistance": "load_resistance_ohm",
    "load_inductance": "load_inductance_h",
    "kpv": "kpv",
    "krv": "krv",
    "kf": "kf",
    "resonant_damping": "resonant_damping",
    "ra": "ra_ohm",
    "sampling_period": "sampling_period_s",
    "dt": "dt_s",
    "settle_cycles": "settle_cycles",
    "measure_cycles": "measure_cycles",
    "ramp_cycles": "ramp_cycles",
    "post_ramp_cycles": "post_ramp_cycles",
    "perturb_amplitude": "perturb_amplitude_v",
    "periodicity_tol": "periodicity_tol",
    "reference_settle_cycles": "reference_settle_cycles",
}


def guard_band_hz(mode: str, gains: dict) -> float:
    """Explicit guard band: the width the engine picks automatically today
    (an undamped resonant voltage loop needs one), pinned per input."""
    undamped = gains["krv"] > 0.0 and gains["resonant_damping"] == 0.0
    return GUARD_BAND_HZ if "acv" in mode and undamped else 0.0


def common_cycles(freqs, f1: float = 50.0) -> int:
    """Fundamental cycles in one common period of f1 and every probe."""
    g = Fraction(f1)
    for f in freqs:
        fr = Fraction(f).limit_denominator(10 ** 6)
        g = Fraction(math.gcd(g.numerator * fr.denominator,
                              fr.numerator * g.denominator),
                     g.denominator * fr.denominator)
    cycles = Fraction(f1) / g
    if cycles.denominator != 1:
        raise ValueError(f"probes {freqs} share no common period with f1")
    return int(cycles)


def grid(spec) -> list:
    start, stop, step = spec
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


# ------------------------------------------------------------------ sweep

def sweep_config_text(mode: str, grid_spec=SWEEP_GRID) -> str:
    """Complete CLI configuration (every key but out_csv) for one sweep."""
    values = dict(REFERENCE_LEG, **REFERENCE_GAINS, **SIM)
    del values["perturb_freq"]          # not a configuration key
    lines = ["# perfbench sweep input, derived from paper_sim.cfg"]
    lines += [f"{_CLI_KEYS[k]} = {v!r}" for k, v in values.items()]
    lines += [
        f"control_mode = {mode}",
        "harmonic_order = 4",
        f"sweep_start_hz = {grid_spec[0]!r}",
        f"sweep_stop_hz = {grid_spec[1]!r}",
        f"sweep_step_hz = {grid_spec[2]!r}",
        f"guard_band_hz = {guard_band_hz(mode, REFERENCE_GAINS)!r}",
    ]
    return "\n".join(lines) + "\n"


def sweep_unit(seed: int, unit: int) -> list:
    """One pass: the four control modes at h = 4 and 8, in seeded order.

    Returns [(name, mode, h)]; name keys the stored reference CSV.
    """
    plan = [(f"{mode}-h{h}", mode, h) for h in SWEEP_ORDERS for mode in MODES]
    random.Random(f"sweep:{seed}:{unit}").shuffle(plan)
    return plan


# ------------------------------------------------------------------- scan

def _scan_params(rng: random.Random) -> dict:
    m = rng.uniform(0.6, 0.95)
    m2 = rng.uniform(0.0, 0.1)
    return {
        "vdc": rng.uniform(200e3, 640e3),
        "arm_inductance": rng.uniform(0.1, 0.6),
        "arm_resistance": rng.uniform(0.2, 3.0),
        "sm_capacitance": rng.uniform(80e-6, 250e-6),
        "sm_per_arm": rng.randint(10, 40),
        "fundamental_freq": 50.0,
        "modulation_index": m,
        "modulation_phase": rng.uniform(-math.pi, math.pi),
        "modulation_index_2h": m2,
        "modulation_phase_2h": rng.uniform(-math.pi, math.pi),
        "load_resistance": rng.uniform(150.0, 1500.0),
        "load_inductance": rng.uniform(0.0, 0.3),
    }


def _valid_scan_point(p: dict) -> bool:
    return (p["load_resistance"] >= 0.0 and p["load_inductance"] >= 0.0
            and p["modulation_index"] + p["modulation_index_2h"] <= 1.0)


def _outside_guard_band(f: float, f1: float) -> bool:
    """Probes stay off the band around f1, where the resonant voltage
    controller has its pole."""
    return abs(f - f1) > GUARD_BAND_HZ


def _draw(rng: random.Random, pool, count: int, f1: float) -> list:
    pool = [f for f in pool if _outside_guard_band(f, f1)]
    return [float(f) for f in sorted(rng.sample(pool, count))]


def scan_point(seed: int, index: int) -> dict:
    """Operating point number ``index`` of the scan for ``seed``.

    Modes cycle through all four and orders through 4, 8, 16, so any twelve
    consecutive points cover every (mode, order) pair once.
    """
    rng = random.Random(f"scan:{seed}:{index}")
    while True:
        params = _scan_params(rng)
        if _valid_scan_point(params):
            break
    gains = {
        "kpv": rng.uniform(0.2, 2.0),
        "krv": rng.uniform(5.0, 50.0),
        "kf": 0.0,
        "resonant_damping": 0.0,
        "ra": rng.uniform(5.0, 40.0),
        "sampling_period": 1e-4,
    }
    mode = MODES[index % len(MODES)]
    return {
        "index": index,
        "mode": mode,
        "order": SCAN_ORDERS[index % len(SCAN_ORDERS)],
        "params": params,
        "gains": gains,
        "guard_band_hz": guard_band_hz(mode, gains),
        # spot probes are whole Hz off the coarse grid, so no spot call
        # repeats a sweep point
        "spot_hz": _draw(rng, [f for f in range(6, 496) if f % 10 != 5], 3,
                         params["fundamental_freq"]),
        "circulating_hz": _draw(rng, range(10, 301, 5), 2,
                                params["fundamental_freq"]),
    }


def scan_unit(seed: int, unit: int, size: int = 12) -> list:
    return [scan_point(seed, unit * size + i) for i in range(size)]


# ----------------------------------------------------------------- oracle

def oracle_pairs(f1: float = 50.0) -> list:
    """Spot-grid probe pairs with the fixed common period (so commensurate
    with f1 well within the simulator's 400-cycle limit), both outside the
    guard band."""
    return [pair for pair in combinations(SPOT_GRID, 2)
            if all(_outside_guard_band(f, f1) for f in pair)
            and common_cycles(pair, f1) == ORACLE_COMMON_CYCLES]


def oracle_unit(seed: int, unit: int) -> list:
    """One open-loop campaign, then one ac-voltage-loop campaign, each with
    its own seeded pair of probe frequencies."""
    rng = random.Random(f"oracle:{seed}:{unit}")
    pairs = oracle_pairs(REFERENCE_LEG["fundamental_freq"])
    return [{"mode": mode, "freqs": list(rng.choice(pairs))}
            for mode in ("open", "acv")]
