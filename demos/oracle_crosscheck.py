"""Cross-check of the harmonic impedance model against brute simulation.

The analytic numbers come from the harmonic model's modal solve per
frequency, with the controller channels closed around it; the reference
numbers from integrating the nonlinear averaged leg, probing it with a
small series voltage, and projecting the response onto the probe
frequency. The two share nothing but the circuit equations, so
agreement here is the evidence that the lifted model is wired correctly,
including the sampled controller with its one-and-a-half-sample delay.

Runs the open loop and the ac-voltage loop at a handful of frequencies
and prints the worst deviation of each. Takes about half a minute.
"""

import numpy as np

from mmc_hss import impedance_engine, mmc_model, td_sim

PARAMS = mmc_model.CircuitParams(
    vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
    sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
    modulation_index=0.847, load_resistance=550.0,
)
FREQS = (10.0, 35.0, 80.0, 120.0, 200.0)


def crosscheck(name, config):
    print(f"--- {name}")
    print(f"{'freq_hz':>8s} {'analytic':>22s} {'simulated':>22s} "
          f"{'dmag_pct':>9s} {'dphase_deg':>10s}")
    measured = td_sim.measure_impedance_many(
        PARAMS, config, td_sim.SimConfig(), FREQS)
    worst_mag = worst_phase = 0.0
    for f in FREQS:
        za = impedance_engine.impedance_at(PARAMS, config, f).impedance
        zt = measured[f].impedance
        dmag = abs(abs(zt) - abs(za)) / abs(za) * 100.0
        dphase = abs(np.degrees(np.angle(zt * np.conj(za))))
        worst_mag = max(worst_mag, dmag)
        worst_phase = max(worst_phase, dphase)
        print(f"{f:8g} {abs(za):10.4f} @ {np.degrees(np.angle(za)):7.2f}d"
              f" {abs(zt):10.4f} @ {np.degrees(np.angle(zt)):7.2f}d"
              f" {dmag:9.3f} {dphase:10.3f}")
    print(f"worst: {worst_mag:.3f} % magnitude, {worst_phase:.3f} deg phase")


def main():
    crosscheck("open loop", mmc_model.ControlConfig(mode="open"))
    crosscheck("ac-voltage loop (kpv=1, krv=20)",
               mmc_model.ControlConfig(mode="acv", kpv=1.0, krv=20.0))
    # the most visible closed-loop effect: the dip next to the fundamental
    for f in (48.0, 52.0):
        zo = impedance_engine.impedance_at(
            PARAMS, mmc_model.ControlConfig(mode="open"), f)
        za = impedance_engine.impedance_at(
            PARAMS, mmc_model.ControlConfig(mode="acv", kpv=1.0, krv=20.0), f)
        print(f"|Z({f:g} Hz)|: open {zo.magnitude:.2f} ohm, "
              f"voltage loop {za.magnitude:.2f} ohm")


if __name__ == "__main__":
    main()
