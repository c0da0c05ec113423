"""End-to-end acceptance checks for the reference 50 MW leg.

Each test prints one "[ACCEPTANCE] criterion N (...): PASS/FAIL" line
through the capture (visible in normal pytest runs) and then asserts, so a
red criterion is both visible and fails the suite. Sweeps and points
without an explicit order use the engine's converged automatic order;
criterion 6 checks that default against order 8 on the whole default grid.
"""

import time
import warnings

import numpy as np
import pytest

import _reference as ref
from mmc_hss import hss_core as hc
from mmc_hss import impedance_engine as ie
from mmc_hss import mmc_model as mm
from mmc_hss import td_sim as td

OPEN = mm.ControlConfig(mode="open")
ACV1 = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0, sampling_period=1e-4)
ACV2 = mm.ControlConfig(mode="acv", kpv=2.0, krv=20.0, sampling_period=1e-4)
CCC = mm.ControlConfig(mode="ccc", ra=20.0, sampling_period=1e-4)
VRC = mm.ControlConfig(mode="ccc", ra=-1.0, sampling_period=1e-4)

SPOT_FREQS = (10.0, 35.0, 80.0, 120.0, 200.0)


@pytest.fixture(scope="module")
def open_sweep(params):
    return ie.sweep(params, OPEN)


def _report(capfd, num, label, ok, detail=""):
    line = f"[ACCEPTANCE] criterion {num} ({label}): " \
           f"{'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    with capfd.disabled():
        print(line, flush=True)


def _deviations(analytic, measured):
    dmag = abs(abs(measured) - abs(analytic)) / abs(analytic) * 100.0
    dphase = abs(np.degrees(np.angle(measured * np.conj(analytic))))
    return dmag, dphase


def _band_max(sweep_result, lo, hi):
    f = sweep_result.frequencies
    m = sweep_result.magnitudes
    sel = (f >= lo) & (f <= hi)
    return float(m[sel].max())


def test_criterion_1_open_loop_resonance_peak(params, capfd):
    t0 = time.perf_counter()
    sw = ie.sweep(params, OPEN)  # default 5..500 Hz, 1 Hz grid, auto h
    elapsed = time.perf_counter() - t0
    peaks = [r for r in ie.find_resonances(sw) if r.kind == "peak"]
    main = max(peaks, key=lambda r: r.magnitude)
    ok = 18.0 <= main.freq_hz <= 24.0 and elapsed < 10.0
    _report(capfd, 1, "open-loop resonance peak", ok,
            f"peak {main.freq_hz:.2f} Hz at {main.magnitude:.0f} ohm, "
            f"sweep {elapsed:.2f} s")
    assert 18.0 <= main.freq_hz <= 24.0
    assert elapsed < 10.0


def test_criterion_2_open_loop_oracle_equivalence(params, capfd):
    t0 = time.perf_counter()
    measured = td.measure_impedance_many(params, None, td.SimConfig(),
                                         SPOT_FREQS)
    worst_mag = worst_phase = 0.0
    for f in SPOT_FREQS:
        za = ie.impedance_at(params, OPEN, f).impedance
        dmag, dphase = _deviations(za, measured[f].impedance)
        worst_mag = max(worst_mag, dmag)
        worst_phase = max(worst_phase, dphase)
    elapsed = time.perf_counter() - t0
    ok = worst_mag <= 5.0 and worst_phase <= 5.0 and elapsed < 300.0
    _report(capfd, 2, "open-loop oracle equivalence", ok,
            f"worst {worst_mag:.3f} % / {worst_phase:.3f} deg over "
            f"{SPOT_FREQS} Hz, {elapsed:.1f} s")
    assert worst_mag <= 5.0
    assert worst_phase <= 5.0
    assert elapsed < 300.0


def test_criterion_3_voltage_loop_oracle_equivalence(params, capfd):
    measured = td.measure_impedance_many(params, ACV1, td.SimConfig(),
                                         SPOT_FREQS)
    worst_mag = worst_phase = 0.0
    for f in SPOT_FREQS:
        za = ie.impedance_at(params, ACV1, f).impedance
        dmag, dphase = _deviations(za, measured[f].impedance)
        worst_mag = max(worst_mag, dmag)
        worst_phase = max(worst_phase, dphase)
    # the loop reshapes the curve most visibly right next to the
    # fundamental: a dip that the open loop does not have
    dips = []
    for f in (48.0, 52.0):
        mo = abs(ie.impedance_at(params, OPEN, f).impedance)
        ma = abs(ie.impedance_at(params, ACV1, f).impedance)
        dips.append((f, mo, ma))
    dip_ok = all(ma < mo and abs(ma - mo) / mo > 0.30 for _, mo, ma in dips)
    ok = worst_mag <= 5.0 and worst_phase <= 5.0 and dip_ok
    _report(capfd, 3, "voltage-loop oracle equivalence", ok,
            f"worst {worst_mag:.3f} % / {worst_phase:.3f} deg; dip at "
            + ", ".join(f"{f:g} Hz {mo:.2f}->{ma:.2f} ohm"
                        for f, mo, ma in dips))
    assert worst_mag <= 5.0
    assert worst_phase <= 5.0
    assert dip_ok


def test_criterion_4_proportional_gain_monotonicity(params, capfd):
    sw1 = ie.sweep(params, ACV1)
    sw2 = ie.sweep(params, ACV2)
    np.testing.assert_array_equal(sw1.frequencies, sw2.frequencies)
    all_lower = bool(np.all(sw2.magnitudes < sw1.magnitudes))
    peaks1 = [r for r in ie.find_resonances(sw1) if r.kind == "peak"]
    peaks2 = [r for r in ie.find_resonances(sw2) if r.kind == "peak"]
    shifts = [min(abs(r.freq_hz - q.freq_hz) for q in peaks2)
              for r in peaks1]
    shift_ok = max(shifts) < 2.0
    ok = all_lower and shift_ok
    _report(capfd, 4, "proportional gain monotonicity", ok,
            f"|Z| lower at all {sw1.frequencies.size} kept points, "
            f"max resonance shift {max(shifts):.3f} Hz")
    assert all_lower
    assert shift_ok


def test_criterion_5_circulating_damping(params, params_m0, open_sweep,
                                         capfd):
    # clause 1: emulated arm resistance flattens the low-frequency peak
    damped = ie.sweep(params, CCC)
    peak_open = _band_max(open_sweep, 18.0, 24.0)
    peak_damped = _band_max(damped, 18.0, 24.0)
    ratio = peak_open / peak_damped
    clause1 = ratio >= 3.0

    # clause 2: the loop's dc resistance is R + ra; fit Re(Z) against
    # omega^2 at low frequency where the sampling delay is a second-order
    # correction (modulation off isolates the circulating path)
    fit_freqs = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    w2 = (2.0 * np.pi * fit_freqs) ** 2
    op0 = mm.steady_state(params_m0, 4)
    re_an = [ie.circulating_impedance_at(params_m0, CCC, f, op=op0)
             .impedance.real for f in fit_freqs]
    fit_an = np.polyfit(w2, re_an, 1)[1]
    re_td = [td.measure_circulating_impedance(params_m0, CCC,
                                              td.SimConfig(), f)
             .impedance.real for f in fit_freqs]
    fit_td = np.polyfit(w2, re_td, 1)[1]
    want = params.arm_resistance + 20.0
    clause2 = (abs(fit_an - want) <= 0.05 * want
               and abs(fit_td - want) <= 0.05 * want)

    # clause 3: ra = -1 cancels the physical arm resistance and brings a
    # pronounced low-frequency peak back
    vrc = ie.sweep(params, VRC)
    peak_vrc = _band_max(vrc, 5.0, 40.0)
    clause3 = (peak_vrc >= _band_max(open_sweep, 5.0, 40.0)
               and peak_vrc >= 3.0 * _band_max(damped, 5.0, 40.0))

    ok = clause1 and clause2 and clause3
    _report(capfd, 5, "circulating-current damping", ok,
            f"peak drop x{ratio:.2f}; fitted resistance "
            f"{fit_an:.4f} / {fit_td:.4f} ohm (want {want:g}); "
            f"negative-ra peak {peak_vrc:.0f} ohm")
    assert clause1
    assert clause2
    assert clause3


def test_criterion_6_truncation_convergence(params, open_sweep, capfd):
    sw8 = ie.sweep(params, OPEN, order=8)
    m4 = open_sweep.magnitudes
    m8 = sw8.magnitudes
    rel = np.abs(m4 - m8) / m8
    worst = float(rel.max())
    worst_f = float(open_sweep.frequencies[rel.argmax()])
    over = open_sweep.frequencies[rel > 0.02]
    clause1 = worst <= 0.02

    f_peak = max([r for r in ie.find_resonances(open_sweep)
                  if r.kind == "peak"], key=lambda r: r.magnitude).freq_hz
    z8 = ie.impedance_at(params, OPEN, f_peak, order=8).impedance
    devs = [abs(abs(ie.impedance_at(params, OPEN, f_peak, order=h)
                    .impedance) - abs(z8)) / abs(z8)
            for h in (1, 2, 3, 4)]
    clause2 = all(devs[i] > devs[i + 1] for i in range(3))

    ok = clause1 and clause2
    over_range = f": {over.min():g}-{over.max():g} Hz" if over.size else ""
    detail = (f"max h{open_sweep.order}-vs-h8 deviation {100 * worst:.2f} % "
              f"at {worst_f:g} Hz ({over.size} points over 2 %"
              f"{over_range}); peak-refinement cascade "
              + "/".join(f"{d:.1e}" for d in devs))
    _report(capfd, 6, "truncation convergence", ok, detail)
    assert clause2, devs
    # the default order must have converged on the flank of the sharp
    # resonance near 2*f1 too, where a fixed order 4 is 3.5 % off order 8
    assert clause1, detail


def test_criterion_7_m0_closed_form_oracle(params_m0, capfd):
    sw = ie.sweep(params_m0, OPEN)
    w = 2.0 * np.pi * sw.frequencies
    want = 0.5 * (1.0 + 1j * w * 0.36 + 1.0 / (4j * w * 7e-6))
    rel_an = float((np.abs(sw.impedances - want) / np.abs(want)).max())
    worst_td = 0.0
    for f in SPOT_FREQS:
        z = td.measure_impedance(params_m0, None, td.SimConfig(), f)
        wf = 2.0 * np.pi * f
        zc = 0.5 * (1.0 + 1j * wf * 0.36 + 1.0 / (4j * wf * 7e-6))
        worst_td = max(worst_td, abs(z.impedance - zc) / abs(zc))
    ok = rel_an < 1e-9 and worst_td <= 0.01
    _report(capfd, 7, "closed-form oracle without modulation", ok,
            f"analytic worst {rel_an:.2e} over {sw.frequencies.size} "
            f"points, td worst {100 * worst_td:.4f} %")
    assert rel_an < 1e-9
    assert worst_td <= 0.01


def test_criterion_8_property_suite(params, capfd):
    results = {}

    # conjugate symmetry of steady, open and closed perturbation solves
    op8 = mm.steady_state(params, 8)
    sym_ok = ref.is_real(op8.stack, 4, tol=1e-10)
    wp = 2.0 * np.pi * 37.0
    op4 = mm.steady_state(params, 4)
    pairs = []
    for solver in ("open", "acv"):
        if solver == "open":
            xp, xm = (hc.DenseFactor(m).solve(b) for m, b in (
                ref.perturbed_system(params, OPEN, None, 4, 1j * w)
                for w in (wp, -wp)))
        else:
            xp = ref.closed_loop_response(params, ACV1, op4, 4, 1j * wp)
            xm = ref.closed_loop_response(params, ACV1, op4, 4, -1j * wp)
        worst = np.abs(xm.reshape(-1, 4)[::-1]
                       - xp.reshape(-1, 4).conj()).max()
        pairs.append(worst / np.abs(xp).max())
    sym_ok = sym_ok and max(pairs) < 1e-12
    results["conjugate symmetry"] = sym_ok

    # Toeplitz multiplication implements time-domain products
    rng = np.random.default_rng(42)
    conv_err = 0.0
    for h in (2, 4, 8):
        period = 0.02
        w1 = 2.0 * np.pi / period
        ac = np.zeros(2 * h + 1, dtype=complex)
        xc = np.zeros(2 * h + 1, dtype=complex)
        ac[h] = rng.normal()
        a1 = rng.normal() + 1j * rng.normal()
        ac[h + 1], ac[h - 1] = a1, a1.conjugate()
        for k in range(0, h + 1):
            v = rng.normal() + 1j * rng.normal()
            if k == 0:
                xc[h] = v.real
            else:
                xc[h + k], xc[h - k] = v, v.conjugate()
        y = hc.block_toeplitz(ac[:, None, None]) @ xc
        t = np.arange(16 * h + 16) * period / (16 * h + 16)
        a_t = ref.evaluate(ac, w1, t).real
        x_t = ref.evaluate(xc, w1, t).real
        for k in range(-(h - 1), h):
            wantk = ref.fourier(a_t * x_t, k)
            conv_err = max(conv_err, abs(y[k + h] - wantk))
    results["convolution theorem"] = conv_err < 1e-12

    # backward error of the steady solve
    a, u = mm.build_base_hss(params, 8)
    m = hc.operator_matrix(a, params.omega1)
    res = m @ op8.stack.ravel() + u
    scale = (np.abs(m).sum(axis=1).max()
             * np.abs(op8.stack).max() + np.abs(u).max())
    resid = float(np.abs(res).max() / scale)
    results["solve residual"] = resid <= 1e-9

    # integrator order: halving dt cuts the state error ~16x
    states = {}
    scales = None
    for spc in (500, 1000, 2000, 8000):
        sim = td.SimConfig(dt=params.period / spc, settle_cycles=12,
                           measure_cycles=1, periodicity_tol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            s = td.simulate(params, None, sim)
        mid = spc // 2
        states[spc] = np.array(
            [s.i_c[mid], s.v_cu[mid], s.v_cl[mid], s.i_g[mid]])
        if spc == 8000:
            scales = np.array([
                np.abs(s.i_c).max(), np.abs(s.v_cu).max(),
                np.abs(s.v_cl).max(), np.abs(s.i_g).max()])
    err = {spc: np.max(np.abs(states[spc] - states[8000]) / scales)
           for spc in (500, 1000, 2000)}
    r1 = err[500] / err[1000]
    r2 = err[1000] / err[2000]
    results["integrator order"] = 13.0 < r1 < 19.0 and 13.0 < r2 < 19.0

    # linear regime: halving the probe leaves the measured impedance alone
    big = td.measure_impedance(
        params, None, td.SimConfig(perturb_amplitude=3200.0), 35.0)
    small = td.measure_impedance(
        params, None, td.SimConfig(perturb_amplitude=1600.0), 35.0)
    lin = abs(big.impedance - small.impedance) / abs(big.impedance)
    results["linear regime"] = lin < 0.005

    ok = all(results.values())
    _report(capfd, 8, "property suite", ok,
            f"pairing {max(pairs):.1e}, conv {conv_err:.1e}, residual "
            f"{resid:.1e}, dt ratios {r1:.1f}/{r2:.1f}, linearity "
            f"{100 * lin:.4f} %")
    for name, passed in results.items():
        assert passed, name


def test_criterion_9_second_harmonic_crosscheck(params, capfd):
    op = mm.steady_state(params, 6)
    want = 2.0 * abs(op.coeff("i_c", 2))
    s = td.simulate(params, None, td.SimConfig())
    got = abs(td.extract_phasor(s, "i_c", 2.0 * params.fundamental_freq))
    rel = abs(got - want) / want
    ok = rel <= 0.02
    _report(capfd, 9, "second-harmonic circulating current", ok,
            f"analytic {want:.4f} A vs simulated {got:.4f} A "
            f"({100 * rel:.4f} %)")
    assert rel <= 0.02
