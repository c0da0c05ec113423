"""Averaged converter-leg model: parameters, insertion indices, harmonic
state operators, periodic steady state, controller transfer functions and
perturbation assembly.

Reference numbers are for the 50 MW leg used throughout: 320 kV dc bus,
0.36 H / 1 ohm arms, 140 uF submodules, 20 per arm, 50 Hz, modulation
depth 0.847 into a 550 ohm resistive load.
"""

import cmath
import itertools
from dataclasses import replace

import numpy as np
import pytest

import _reference as ref
from mmc_hss import hss_core as hc
from mmc_hss import mmc_model as mm
from mmc_hss.errors import PoleAtResonanceError


@pytest.fixture(scope="module")
def op(params):
    return mm.steady_state(params, 6)


# ---------------------------------------------------------------- parameters


def test_params_derived_quantities(params):
    assert params.omega1 == pytest.approx(100.0 * np.pi)
    assert params.period == pytest.approx(0.02)
    # N series submodules per arm: C_arm = C_SM / N
    assert params.arm_capacitance == pytest.approx(7e-6)
    assert params.load_impedance(0.0) == 550.0
    assert params.load_impedance(314.0) == 550.0


def test_params_load_with_inductance(params):
    p = mm.CircuitParams(
        vdc=params.vdc, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.847, load_resistance=550.0, load_inductance=0.1,
    )
    assert p.load_impedance(100.0) == pytest.approx(550.0 + 10j)


def test_params_validation():
    good = dict(
        vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.847,
    )
    mm.CircuitParams(**good)  # baseline constructs
    for key, bad in (
        ("vdc", 0.0), ("arm_inductance", -0.1), ("arm_resistance", -1.0),
        ("sm_capacitance", 0.0), ("sm_per_arm", 0),
        ("fundamental_freq", 0.0), ("modulation_index", 1.2),
        ("modulation_index", -0.1), ("load_resistance", -5.0),
    ):
        with pytest.raises(ValueError):
            mm.CircuitParams(**{**good, key: bad})


def test_control_config_modes():
    assert mm.CONTROL_MODES == ("open", "acv", "ccc", "acv+ccc")
    assert not mm.ControlConfig(mode="open").has_acv
    assert not mm.ControlConfig(mode="open").has_ccc
    assert mm.ControlConfig(mode="acv").has_acv
    assert not mm.ControlConfig(mode="acv").has_ccc
    assert mm.ControlConfig(mode="ccc").has_ccc
    both = mm.ControlConfig(mode="acv+ccc")
    assert both.has_acv and both.has_ccc
    with pytest.raises(ValueError):
        mm.ControlConfig(mode="voltage")
    with pytest.raises(ValueError):
        mm.ControlConfig(mode="acv", sampling_period=0.0)
    # negative emulated resistance is a legitimate destabilising experiment
    mm.ControlConfig(mode="ccc", ra=-1.0)


# ---------------------------------------------------------- insertion indices


def test_insertion_indices_identities(params):
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 0.04, size=40)
    n_u, n_l = ref.insertion_indices(params, t)
    # no second harmonic: the two arms always fill the dc bus exactly
    np.testing.assert_allclose(n_u + n_l, 1.0, rtol=0, atol=1e-15)
    want = -0.847 * np.cos(params.omega1 * t)
    np.testing.assert_allclose(n_u - n_l, want, atol=1e-14)


def test_insertion_coeffs_match_sampled_waveform():
    p = mm.CircuitParams(
        vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.8, modulation_phase=0.4,
        modulation_index_2h=0.05, modulation_phase_2h=-1.1,
    )
    t = np.arange(256) * p.period / 256
    n_u, n_l = ref.insertion_indices(p, t)
    coeffs = mm.insertion_coeffs(p)
    for k in range(-2, 3):
        want_u = ref.fourier(n_u, k)
        want_l = ref.fourier(n_l, k)
        got_u, got_l = coeffs.get(k, (0.0, 0.0))
        assert got_u == pytest.approx(want_u, abs=1e-14)
        assert got_l == pytest.approx(want_l, abs=1e-14)


# ------------------------------------------------------------ state operators


def test_base_operator_frozen_entries(params):
    # spot values of the lifted state matrix for the reference leg:
    # dc block damping terms and the fundamental coupling band
    a, u = mm.build_base_hss(params, 2)
    assert a.shape == (5, 4, 4)
    a0 = a[2]
    assert a0[0, 0] == pytest.approx(-1.0 / 0.36)
    assert a0[3, 3] == pytest.approx(-(1.0 + 2.0 * 550.0) / 0.36)
    assert a0[1, 0] == pytest.approx(0.5 / 7e-6)
    assert a0[2, 0] == pytest.approx(0.5 / 7e-6)
    assert a0[1, 3] == pytest.approx(0.25 / 7e-6)
    assert a0[2, 3] == pytest.approx(-0.25 / 7e-6)

    a1 = a[2 + 1]
    assert a1[0, 1] == pytest.approx(0.847 / (8.0 * 0.36))
    assert a1[0, 2] == pytest.approx(-0.847 / (8.0 * 0.36))
    assert a1[3, 1] == pytest.approx(0.847 / (4.0 * 0.36))
    assert a1[3, 2] == pytest.approx(0.847 / (4.0 * 0.36))
    assert a1[1, 0] == pytest.approx(-0.25 * 0.847 / 7e-6)
    np.testing.assert_allclose(a[2 - 1], a[2 + 1].conj())
    assert not a[2 + 2].any() and not a[2 - 2].any()

    shift = np.diag(hc.block_toeplitz(a) - hc.operator_matrix(a, params.omega1))
    np.testing.assert_allclose(shift[4:8], [-1j * params.omega1] * 4)
    assert u[8] == pytest.approx(320e3 / 0.72)
    assert np.flatnonzero(u).tolist() == [8]


def test_base_operator_rejects_bad_order(params):
    with pytest.raises(ValueError):
        mm.build_base_hss(params, 0)


def test_second_harmonic_modulation_needs_order_two(params):
    # blocks +-2 have no place at order 1, where a plain index would raise
    # IndexError or wrap block -2 onto block +1
    p2 = replace(params, modulation_index_2h=0.1)
    with pytest.raises(ValueError, match=r"order 1 .*modulation_index_2h"):
        mm.build_base_hss(p2, 1)
    a, _ = mm.build_base_hss(p2, 2)
    m2 = 0.25 * 0.1
    assert a[2 + 2][1, 0] == pytest.approx(-m2 / 7e-6)
    assert a[2 - 2][1, 0] == pytest.approx(-m2 / 7e-6)
    assert a[2 + 2].any() and a[2 - 2].any()
    assert mm.build_base_hss(params, 1)[0].shape == (3, 4, 4)


# ------------------------------------------------------------- steady state


def test_steady_state_frozen_values(op):
    # regression pins for the reference leg (amplitudes, not coefficients)
    assert op.coeff("i_c", 0).real == pytest.approx(52.0764, rel=1e-4)
    assert abs(op.coeff("i_c", 0).imag) < 1e-8
    assert op.coeff("v_cu", 0).real == pytest.approx(319916.0, rel=1e-4)
    assert 2 * abs(op.coeff("i_g", 1)) == pytest.approx(245.934, rel=1e-4)
    assert 2 * abs(op.coeff("i_c", 2)) == pytest.approx(47.7576, rel=1e-4)
    assert 2 * abs(op.coeff("v_cu", 1)) == pytest.approx(22527.0, rel=1e-3)
    assert 2 * abs(op.coeff("v_g", 1)) == pytest.approx(135264.0, rel=1e-3)


def test_steady_stack_is_read_only_and_bounded(op):
    # engine factors cache and share the stack; a harmonic past the
    # truncation must not wrap around to the other end of it
    assert op.stack.shape == (2 * op.order + 1, 4)
    assert op.stack[op.order + 2, 0] == op.coeff("i_c", 2)
    with pytest.raises(ValueError):
        op.stack[0, 0] = 1.0
    for k in (op.order + 1, -op.order - 1):
        with pytest.raises(ValueError):
            op.coeff("i_c", k)


def test_steady_state_harmonic_structure(op):
    # circulating current carries only even harmonics, output current only
    # odd ones; the stack describes real waveforms
    assert abs(op.coeff("i_c", 1)) < 1e-6
    assert abs(op.coeff("i_c", 3)) < 1e-6
    assert abs(op.coeff("i_g", 0)) < 1e-6
    assert abs(op.coeff("i_g", 2)) < 1e-6
    assert ref.is_real(op.stack, 4, tol=1e-9)
    # resistive load: terminal voltage is the load resistance times current
    assert op.coeff("v_g", 1) == pytest.approx(550.0 * op.coeff("i_g", 1))


def test_steady_state_charge_and_power_balance(params):
    # period-averaged identities the solution must satisfy: each submodule
    # capacitor neither gains nor loses charge, and the dc side feeds
    # exactly the arm losses plus the load
    op = mm.steady_state(params, 8)
    t = np.arange(4096) * params.period / 4096
    n_u, n_l = ref.insertion_indices(params, t)
    i_c = ref.waveform(op, "i_c", t)
    i_g = ref.waveform(op, "i_g", t)
    i_u = i_c + 0.5 * i_g
    i_l = i_c - 0.5 * i_g

    scale = np.abs(i_u).max()
    assert abs(np.mean(n_u * i_u)) < 1e-8 * scale
    assert abs(np.mean(n_l * i_l)) < 1e-8 * scale

    p_dc = params.vdc * np.mean(i_c)
    p_arm = params.arm_resistance * np.mean(i_u ** 2 + i_l ** 2)
    p_load = params.load_resistance * np.mean(i_g ** 2)
    assert p_dc == pytest.approx(p_arm + p_load, rel=1e-6)


def test_steady_state_without_modulation_is_trivial(params_m0):
    # m = 0 decouples the arms: capacitors hold the dc bus, no currents
    op = mm.steady_state(params_m0, 4)
    assert op.coeff("v_cu", 0) == pytest.approx(320e3)
    assert op.coeff("v_cl", 0) == pytest.approx(320e3)
    for name in ("i_c", "i_g"):
        for k in range(-4, 5):
            assert abs(op.coeff(name, k)) < 1e-9
    for k in range(1, 5):
        assert abs(op.coeff("v_cu", k)) < 1e-9


def test_steady_state_waveform_matches_coeffs(op, params):
    t = np.arange(64) * params.period / 64
    x = ref.waveform(op, "i_g", t)
    want = sum(
        (op.coeff("i_g", k) * np.exp(1j * k * params.omega1 * t)).real
        for k in range(-op.order, op.order + 1)
    )
    np.testing.assert_allclose(x, want, atol=1e-9)


# ----------------------------------------------------------------- control


def test_control_transfer_dc_and_spot_value():
    cfg = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0, kf=0.5,
                           sampling_period=1e-4)
    w1 = 100.0 * np.pi
    assert ref.control_transfer(cfg, w1, 0j) == pytest.approx(1.5)
    s = 2j * np.pi * 10.0
    want = (0.5 + 1.0 + 20.0 * s / (s * s + w1 * w1)) * cmath.exp(-1.5e-4 * s)
    assert ref.control_transfer(cfg, w1, s) == pytest.approx(want)
    want_ccc = 20.0 * cmath.exp(-1.5e-4 * s)
    ccc = mm.ControlConfig(mode="ccc", ra=20.0, sampling_period=1e-4)
    assert ref.control_transfer(ccc, w1, s, loop="ccc") == pytest.approx(want_ccc)


def test_control_transfer_pole_handling(params):
    w1 = params.omega1
    undamped = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0)
    assert ref.on_resonant_pole(undamped, w1, 1j * w1)
    assert ref.on_resonant_pole(undamped, w1, -1j * w1)
    assert not ref.on_resonant_pole(undamped, w1, 1.001j * w1)
    # the channel law is defined everywhere: on the pole at +-f1 the gain
    # is infinite and the scaled row is exactly 0*c = 1*u
    alpha, beta, _ = mm.loop_gains(params, undamped, "acv",
                                   [1j * w1, -1j * w1])
    np.testing.assert_array_equal(alpha, 0.0)
    np.testing.assert_array_equal(beta, 1.0)

    damped = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0,
                              resonant_damping=5.0)
    no_res = mm.ControlConfig(mode="acv", kpv=1.0, krv=0.0)
    g = ref.control_transfer(damped, w1, 1j * w1)
    assert np.isfinite(g.real) and np.isfinite(g.imag)
    for cfg in (damped, no_res):
        assert not ref.on_resonant_pole(cfg, w1, 1j * w1)
        # a finite, nonzero gain at +-f1: both sides of the law are live
        alpha, beta, _ = mm.loop_gains(params, cfg, "acv",
                                       [1j * w1, -1j * w1])
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
        assert np.all(alpha != 0) and np.all(beta != 0)
        for a, b, w in zip(alpha, beta, (w1, -w1)):
            want = ref.control_transfer(cfg, w1, 1j * w)
            assert b / a == pytest.approx(want / params.vdc, rel=1e-12)


def test_inverse_gain_matches_reciprocal(params):
    cfg = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0, kf=0.2,
                           sampling_period=1e-4)
    w1 = params.omega1
    rng = np.random.default_rng(11)
    ws = rng.uniform(-4000.0, 4000.0, size=50)
    alpha, beta, _ = mm.loop_gains(params, cfg, "acv", 1j * ws)
    for w, a, b in zip(ws, alpha, beta):
        s = 1j * w
        if ref.on_resonant_pole(cfg, w1, s):
            continue
        gain = ref.control_transfer(cfg, w1, s) / params.vdc
        assert a * gain == pytest.approx(b, rel=1e-12)


def test_channel_rows_are_scaled_to_unit_size(params):
    # max(|alpha|, |beta|) is exactly 1 on every channel of both classes,
    # the sidebands that land on the resonator pole at 100 and 200 Hz
    # included, and a dead loop is exactly beta = 0
    s = 2j * np.pi * np.array([5.0, 37.0, 50.0, 100.0, 150.0, 200.0,
                               499.0])
    live = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                            sampling_period=1e-4)
    big = replace(live, kpv=1e6, ra=-1e6)  # |gain| > 1: alpha = 1/gain
    for cfg, h, parity in itertools.product((live, big), (4, 16),
                                            (mm.EVEN, mm.ODD)):
        alpha, beta, _ = mm.channel_gains(params, cfg, h, s, parity)
        assert alpha.shape == (len(s), 2 * h + 1)
        np.testing.assert_array_equal(
            np.maximum(np.abs(alpha), np.abs(beta)), 1.0)
    # at order 4, 100 Hz puts q = -3 and -1, 200 Hz q = -3 on the pole:
    # alpha is 0 there, exactly where the sideband is (2*w1 - w1 is exact)
    src = 2 * np.pi * np.array([[100.0], [200.0]]) + (
        np.arange(-4, 5) * params.omega1)
    on_pole = np.array([[ref.on_resonant_pole(live, params.omega1, 1j * w)
                          for w in row] for row in src])
    assert np.count_nonzero(on_pole) == 3
    alpha, _, _ = ref.channel_gains(params, live, 4, 1j * src[:, 4])
    assert np.abs(alpha[:, :9][on_pole]).max() < 1e-8
    assert alpha[0, 3] == 0
    for dead, parity in itertools.product(
            (mm.ControlConfig(mode="acv", kpv=0.0, krv=0.0, kf=0.0),
             mm.ControlConfig(mode="ccc", ra=0.0)), (mm.EVEN, mm.ODD)):
        alpha, beta, _ = mm.channel_gains(params, dead, 4, s, parity)
        np.testing.assert_array_equal(beta, 0.0)
        np.testing.assert_array_equal(alpha, 1.0)


# --------------------------------------------------------- perturbation build


OPEN = mm.ControlConfig(mode="open")


def test_openloop_perturbation_structure(params):
    wp = 2 * np.pi * 80.0
    m_p, b_p = ref.perturbed_system(params, OPEN, None, 3, 1j * wp)
    base, _ = mm.build_base_hss(params, 3)
    base = hc.block_toeplitz(base)
    off = ~np.eye(len(m_p), dtype=bool)
    np.testing.assert_array_equal(m_p[off], base[off])
    np.testing.assert_allclose(
        np.diag(base - m_p)[12:16], [1j * wp] * 4
    )
    ks = np.repeat(np.arange(-3, 4), 4)
    np.testing.assert_allclose(np.diag(base - m_p),
                               1j * (wp + ks * params.omega1), rtol=1e-13)
    np.testing.assert_allclose(mm.series_forcing(params, 3)[12:16],
                               [0, 0, 0, 2.0 / 0.36])
    np.testing.assert_array_equal(b_p, mm.series_forcing(params, 3))
    assert not b_p[16:20].any()


def test_openloop_response_conjugate_pairing(params):
    # a real series perturbation: the response at -omega_p is the mirrored
    # conjugate of the response at +omega_p
    wp = 2 * np.pi * 80.0
    xs = {}
    for sgn in (+1, -1):
        m_p, b_p = ref.perturbed_system(params, OPEN, None, 4, 1j * sgn * wp)
        xs[sgn] = hc.DenseFactor(m_p).solve(b_p).reshape(-1, 4)
    np.testing.assert_allclose(xs[-1][::-1], xs[+1].conj(), rtol=1e-10,
                               atol=1e-18)


def test_feedback_channel_gain_convention(params, op):
    # each source harmonic q is filtered at its own frequency
    # omega_p + q*omega1, scaled by the dc bus; the terminal voltage is
    # picked up from the output-current state through the load
    wp = 2 * np.pi * 37.0
    cfg = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                           sampling_period=1e-4)
    assert mm.active_loops(cfg) == ("acv", "ccc")
    src = wp + np.arange(-4, 5) * params.omega1

    alpha, beta, scale = mm.loop_gains(params, cfg, "acv", 1j * src)
    for q in range(-4, 5):
        s = 1j * (wp + q * params.omega1)
        want = ref.control_transfer(cfg, params.omega1, s)
        assert beta[q + 4] / alpha[q + 4] * params.vdc == pytest.approx(want)
        assert scale[q + 4] == 550.0
    # picks up i_g, and v_p directly
    assert mm.LOOP_WIRING["acv"][1:] == (3, True)

    alpha, beta, scale = mm.loop_gains(params, cfg, "ccc", 1j * src)
    for q in range(-4, 5):
        s = 1j * (wp + q * params.omega1)
        want = (20.0 / params.vdc) * cmath.exp(-1.5e-4 * s)
        assert beta[q + 4] / alpha[q + 4] == pytest.approx(want)
        assert scale[q + 4] == 1.0
    assert mm.LOOP_WIRING["ccc"][1:] == (0, False)

    # off the imaginary axis, sigma of either sign: both laws are the loop
    # filter and delay at s = sigma + j*omega, and the voltage loop's pickup
    # scale is the load impedance R_load + s*L_load
    leg = replace(params, load_inductance=0.05)
    for s in (np.array([-30.0, 25.0])[:, None] + 1j * src).ravel():
        for loop in ("acv", "ccc"):
            (alpha,), (beta,), (scale,) = mm.loop_gains(leg, cfg, loop, [s])
            want = ref.control_transfer(cfg, leg.omega1, s, loop)
            assert beta / alpha * leg.vdc == pytest.approx(want, rel=1e-12)
            assert scale == pytest.approx(
                550.0 + 0.05 * s if loop == "acv" else 1.0, rel=1e-15)

    # the assembled operator lifts exactly these gains: column 4q + 3 of
    # the voltage loop carries gain_q * scale_q * f_{p-q} in block p
    acv = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0,
                           sampling_period=1e-4)
    alpha, beta, z = mm.loop_gains(params, acv, "acv", 1j * src)
    g = beta / alpha
    f = mm._injection(params, op, 4, "acv")
    lift = (ref.perturbed_system(params, acv, op, 4, 1j * wp)[0]
            - ref.perturbed_system(params, OPEN, None, 4, 1j * wp)[0])
    for q in range(9):
        col = np.zeros((9, 4), dtype=complex)
        for p in range(max(0, q - 4), min(9, q + 5)):
            col[p] = f[p - q + 4]
        np.testing.assert_allclose(lift[:, 4 * q + 3],
                                   g[q] * z[q] * col.ravel(), rtol=1e-12,
                                   atol=1e-12 * np.abs(lift).max())
    assert not np.delete(lift, [4 * r + 3 for r in range(9)], 1).any()


def test_injection_blocks_mirror_steady_waveforms(params, op):
    # differential injection drives the output row with the capacitor sum;
    # common-mode injection drives the circulating row with it instead
    f_acv = mm._injection(params, op, 4, "acv")
    f_ccc = mm._injection(params, op, 4, "ccc")
    vsum0 = (op.coeff("v_cu", 0) + op.coeff("v_cl", 0)).real
    assert f_acv[4, 3].real == pytest.approx(-vsum0 / 0.36, rel=1e-9)
    assert f_ccc[4, 0].real == pytest.approx(-vsum0 / 0.72, rel=1e-9)
    # harmonic 1 of the capacitor difference feeds the circulating row
    vdiff1 = op.coeff("v_cu", 1) - op.coeff("v_cl", 1)
    assert f_acv[5, 0] == pytest.approx(-vdiff1 / 0.72)
    assert f_ccc[5, 3] == pytest.approx(-vdiff1 / 0.36)


def test_zero_gain_loops_collapse_to_open_loop(params, op):
    wp = 2 * np.pi * 37.0
    m_open, b_open = ref.perturbed_system(params, OPEN, None, 4, 1j * wp)

    cfg = mm.ControlConfig(mode="acv", kpv=0.0, krv=0.0)
    m_acv, b_acv = ref.perturbed_system(params, cfg, op, 4, 1j * wp)
    np.testing.assert_array_equal(m_acv, m_open)
    # b reduces to the direct series-voltage entry
    np.testing.assert_array_equal(b_acv, b_open)
    np.testing.assert_allclose(b_acv[3::4], np.eye(9)[4] * 2.0 / 0.36)

    ccc0 = mm.ControlConfig(mode="ccc", ra=0.0)
    m_ccc, b_ccc = ref.perturbed_system(params, ccc0, op, 4, 1j * wp)
    np.testing.assert_array_equal(m_ccc, m_open)
    np.testing.assert_array_equal(b_ccc, b_open)


def test_acv_build_raises_on_resonator_pole(params, op):
    cfg = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0)
    # 100 Hz offset: source harmonic q = -1 lands exactly on the 50 Hz pole
    with pytest.raises(PoleAtResonanceError):
        ref.perturbed_system(params, cfg, op, 4, 2j * np.pi * 100.0)
    m_p, b_p = ref.perturbed_system(params, cfg, op, 4, 2j * np.pi * 37.0)
    assert m_p.shape == (36, 36) and b_p.shape == (36,)


def test_circulating_probe_forcing_m0(params_m0):
    # with both capacitors pinned at the dc bus a unit common-mode probe
    # forces only the circulating row, by -(v_cu + v_cl)/(2L) = -vdc/L
    op0 = mm.steady_state(params_m0, 4)
    u = mm.circulating_probe_forcing(params_m0, op0, 4)
    blocks = u.reshape(-1, 4)
    np.testing.assert_allclose(
        blocks[4], [-320e3 / 0.36, 0.0, 0.0, 0.0], atol=1e-3
    )
    np.testing.assert_allclose(blocks[5:], 0.0, atol=1e-9)


# ------------------------------------------------------ half-wave symmetry


def _symmetry_legs(params, params_m0):
    """The reference leg, its m = 0 variant and seeded random legs with a
    second-harmonic modulation."""
    rng = np.random.default_rng(20261020)
    legs = [params, params_m0]
    for _ in range(3):
        m = rng.uniform(0.6, 0.9)
        legs.append(mm.CircuitParams(
            vdc=rng.uniform(200e3, 640e3),
            arm_inductance=rng.uniform(0.1, 0.6),
            arm_resistance=rng.uniform(0.2, 3.0),
            sm_capacitance=rng.uniform(80e-6, 250e-6),
            sm_per_arm=int(rng.integers(10, 41)), fundamental_freq=50.0,
            modulation_index=m, modulation_phase=rng.uniform(-np.pi, np.pi),
            modulation_index_2h=rng.uniform(0.01, 1.0 - m),
            modulation_phase_2h=rng.uniform(-np.pi, np.pi),
            load_resistance=rng.uniform(0.0, 800.0),
            load_inductance=rng.uniform(0.0, 0.2)))
    return legs


def _half_wave(order):
    """P = diag((-1)^k S), S swapping v_cu and v_cl and negating i_g, as
    (perm, sign): (P x)[i] = sign[i] * x[perm[i]]."""
    n = 2 * order + 1
    perm = np.arange(4 * n).reshape(n, 4)[:, [0, 2, 1, 3]].ravel()
    sign = (np.repeat((-1.0) ** np.arange(-order, order + 1), 4)
            * np.tile([1.0, 1.0, 1.0, -1.0], n))
    return perm, sign


def test_half_wave_shift_commutes_with_the_operator_exactly(params,
                                                            params_m0):
    # P M0 P = M0 with no rounding: the two arms are exact mirror images
    for leg in _symmetry_legs(params, params_m0):
        for h in (4, 8, 16):
            a, _ = mm.build_base_hss(leg, h)
            m0 = hc.operator_matrix(a, leg.omega1)
            perm, sign = _half_wave(h)
            np.testing.assert_array_equal(
                sign[:, None] * m0[np.ix_(perm, perm)] * sign, m0)


def test_every_channel_lies_in_the_class_of_the_row_it_picks(params,
                                                            params_m0):
    # P F[:, j] = +F[:, j] for an EVEN channel and -F[:, j] for an ODD
    # one, and the row it picks has the same parity; two loops split
    # evenly between the classes, and each class's channels are those of
    # the full-size map in its class coordinates; per loop, the classes'
    # source harmonics from class_channels partition -h..h (odd orders
    # swap which class is larger) and count loop_channels' columns
    gains = dict(kpv=1.0, krv=20.0, ra=20.0, sampling_period=1e-4)
    for leg in _symmetry_legs(params, params_m0):
        for h in (3, 4, 5, 8, 16):
            op = mm.steady_state(leg, h)
            perm, sign = _half_wave(h)
            for mode in mm.CONTROL_MODES:
                config = mm.ControlConfig(mode=mode, **gains)
                f, picks, _ = ref.loop_channels(leg, config, op, h)
                parity = mm._row_parity(h)[picks]
                want = np.where(parity == mm.EVEN, 1.0, -1.0)
                np.testing.assert_array_equal(sign[:, None] * f[perm],
                                              f * want)
                np.testing.assert_array_equal(perm[picks], picks)
                np.testing.assert_array_equal(sign[picks], want)
                if mode == "acv+ccc":
                    assert (parity == mm.EVEN).sum() == 2 * h + 1
                split = {cls: mm.class_channels(config, h, cls)
                         for cls in (mm.EVEN, mm.ODD)}
                for (loop, even), (same, odd) in zip(split[mm.EVEN],
                                                     split[mm.ODD]):
                    assert loop == same
                    np.testing.assert_array_equal(
                        np.sort(np.concatenate([even, odd])),
                        np.arange(-h, h + 1))
                for cls in (mm.EVEN, mm.ODD):
                    keep = parity == cls
                    f_c, picks_c, _ = mm.loop_channels(leg, config, op, h,
                                                       cls)
                    assert f_c.shape[1] == sum(q.size
                                               for _, q in split[cls])
                    np.testing.assert_array_equal(
                        f_c, mm.to_class(f[:, keep], h, cls))
                    np.testing.assert_array_equal(
                        mm._class_rows(h, cls)[picks_c], picks[keep])


def test_steady_state_keeps_the_symmetry_exactly(params, params_m0):
    # the entries the symmetry forbids are exactly 0 (i_c at odd k, i_g
    # at even k, v_cu + v_cl at odd k, v_cu - v_cl at even k); the others
    # match a full-size dense solve
    for leg in _symmetry_legs(params, params_m0):
        for h in (4, 8, 16):
            x = mm.steady_state(leg, h).stack
            odd = np.arange(-h, h + 1) % 2 == 1
            assert not x[odd, 0].any() and not x[~odd, 3].any()
            np.testing.assert_array_equal(x[odd, 1], -x[odd, 2])
            np.testing.assert_array_equal(x[~odd, 1], x[~odd, 2])
            dense = ref.dense_steady_stack(leg, h)
            np.testing.assert_allclose(x, dense, rtol=0.0,
                                       atol=1e-12 * np.abs(dense).max())


def test_class_coordinates_round_trip(params):
    # from_class inverts to_class on a stack of one class, and a class
    # operator is the full one restricted to its class
    h, wp = 4, 2.0 * np.pi * 37.0
    a, _ = mm.build_base_hss(params, h)
    m0 = hc.operator_matrix(a, params.omega1)
    b = mm.series_forcing(params, h)
    x = np.linalg.solve(m0 - 1j * wp * np.eye(len(m0)), b)
    y = mm.to_class(x, h, mm.ODD)
    assert y.shape == (2 * (2 * h + 1),)
    np.testing.assert_allclose(mm.from_class(y, h, mm.ODD), x, rtol=0.0,
                               atol=1e-14 * np.abs(x).max())
    m_odd = mm.class_operator(params, h, mm.ODD)
    np.testing.assert_allclose(m_odd @ y, mm.to_class(m0 @ x, h, mm.ODD),
                               rtol=0.0, atol=1e-12 * np.abs(m0 @ x).max())
