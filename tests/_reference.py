"""Independent references the tests check the package against: sampled
Fourier coefficients, time evaluation of a harmonic stack, conjugate
symmetry, LAPACK's condition estimate of a dense matrix, the insertion
indices and loop filters in the time and frequency domain, the
closed-loop response stack, the full-size channel map and channel law of
both parity classes together, the full-size perturbed system with those
channels closed densely, full-size dense solves of the steady state and
of the circulating probe, and plain fixed-step RK4 of the time-domain
kernel. Plain functions on arrays; like the package, every frequency
domain reference takes the Laplace variable s, j*omega on the imaginary
axis.
"""

import cmath
import math

import numpy as np
import scipy.linalg

from mmc_hss import hss_core, impedance_engine, mmc_model
from mmc_hss.errors import PoleAtResonanceError

# undamped resonant filter counts as on-pole below this relative detuning
POLE_REL_TOL = 1e-9


def fourier(samples, k):
    """k-th complex Fourier coefficient of x(t_n), t_n = n*T/N, n = 0..N-1
    (one period, no duplicated endpoint). The rectangular rule on one exact
    period is exact for signals band-limited below the sampling Nyquist."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    return complex(np.sum(x * np.exp(-2j * np.pi * k * np.arange(n) / n)) / n)


def evaluate(coeffs, omega1, t):
    """sum_k X_k exp(j k omega1 t) for coeffs = [X_{-h}, ..., X_h];
    complex, real signals carry an imaginary residue at roundoff."""
    h = (len(coeffs) - 1) // 2
    ks = np.arange(-h, h + 1)
    return np.exp(1j * omega1 * np.outer(np.asarray(t, dtype=float), ks)) \
        @ np.asarray(coeffs, dtype=complex)


def is_real(data, dim, tol=1e-12):
    """True when the stack of dim-long blocks is conjugate-symmetric,
    X_{-k} = conj(X_k), i.e. it describes real signals."""
    blocks = np.asarray(data).reshape(-1, dim)
    scale = max(np.abs(blocks).max(), 1.0)
    return bool(np.all(np.abs(blocks[::-1].conj() - blocks) <= tol * scale))


def lapack_cond(m):
    """LAPACK's 1-norm condition estimate of m (gecon on its LU)."""
    lu, _ = scipy.linalg.lu_factor(m)
    gecon, = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))
    rcond, info = gecon(lu, np.linalg.norm(m, 1))
    assert info == 0
    return 1.0 / rcond


def waveform(op, name, t):
    """Real waveform of one steady-state signal of op (see op.coeff)."""
    coeffs = [op.coeff(name, k) for k in range(-op.order, op.order + 1)]
    return evaluate(coeffs, op.params.omega1, t).real


def insertion_indices(params, t):
    """Continuous insertion indices (n_u, n_l) at times t: the fundamental
    with opposite sign in the two arms, the second harmonic with equal."""
    t = np.asarray(t, dtype=float)
    w1 = params.omega1
    fund = params.modulation_index * np.cos(w1 * t + params.modulation_phase)
    sec = params.modulation_index_2h * np.cos(
        2.0 * w1 * t + params.modulation_phase_2h)
    return 0.5 * (1.0 - fund - sec), 0.5 * (1.0 + fund - sec)


def control_transfer(config, omega1, s, loop="acv"):
    """Loop-filter response with the sampling delay exp(-1.5*Ts*s):
    acv (kf + kpv + krv*s/(s^2 + 2*wc*s + w1^2), the resonator term only
    where krv is nonzero), ccc ra."""
    delay = cmath.exp(-1.5 * config.sampling_period * s)
    if loop == "ccc":
        return config.ra * delay
    gain = config.kf + config.kpv
    if config.krv != 0.0:
        den = s * s + 2.0 * config.resonant_damping * s + omega1 * omega1
        gain += config.krv * s / den
    return gain * delay


def on_resonant_pole(config, omega1, s):
    """True when s sits on (or numerically at) an undamped resonator pole."""
    if config.krv == 0.0 or config.resonant_damping > 0.0:
        return False
    den = mmc_model._resonator_denominator(config, omega1, s)
    return abs(den) < POLE_REL_TOL * omega1 * omega1


def loop_channels(params, config, op, order):
    """Full-size (F, picks, direct) of the controller channels config.mode
    closes, both parity classes, in state coordinates: one per active loop
    and source harmonic q, loop-major. Column q of a loop's part of F lifts
    its injection blocks, f_{p-q} into block p; channel j reads stack row
    picks[j], and v_p too where direct[j] is 1 (the voltage loop at
    q = 0). mmc_model.loop_channels gives one class of these."""
    n = 2 * order + 1
    f, picks, direct = [np.zeros((4 * n, 0), dtype=complex)], [], []
    for loop in mmc_model.active_loops(config):
        _, state, reads_vp = mmc_model.LOOP_WIRING[loop]
        f.append(hss_core.block_toeplitz(
            mmc_model._injection(params, op, order, loop)[:, :, None]))
        picks.append(4 * np.arange(n) + state)
        direct.append((np.arange(n) == order) * float(reads_vp))
    return (np.hstack(f), np.concatenate([np.zeros(0, dtype=int)] + picks),
            np.concatenate([np.zeros(0)] + direct))


def channel_gains(params, config, order, s):
    """Full-size channel law (alpha, beta, scale) of loop_channels'
    channels at the values s of the Laplace variable, each
    (points, channels): channel q of a loop filters at s + j*q*omega1.
    mmc_model.channel_gains gives one class of these."""
    src = np.asarray(s, dtype=complex)[:, None] + 1j * (
        np.arange(-order, order + 1) * params.omega1)
    parts = [mmc_model.loop_gains(params, config, loop, src)
             for loop in mmc_model.active_loops(config)]
    return [np.concatenate(p, axis=1)
            for p in zip(*parts or [np.zeros((3, len(src), 0))])]


def perturbed_system(params, config, op, order, s):
    """Assembled perturbed system (M_p, b_p) at the Laplace variable s.

    The response X to a unit series voltage behind the load at s solves
    M_p X = b_p, with M_p = M0 - s*I (M0 = A - N) plus the channels of
    loop_channels closed densely: with gain_j = beta_j/alpha_j from
    channel_gains, channel j adds gain_j * scale_j * F[:, j] to column
    picks[j], and its direct v_p pickup gain_j * direct_j * F[:, j] leaves
    b_p. op is the operating point the loops act around (unused open loop).
    This is the reference the engine's channel solve is checked against:
    it shares the injection blocks and loop law but assembles and solves
    densely. Raises PoleAtResonanceError when a source harmonic sits on an
    undamped resonator pole, where alpha = 0 and M_p does not exist.
    """
    a, _ = mmc_model.build_base_hss(params, order)
    m = hss_core.operator_matrix(a, params.omega1)
    m[np.diag_indices_from(m)] -= s
    src = s + 1j * (np.arange(-order, order + 1) * params.omega1)
    poles = [z for z in src if config.has_acv
             and on_resonant_pole(config, params.omega1, z)]
    if poles:
        raise PoleAtResonanceError(
            f"source harmonic at {poles[0].imag / (2 * math.pi):.6g} Hz "
            "sits on the resonant-controller pole; the assembled operator "
            "does not exist there")
    f, picks, direct = loop_channels(params, config, op, order)
    (alpha,), (beta,), (scale,) = channel_gains(params, config, order, [s])
    gains = beta / alpha
    m[:, picks] += f * (gains * scale)
    return m, mmc_model.series_forcing(params, order) - f @ (gains * direct)


def closed_loop_response(params, config, op, order, s, v_p=1.0):
    """Response stack to a series voltage v_p behind the load at the
    Laplace variable s, with config's controller channels closed around
    the engine's modal solver of the ODD class."""
    odd = mmc_model.ODD
    bx = mmc_model.to_class(v_p * mmc_model.series_forcing(params, order),
                            order, odd)
    x, (error,) = impedance_engine._loop(params, config, op, order,
                                         odd).solve([s], bx, v_p,
                                                    slice(None))
    if error is not None:
        raise error
    return mmc_model.from_class(x[:, 0], order, odd)


def dense_steady_stack(params, order):
    """(2h + 1, 4) steady stack from one LAPACK solve of the full-size
    (A - N) X = -U, both parity classes included."""
    a, u = mmc_model.build_base_hss(params, order)
    m0 = hss_core.operator_matrix(a, params.omega1)
    return scipy.linalg.solve(m0, -u).reshape(-1, 4)


def dense_circulating_impedance(params, config, op, order, freq_hz):
    """Circulating-path impedance -vdc / i_cp from one LAPACK solve of the
    full-size perturbed system, its channels closed densely, forced by
    the common-mode insertion-index probe (n_hat = 1)."""
    m_p, _ = perturbed_system(params, config, op, order,
                              1j * (2.0 * math.pi * freq_hz))
    b = -mmc_model.circulating_probe_forcing(params, op, order)
    return -params.vdc / scipy.linalg.solve(m_p, b)[4 * order]


def rk4_steps(runner, z, step0, n_steps, wp=0.0, vamp=0.0, pamp=0.0):
    """Plain fixed-step RK4 of what td_sim's kernel integrates, from the
    constants of runner.args and the state vector z: plant states, then
    controller memory.

    One right-hand side, called four times per step, with every drive
    term written out, zero terms included, in the kernel's operand order.
    Commands sampled at a control boundary take effect at the next one.
    Returns the end state vector and the (n_steps, 8) record.
    """
    (r_arm, l_arm, c_arm, vdc, l_eff, r_out, r_load, l_load, w1, mod1, th1,
     mod2, th2, use_acv, use_ccc, kp_eff, rot_c, rot_s, g1, g2, ra_over_vdc,
     every, vref, icref) = runner.args
    y = [float(v) for v in z[:4]]
    xa, xb, vm_pend, vm_app, dn_pend, dn_app = map(float, z[4:])
    dt = runner.dt

    def drive(t):
        """Insertion indices and series probe voltage at t."""
        if use_acv == 1:
            b = vm_app / vdc
        else:
            b = 0.5 * mod1 * math.cos(w1 * t + th1)
        second = 0.5 * mod2 * math.cos(2.0 * w1 * t + th2)
        c = math.cos(wp * t)
        return (0.5 - b - second + dn_app + pamp * c,
                0.5 + b - second + dn_app + pamp * c, vamp * c)

    def rhs(x, n_u, n_l, v_p):
        i_c, v_cu, v_cl, i_g = x
        return ((0.5 * vdc - r_arm * i_c - 0.5 * (n_u * v_cu + n_l * v_cl))
                / l_arm,
                n_u * (i_c + 0.5 * i_g) / c_arm,
                n_l * (i_c - 0.5 * i_g) / c_arm,
                (-n_u * v_cu + n_l * v_cl - r_out * i_g - 2.0 * v_p) / l_eff)

    def shift(x, h, k):
        return [a + h * b for a, b in zip(x, k)]

    rows = []
    for s in range(step0, step0 + n_steps):
        t = s * dt
        boundary = (use_acv == 1 or use_ccc == 1) and s % every == 0
        if boundary:
            vm_app, dn_app = vm_pend, dn_pend
        start, mid, end = drive(t), drive(t + 0.5 * dt), drive(t + dt)
        k1 = rhs(y, *start)
        v_g = start[2] + r_load * y[3] + l_load * k1[3]
        rows.append((t, *y, v_g, start[0], start[1]))
        if boundary:
            idx = (s // every) % len(vref)
            if use_acv == 1:
                err = float(vref[idx]) - v_g
                vm_pend = kp_eff * err + xa
                xa, xb = (rot_c * xa + rot_s * xb + g1 * err,
                          -rot_s * xa + rot_c * xb + g2 * err)
            if use_ccc == 1:
                dn_pend = ra_over_vdc * (y[0] - float(icref[idx]))
        k2 = rhs(shift(y, 0.5 * dt, k1), *mid)
        k3 = rhs(shift(y, 0.5 * dt, k2), *mid)
        k4 = rhs(shift(y, dt, k3), *end)
        y = [a + dt / 6.0 * (p + 2.0 * q + 2.0 * r + u)
             for a, p, q, r, u in zip(y, k1, k2, k3, k4)]
    return (np.array([*y, xa, xb, vm_pend, vm_app, dn_pend, dn_app]),
            np.array(rows).reshape(n_steps, 8))
