"""Independent references the tests check the package against: sampled
Fourier coefficients, time evaluation of a harmonic stack, conjugate
symmetry, LAPACK's condition estimate of a dense matrix, the insertion
indices and loop filters in the time and frequency domain, and the
closed-loop response stack. Plain functions on arrays.
"""

import cmath

import numpy as np
import scipy.linalg

from mmc_hss import impedance_engine, mmc_model


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
    acv (kf + kpv + krv*s/(s^2 + 2*wc*s + w1^2)), ccc ra."""
    delay = cmath.exp(-1.5 * config.sampling_period * s)
    if loop == "ccc":
        return config.ra * delay
    den = s * s + 2.0 * config.resonant_damping * s + omega1 * omega1
    return (config.kf + config.kpv + config.krv * s / den) * delay


def closed_loop_response(params, config, op, order, omega_p, v_p=1.0):
    """Response stack to a series voltage v_p behind the load at omega_p,
    with config's controller channels closed around the engine's factor."""
    bx = mmc_model.series_forcing(params, order, v_p)
    x, (error,) = impedance_engine._factor(params, order).loop(
        config, op).solve([omega_p], bx, v_p, slice(None))
    if error is not None:
        raise error
    return x[:, 0]
