"""Averaged MMC phase-leg model in harmonic state-space form.

State vector x = [i_c, v_cu, v_cl, i_g]:

    i_c   circulating current (half the sum of the arm currents)
    v_cu  summed submodule capacitor voltage, upper arm
    v_cl  summed submodule capacitor voltage, lower arm
    i_g   output (ac-side) current

with arm currents i_u = i_c + i_g/2, i_l = i_c - i_g/2. Both arms are
averaged: the inserted arm voltage is n_u*v_cu (resp. n_l*v_cl) with
continuous insertion indices n_u, n_l in [0, 1]. The ac terminal feeds a
series R-L load, which is folded into the output-current row instead of
carrying v_g as an extra state: a series load inductance appears as
L_eff = L + 2*L_load and the load resistance inside the damping term, so
every operator stays purely block-Toeplitz.

The four state equations (arm resistance R, arm inductance L, arm-equivalent
capacitance C = C_sm / N_sm):

    L    di_c/dt  = V_dc/2 - R*i_c - (n_u*v_cu + n_l*v_cl)/2
    C    dv_cu/dt = n_u*(i_c + i_g/2)
    C    dv_cl/dt = n_l*(i_c - i_g/2)
    L_eff di_g/dt = -n_u*v_cu + n_l*v_cl - (R + 2*R_load)*i_g - 2*v_p

where v_p is the series perturbation source behind the load (zero in steady
state). The ac terminal voltage is v_g = v_p + Z_load*i_g.

A harmonic stack holds the four states of harmonic k at rows 4(k + h) on,
or in row k + h of the steady state's (2h + 1, 4) array. This module owns
that layout: the dc forcing, the steady state, the probes (probe) and the
controller channels (loop_channels, channel_gains) that the impedance
engine closes around its modal factors.

Half-wave symmetry. The two arms are identical and half a period apart:
n_u(t + T/2) = n_l(t). So if x(t) solves the leg, so does S x(t + T/2),
where S swaps v_cu and v_cl and negates i_g. On a harmonic stack this is
P = diag((-1)^k S), with P M0 P = M0 and P^2 = I, and every stack splits
into two parity classes that the operator, the channels and the probes
never mix: P x = x (EVEN: the steady state and the circulating probe) and
P x = -x (ODD: the series probe). In the split coordinates
(i_c, v_sum, v_diff, i_g), v_sum = (v_cu + v_cl)/2 and
v_diff = (v_cu - v_cl)/2, S is diag(1, 1, -1, -1), so each class holds two
of the four states per harmonic: EVEN holds (i_c, v_sum) at even k and
(v_diff, i_g) at odd k, ODD the other two. The change of basis is exact
and, N being a scalar per harmonic, it commutes with the frequency shift:
a class operator (class_operator) is M0 in split coordinates restricted to
the class rows, 2(2h + 1) of them. to_class and from_class move a stack
between state and class coordinates; a controller channel, like a probe,
belongs to the class of the stack row it picks (class_channels).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hss_core
from .errors import (ANY, COUNT, FRACTION, NON_NEGATIVE, POSITIVE,
                     Checked, check, rule, ruled)

CONTROL_MODES = ("open", "acv", "ccc", "acv+ccc")
MODE = rule(CONTROL_MODES.__contains__,
            f"must be one of {', '.join(CONTROL_MODES)}")


@dataclass(frozen=True)
class CircuitParams(Checked):
    """Electrical parameters of one phase leg plus its passive load."""

    vdc: float = ruled(POSITIVE)  # pole-to-pole dc voltage, V
    arm_inductance: float = ruled(POSITIVE)  # per arm, H
    arm_resistance: float = ruled(NON_NEGATIVE)  # per arm, ohm
    sm_capacitance: float = ruled(POSITIVE)  # per submodule, F
    sm_per_arm: int = ruled(COUNT)
    fundamental_freq: float = ruled(POSITIVE)  # Hz
    # fundamental insertion-index amplitude
    modulation_index: float = ruled(FRACTION)
    modulation_phase: float = ruled(ANY, 0.0)  # rad
    # optional second-harmonic injection
    modulation_index_2h: float = ruled(FRACTION, 0.0)
    modulation_phase_2h: float = ruled(ANY, 0.0)
    load_resistance: float = ruled(NON_NEGATIVE, 0.0)  # series ac load, ohm
    load_inductance: float = ruled(NON_NEGATIVE, 0.0)  # series ac load, H

    def __post_init__(self):
        super().__post_init__()
        if self.modulation_index + self.modulation_index_2h > 1.0:
            raise ValueError("combined modulation exceeds the linear range")

    @property
    def omega1(self) -> float:
        return 2.0 * math.pi * self.fundamental_freq

    @property
    def period(self) -> float:
        return 1.0 / self.fundamental_freq

    @property
    def arm_capacitance(self) -> float:
        """Series equivalent of the submodule stack, C_sm / N_sm."""
        return self.sm_capacitance / self.sm_per_arm

    def load_impedance(self, omega: float) -> complex:
        return self.load_resistance + 1j * omega * self.load_inductance


@dataclass(frozen=True)
class ControlConfig(Checked):
    """Controller selection and gains.

    mode is one of "open", "acv" (ac terminal voltage loop), "ccc"
    (circulating-current damping), "acv+ccc". The voltage loop is a
    proportional-resonant filter tuned at the fundamental plus an optional
    plain additive gain kf, all behind the sampling delay
    exp(-1.5*Ts*s). resonant_damping > 0 (rad/s) turns the ideal resonator
    into its damped variant. The circulating loop is a proportional gain
    ra (ohm) behind the same delay.
    """

    mode: str = ruled(MODE, "open")
    kpv: float = ruled(NON_NEGATIVE, 0.0)
    krv: float = ruled(NON_NEGATIVE, 0.0)
    kf: float = ruled(NON_NEGATIVE, 0.0)
    resonant_damping: float = ruled(NON_NEGATIVE, 0.0)
    ra: float = ruled(ANY, 0.0)
    sampling_period: float = ruled(POSITIVE, 100e-6)

    @property
    def has_acv(self) -> bool:
        return self.mode in ("acv", "acv+ccc")

    @property
    def has_ccc(self) -> bool:
        return self.mode in ("ccc", "acv+ccc")


def insertion_coeffs(params: CircuitParams) -> dict:
    """Fourier coefficients {k: (n_u_k, n_l_k)} of the insertion indices."""
    m1 = 0.25 * params.modulation_index * cmath.exp(1j * params.modulation_phase)
    m2 = 0.25 * params.modulation_index_2h * cmath.exp(
        1j * params.modulation_phase_2h
    )
    out = {0: (0.5 + 0j, 0.5 + 0j)}
    if m1 != 0:
        out[1] = (-m1, m1)
        out[-1] = (-m1.conjugate(), m1.conjugate())
    if m2 != 0:
        out[2] = (-m2, -m2)
        out[-2] = (-m2.conjugate(), -m2.conjugate())
    return out


def _coupling_block(params: CircuitParams, n_u_k: complex, n_l_k: complex
                    ) -> np.ndarray:
    """State-coupling block contributed by one harmonic of (n_u, n_l)."""
    ind = params.arm_inductance
    cap = params.arm_capacitance
    l_eff = ind + 2.0 * params.load_inductance
    return np.array([
        [0.0, -n_u_k / (2.0 * ind), -n_l_k / (2.0 * ind), 0.0],
        [n_u_k / cap, 0.0, 0.0, n_u_k / (2.0 * cap)],
        [n_l_k / cap, 0.0, 0.0, -n_l_k / (2.0 * cap)],
        [0.0, -n_u_k / l_eff, n_l_k / l_eff, 0.0],
    ], dtype=complex)


def _base_blocks(params: CircuitParams, order: int) -> np.ndarray:
    blocks = np.zeros((2 * order + 1, 4, 4), dtype=complex)
    for k, (nu, nl) in insertion_coeffs(params).items():
        blocks[k + order] = _coupling_block(params, nu, nl)
    ind = params.arm_inductance
    l_eff = ind + 2.0 * params.load_inductance
    blocks[order, 0, 0] = -params.arm_resistance / ind
    blocks[order, 3, 3] = -(params.arm_resistance
                            + 2.0 * params.load_resistance) / l_eff
    return blocks


def build_base_hss(params: CircuitParams, order: int):
    """Fourier blocks A and forcing stack U of the unperturbed leg.

    A is the (2*order + 1, 4, 4) array of the periodic state matrix's
    blocks, A_k at A[k + order], with the load folded in; U is the dc-link
    forcing: zero but for row 4*order (i_c at harmonic 0). With N the
    fundamental frequency shift, the periodic steady state is
    X = -(A - N)^{-1} U. A second-harmonic modulation needs order >= 2.
    """
    check("order", order, COUNT)
    if order < 2 and params.modulation_index_2h != 0.0:
        raise ValueError(
            f"order {order} cannot hold the second-harmonic modulation "
            f"(modulation_index_2h = {params.modulation_index_2h}); "
            "use an order of at least 2")
    u = np.zeros(4 * (2 * order + 1), dtype=complex)
    u[4 * order] = params.vdc / (2.0 * params.arm_inductance)
    return _base_blocks(params, order), u


# ---------------------------------------------------- half-wave symmetry

EVEN, ODD = 0, 1


def _row_parity(order: int) -> np.ndarray:
    """Parity class of every row of a harmonic stack in split
    coordinates: (k + [state is v_diff or i_g]) mod 2."""
    k = np.arange(-order, order + 1)[:, None]
    return ((k + (np.arange(4) >= 2)) % 2).ravel()


def _class_rows(order: int, parity: int) -> np.ndarray:
    """Rows of a harmonic stack in split coordinates that hold the class
    parity (EVEN or ODD), ascending: two per harmonic."""
    return np.flatnonzero(_row_parity(order) == parity)


def to_class(x: np.ndarray, order: int, parity: int) -> np.ndarray:
    """The class parity of x, a harmonic stack of states (n,) or of
    columns (n, c), in its class coordinates; the other class is dropped."""
    y = np.array(x, dtype=complex).reshape(2 * order + 1, 4, -1)
    y[:, 1], y[:, 2] = 0.5 * (y[:, 1] + y[:, 2]), 0.5 * (y[:, 1] - y[:, 2])
    return y.reshape(np.shape(x))[_class_rows(order, parity)]


def from_class(y: np.ndarray, order: int, parity: int) -> np.ndarray:
    """The harmonic stack of states whose class parity is y, in class
    coordinates, and whose other class is zero: the inverse of to_class
    on that class. The entries the symmetry forbids are exactly 0."""
    x = np.zeros((4 * (2 * order + 1),) + np.shape(y)[1:], dtype=complex)
    x[_class_rows(order, parity)] = y
    z = x.reshape(2 * order + 1, 4, -1)
    z[:, 1], z[:, 2] = z[:, 1] + z[:, 2], z[:, 1] - z[:, 2]
    return x


# (i_c, v_sum, v_diff, i_g) -> (i_c, v_cu, v_cl, i_g) and back
_SPLIT = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
_JOIN = np.array([[1, 0, 0, 0], [0, .5, .5, 0], [0, .5, -.5, 0],
                  [0, 0, 0, 1]])


def class_operator(params: CircuitParams, order: int, parity: int
                   ) -> np.ndarray:
    """Dense unperturbed operator M0 = A - N on one parity class, in its
    class coordinates: the blocks moved to split coordinates, then the
    class rows and columns of their operator_matrix."""
    a, _ = build_base_hss(params, order)
    rows = _class_rows(order, parity)
    m0 = hss_core.operator_matrix(_JOIN @ a @ _SPLIT, params.omega1)
    return m0[np.ix_(rows, rows)]


@dataclass(frozen=True)
class SteadyOperatingPoint:
    """Periodic steady state of the leg: row k + order of the read-only
    (2*order + 1, 4) stack holds harmonic k of (i_c, v_cu, v_cl, i_g)."""

    params: CircuitParams
    order: int
    stack: np.ndarray

    _INDEX = {"i_c": 0, "v_cu": 1, "v_cl": 2, "i_g": 3}

    def coeff(self, name: str, k: int) -> complex:
        """Fourier coefficient k of one state signal (or of "v_g")."""
        if abs(k) > self.order:
            raise ValueError(f"harmonic {k} outside truncation +-{self.order}")
        row = self.stack[k + self.order]
        if name == "v_g":
            z = self.params.load_impedance(k * self.params.omega1)
            return z * complex(row[3])
        return complex(row[self._INDEX[name]])


@functools.lru_cache(maxsize=1)
def steady_state(params: CircuitParams, order: int) -> SteadyOperatingPoint:
    """Solve the periodic steady state at truncation order `order`.

    The dc forcing and so the steady state lie in the EVEN class: one
    DenseFactor solve of its class operator, with the entries the
    symmetry forbids (i_c at odd k, i_g at even k) exactly 0. The last
    result is kept and returned again for equal (params, order), so a
    caller's operating point and the impedance engine's are one object,
    solved once.
    """
    m0 = class_operator(params, order, EVEN)
    _, u = build_base_hss(params, order)
    x = from_class(hss_core.DenseFactor(m0).solve(
        -to_class(u, order, EVEN)), order, EVEN).reshape(-1, 4)
    x.setflags(write=False)
    return SteadyOperatingPoint(params, order, x)


# ------------------------------------------------------------------ control


def _resonator_denominator(config: ControlConfig, omega1: float, s: complex
                           ) -> complex:
    return s * s + 2.0 * config.resonant_damping * s + omega1 * omega1


def loop_gains(params: CircuitParams, config: ControlConfig, loop: str, s):
    """Channel law (alpha, beta, scale) of one loop at the Laplace variable
    s (complex, any shape): its controller output c obeys alpha*c = beta*u,
    u the pickup, scaled to max(|alpha|, |beta|) = 1 (alpha = 1,
    beta = gain while |gain| <= 1, else alpha = 1/gain, beta = 1). So alpha
    is exactly 0 on an undamped resonator pole, where the gain is infinite,
    and beta is 0 for a dead loop.

    The ac-voltage loop regulates v_g with negative feedback: its gain
    (kf + kpv + krv*s/(s^2 + 2*wc*s + w1^2)) * exp(-1.5*Ts*s) / V_dc, wc the
    resonant damping, drives the upper arm's insertion (the lower arm's
    opposite), and its pickup scale is the load impedance R_load + s*L_load
    that turns i_g into v_g. The circulating loop emulates a series arm
    resistance: gain ra*exp(-1.5*Ts*s)/V_dc on both arms, pickup scale 1.
    """
    s = np.asarray(s, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if loop == "acv":
            # without a resonator its denominator cancels, also at +-w1
            den = (_resonator_denominator(config, params.omega1, s)
                   if config.krv else 1.0)
            num = (config.kf + config.kpv) * den + config.krv * s
            inv = params.vdc * (
                den * np.exp(1.5 * config.sampling_period * s) / num)
            gain = np.where(num == 0, 0j, 1.0 / inv)
            scale = params.load_resistance + s * params.load_inductance
        else:
            gain = (config.ra / params.vdc) * np.exp(
                -1.5 * config.sampling_period * s)
            inv = 1.0 / gain
            scale = np.ones(s.shape)
    small = np.abs(gain) <= 1.0
    return np.where(small, 1.0, inv), np.where(small, gain, 1.0), scale


# ------------------------------------------------- perturbation construction


# per loop: the lower-arm sign of its insertion perturbation (the upper arm
# gets +w), the state its pickup reads, and whether v_p enters the pickup
# directly (the voltage loop reads v_g = v_p + Z_load*i_g)
LOOP_WIRING = {"acv": (-1.0, 3, True), "ccc": (1.0, 0, False)}


def active_loops(config: ControlConfig) -> tuple:
    """Names of the loops config.mode closes, voltage loop first."""
    return tuple(loop for loop, on in (("acv", config.has_acv),
                                       ("ccc", config.has_ccc)) if on)


def _injection(params: CircuitParams, op: SteadyOperatingPoint, order: int,
               loop: str) -> np.ndarray:
    """Injection blocks f_k (row k + order) of one loop's insertion
    perturbation: differential (upper +w, lower -w) for the voltage loop,
    common mode (both +w) for the circulating loop."""
    lower = LOOP_WIRING[loop][0]
    ind = params.arm_inductance
    cap = params.arm_capacitance
    l_eff = ind + 2.0 * params.load_inductance
    h = min(order, op.order)
    ic, vcu, vcl, ig = op.stack[op.order - h:op.order + h + 1].T
    f = np.zeros((2 * order + 1, 4), dtype=complex)
    f[order - h:order + h + 1] = np.column_stack([
        -(vcu + lower * vcl) / (2.0 * ind),
        (ic + 0.5 * ig) / cap,
        lower * (ic - 0.5 * ig) / cap,
        -(vcu - lower * vcl) / l_eff,
    ])
    return f


def series_forcing(params: CircuitParams, order: int) -> np.ndarray:
    """State forcing of a unit series voltage behind the load at harmonic
    offset 0: the right-hand side of (A - N_p) X = b in the output-current
    row."""
    b = np.zeros(4 * (2 * order + 1), dtype=complex)
    b[4 * order + 3] = 2.0 / (params.arm_inductance
                              + 2.0 * params.load_inductance)
    return b


def probe(params: CircuitParams, op: SteadyOperatingPoint | None, order: int,
          kind: str):
    """(parity, b, v_p, row) of a unit probe: the class its response lies
    in, its state forcing in that class's coordinates, the series voltage
    the loop pickups see directly, and the class row read out. kind
    "series" (a series voltage behind the load, ODD) reads i_g,
    "circulating" (circulating_probe_forcing, EVEN) i_c, both
    at offset harmonic 0.
    """
    if kind == "series":
        b, v_p, row = series_forcing(params, order), 1.0, 4 * order + 3
    else:
        b, v_p, row = (-circulating_probe_forcing(params, op, order), 0.0,
                       4 * order)
    # like a channel, a probe lies in the class of the row it reads
    parity = int(_row_parity(order)[row])
    return (parity, to_class(b, order, parity), v_p,
            int(np.searchsorted(_class_rows(order, parity), row)))


def class_channels(config: ControlConfig, order: int, parity: int) -> list:
    """Per active loop, voltage loop first, (loop, q): the ascending source
    harmonics q whose channel picks a stack row, 4(q + order) plus the
    loop's pickup state, that lies in the class parity."""
    q = np.arange(-order, order + 1)
    return [(loop, q[_row_parity(order)[4 * (q + order)
                                        + LOOP_WIRING[loop][1]] == parity])
            for loop in active_loops(config)]


def loop_channels(params: CircuitParams, config: ControlConfig,
                  op: SteadyOperatingPoint | None, order: int, parity: int):
    """(F, picks, direct) of the channels class_channels lists on the class
    parity, loop-major, in its class coordinates: F keeps column q + order
    of a loop's lifted injection (f_{p-q} in block p), and F's rows and
    picks index the class rows. Channel j reads class row picks[j], and v_p
    too where direct[j] is 1 (the voltage loop at q = 0)."""
    f = [np.zeros((4 * (2 * order + 1), 0), dtype=complex)]
    picks, direct = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for loop, q in class_channels(config, order, parity):
        _, state, reads_vp = LOOP_WIRING[loop]
        f.append(hss_core.block_toeplitz(
            _injection(params, op, order, loop)[:, :, None])[:, q + order])
        picks.append(4 * (q + order) + state)
        direct.append((q == 0) * float(reads_vp))
    return (to_class(np.hstack(f), order, parity),
            np.searchsorted(_class_rows(order, parity),
                            np.concatenate(picks)),
            np.concatenate(direct))


def channel_gains(params: CircuitParams, config: ControlConfig, order: int,
                  s, parity: int):
    """Channel law (alpha, beta, scale) of loop_channels' channels on the
    class parity at the points' Laplace variable s (complex), each
    (points, channels): channel j's output c_j obeys
    alpha_j*c_j = beta_j*(scale_j*X[picks_j] + direct_j*v_p), with
    max(|alpha_j|, |beta_j|) = 1; a loop's channel q filters at the source
    harmonic s + j*q*omega1 (see loop_gains), for class_channels' q only."""
    s = np.asarray(s, dtype=complex)[:, None]
    parts = [loop_gains(params, config, loop, s + 1j * (q * params.omega1))
             for loop, q in class_channels(config, order, parity)]
    return [np.concatenate(p, axis=1)
            for p in zip(*parts or [np.zeros((3, len(s), 0))])]


def circulating_probe_forcing(params: CircuitParams, op: SteadyOperatingPoint,
                              order: int) -> np.ndarray:
    """Forcing stack of a unit common-mode insertion-index probe.

    A probe delta_n(t) = eps*cos(omega_p*t) applied to both insertion
    indices forces the perturbed system with n_hat = eps/2 times the
    common-mode injection blocks returned here (n_hat = 1). The ratio
    -vdc*n_hat / I_c(omega_p) is the circulating-path impedance.
    """
    return _injection(params, op, order, "ccc").ravel()
