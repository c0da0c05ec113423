"""Nonlinear time-domain reference simulation.

Fixed-step fourth-order Runge-Kutta integration of the averaged two-arm
converter model, with the sampled-data controllers reproduced literally:
commands are computed once per control period from sampled measurements
and take effect one period after sampling, held constant in between. The
module exists to cross-check the frequency-domain machinery in
impedance_engine against an independent formulation, so it shares no
linearization or harmonic-balance code with the rest of the package;
everything here is plain time stepping, finite differences of it and
small dense solves.

Periodic orbits are found by shooting (Aprille and Trick, Proc. IEEE
60(1), 1972): Newton steps on the map that takes the state at one cycle
boundary to the next, with the Jacobian taken by finite differences of
the same kernel, one integrated cycle per column. A campaign settles
once, on the unperturbed orbit, and forks one probe run per frequency
from it (states and controller memory alike). A probe run switches the
probe on at full amplitude and steps onto the orbit it forces, then
records the measurement window there; no ramp, no waiting for
transients. The unperturbed orbit repeats every cycle, so its phasor at
the probe frequency comes from one recorded cycle: nonzero only at
harmonics of the fundamental, where it is subtracted so that only the
perturbation response remains. Each probe frequency must be
commensurate with the fundamental so its run's window holds an integer
number of periods of both.

Integration steps are aligned with control periods and cycle boundaries,
so halving the step leaves every sampling instant in place; that keeps
the global error scaling clean (16x per halving for the fourth-order
scheme) and makes runs bit-reproducible.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (COUNT, NON_NEGATIVE, POSITIVE, WHOLE, Checked,
                     DegenerateResponseError, DivergenceError, check)
from .impedance_engine import ImpedancePoint
from .mmc_model import CircuitParams, ControlConfig

# hard ceiling on any state before the run is declared divergent
_BLOWUP_LIMIT = 1e12

# fraction of V_dc/2 used as probe amplitude when none is given
_DEFAULT_PROBE_FRACTION = 0.02

# common-mode insertion-index probe amplitude for circulating-loop runs
_DEFAULT_INSERTION_PROBE = 0.002

_CSV_HEADER = "t_s,i_c_a,v_cu_v,v_cl_v,i_g_a,v_g_v"

# TimeSeries columns, in the order the kernel records them
_COLUMNS = ("t", "i_c", "v_cu", "v_cl", "i_g", "v_g", "n_u", "n_l")


@dataclass(frozen=True)
class SimConfig(Checked):
    """Knobs for one simulation campaign.

    dt must divide the fundamental period into at least 200 steps; the
    default resolves a 50 Hz cycle with 2000. settle_cycles and
    reference_settle_cycles are budgets, not fixed costs: they count every
    integrated cycle of settling, Jacobian columns included, and settling
    stops once the orbit repeats to periodicity_tol (relative, per state).
    Probe runs start on the forced orbit, so ramp_cycles and
    post_ramp_cycles are validated but no longer used. measure_cycles
    counts common periods, not fundamental cycles: every probe run records
    measure_cycles common periods of the fundamental and its own probe, an
    unprobed run measure_cycles fundamental cycles.
    """

    dt: float = 1e-5
    settle_cycles: int = 300
    measure_cycles: int = 2
    ramp_cycles: int = 20
    post_ramp_cycles: int = 30
    perturb_freq: float = 0.0
    perturb_amplitude: float = 0.0
    periodicity_tol: float = 1e-6
    reference_settle_cycles: int = 800

    RULES = {
        "dt": POSITIVE, "settle_cycles": COUNT, "measure_cycles": COUNT,
        "ramp_cycles": WHOLE + NON_NEGATIVE,
        "post_ramp_cycles": WHOLE + NON_NEGATIVE,
        "perturb_freq": NON_NEGATIVE, "perturb_amplitude": NON_NEGATIVE,
        "periodicity_tol": POSITIVE, "reference_settle_cycles": COUNT,
    }


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory over the measurement window.

    t is absolute simulation time (the settling phase happened before
    t[0]), sampled uniformly at dt. v_g is the point-of-connection
    voltage including the series perturbation source, n_u and n_l the
    insertion indices actually applied, controller contributions and
    probes included. periodicity_residual reports the cycle-to-cycle
    mismatch reached at the end of settling, settle_cycles_used the
    cycles settling integrated.
    """

    dt: float
    t: np.ndarray
    i_c: np.ndarray
    v_cu: np.ndarray
    v_cl: np.ndarray
    i_g: np.ndarray
    v_g: np.ndarray
    n_u: np.ndarray
    n_l: np.ndarray
    periodicity_residual: float = 0.0
    settle_cycles_used: int = 0

    def __post_init__(self):
        for name in _COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.shape != self.t.shape:
                raise ValueError("trajectory columns must share one length")

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise KeyError(f"unknown signal {name!r}")
        return getattr(self, name)


def write_trajectory_csv(series: TimeSeries, path) -> None:
    """Dump the electrical columns to CSV (insertion indices omitted)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for k in range(series.t.size):
            row = (series.t[k], series.i_c[k], series.v_cu[k],
                   series.v_cl[k], series.i_g[k], series.v_g[k])
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# integration kernel
#
# The span stepper is flat float arithmetic so it can be compiled with numba
# when that is installed; the pure-Python version is the fallback and the
# reference. It reads its state into Python floats: numpy-scalar arithmetic
# is about four times slower, and warns where a diverging run overflows
# (_check_state reports that). The right-hand side is inlined. Insertion
# indices and probe voltage depend only on time, so each step evaluates them
# once at t, t + dt/2 and t + dt; every expression keeps its operand order.
# A drive term that is exactly zero (second harmonic, circulating command,
# insertion probe) is skipped: it would add +-0.0 to an insertion index that
# is never -0.0. References and record are flat buffer views (_flat); step i
# records at rec[8*i] .. rec[8*i + 7], in under half the time of 2-D ndarray
# indexing. numba gets flat arrays over the same buffers. Set
# MMC_HSS_NO_JIT=1 to force the fallback.


def _advance_py(y, step0, n_steps, dt,
                r_arm, l_arm, c_arm, vdc, l_eff, r_out, r_load, l_load,
                w1, mod1, th1, mod2, th2,
                use_acv, use_ccc, kp_eff, rot_c, rot_s, g1, g2, ra_over_vdc,
                ctrl_every, vref, icref, ctrl,
                wp, vamp, pamp, rec):
    y0, y1, y2, y3 = float(y[0]), float(y[1]), float(y[2]), float(y[3])
    xa, xb = float(ctrl[0]), float(ctrl[1])
    vm_pend, vm_app = float(ctrl[2]), float(ctrl[3])
    dn_pend, dn_app = float(ctrl[4]), float(ctrl[5])
    n_ref = vref.shape[0]
    rec_on = rec.shape[0] > 0
    closed = use_acv == 1 or use_ccc == 1
    probed = vamp != 0.0 or pamp != 0.0
    second = mod2 != 0.0
    h2 = 0.5 * dt
    sixth = dt / 6.0
    half_vdc = 0.5 * vdc
    half_m1 = 0.5 * mod1
    half_m2 = 0.5 * mod2
    w2 = 2.0 * w1
    vp = vpm = vpe = 0.0

    for i in range(n_steps):
        s = step0 + i
        t = s * dt
        tm = t + h2
        te = t + dt
        boundary = closed and s % ctrl_every == 0
        if boundary:
            # the command computed one sample ago takes effect now
            vm_app = vm_pend
            dn_app = dn_pend
        # insertion indices and probe voltage at t, tm and te
        if use_acv == 1:
            ba = bm = be = vm_app / vdc
        else:
            ba = half_m1 * math.cos(w1 * t + th1)
            bm = half_m1 * math.cos(w1 * tm + th1)
            be = half_m1 * math.cos(w1 * te + th1)
        nu, nl = 0.5 - ba, 0.5 + ba
        num, nlm = 0.5 - bm, 0.5 + bm
        nue, nle = 0.5 - be, 0.5 + be
        if second:
            sa = half_m2 * math.cos(w2 * t + th2)
            sm = half_m2 * math.cos(w2 * tm + th2)
            se = half_m2 * math.cos(w2 * te + th2)
            nu, nl = nu - sa, nl - sa
            num, nlm = num - sm, nlm - sm
            nue, nle = nue - se, nle - se
        if dn_app != 0.0:
            nu, nl = nu + dn_app, nl + dn_app
            num, nlm = num + dn_app, nlm + dn_app
            nue, nle = nue + dn_app, nle + dn_app
        if probed:
            ca = math.cos(wp * t)
            cm = math.cos(wp * tm)
            ce = math.cos(wp * te)
            vp, vpm, vpe = vamp * ca, vamp * cm, vamp * ce
            if pamp != 0.0:
                nu, nl = nu + pamp * ca, nl + pamp * ca
                num, nlm = num + pamp * cm, nlm + pamp * cm
                nue, nle = nue + pamp * ce, nle + pamp * ce

        d0 = (half_vdc - r_arm * y0 - 0.5 * (nu * y1 + nl * y2)) / l_arm
        d1 = nu * (y0 + 0.5 * y3) / c_arm
        d2 = nl * (y0 - 0.5 * y3) / c_arm
        d3 = (-nu * y1 + nl * y2 - r_out * y3 - 2.0 * vp) / l_eff
        vg = vp + r_load * y3 + l_load * d3
        if rec_on:
            r = 8 * i
            rec[r], rec[r + 1], rec[r + 2] = t, y0, y1
            rec[r + 3], rec[r + 4], rec[r + 5] = y2, y3, vg
            rec[r + 6], rec[r + 7] = nu, nl
        if boundary:
            idx = (s // ctrl_every) % n_ref
            if use_acv == 1:
                err = vref[idx] - vg
                vm_pend = kp_eff * err + xa
                xa, xb = (rot_c * xa + rot_s * xb + g1 * err,
                          -rot_s * xa + rot_c * xb + g2 * err)
            if use_ccc == 1:
                dn_pend = ra_over_vdc * (y0 - icref[idx])

        z0 = y0 + h2 * d0
        z1 = y1 + h2 * d1
        z2 = y2 + h2 * d2
        z3 = y3 + h2 * d3
        e0 = (half_vdc - r_arm * z0 - 0.5 * (num * z1 + nlm * z2)) / l_arm
        e1 = num * (z0 + 0.5 * z3) / c_arm
        e2 = nlm * (z0 - 0.5 * z3) / c_arm
        e3 = (-num * z1 + nlm * z2 - r_out * z3 - 2.0 * vpm) / l_eff
        z0 = y0 + h2 * e0
        z1 = y1 + h2 * e1
        z2 = y2 + h2 * e2
        z3 = y3 + h2 * e3
        f0 = (half_vdc - r_arm * z0 - 0.5 * (num * z1 + nlm * z2)) / l_arm
        f1 = num * (z0 + 0.5 * z3) / c_arm
        f2 = nlm * (z0 - 0.5 * z3) / c_arm
        f3 = (-num * z1 + nlm * z2 - r_out * z3 - 2.0 * vpm) / l_eff
        z0 = y0 + dt * f0
        z1 = y1 + dt * f1
        z2 = y2 + dt * f2
        z3 = y3 + dt * f3
        g0_ = (half_vdc - r_arm * z0 - 0.5 * (nue * z1 + nle * z2)) / l_arm
        g1_ = nue * (z0 + 0.5 * z3) / c_arm
        g2_ = nle * (z0 - 0.5 * z3) / c_arm
        g3_ = (-nue * z1 + nle * z2 - r_out * z3 - 2.0 * vpe) / l_eff
        y0 += sixth * (d0 + 2.0 * e0 + 2.0 * f0 + g0_)
        y1 += sixth * (d1 + 2.0 * e1 + 2.0 * f1 + g1_)
        y2 += sixth * (d2 + 2.0 * e2 + 2.0 * f2 + g2_)
        y3 += sixth * (d3 + 2.0 * e3 + 2.0 * f3 + g3_)

    y[0], y[1], y[2], y[3] = y0, y1, y2, y3
    ctrl[0], ctrl[1], ctrl[2] = xa, xb, vm_pend
    ctrl[3], ctrl[4], ctrl[5] = vm_app, dn_pend, dn_app


_ADVANCE, _BUFFER = _advance_py, memoryview

if not os.environ.get("MMC_HSS_NO_JIT"):
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        _ADVANCE, _BUFFER = njit(cache=True)(_advance_py), np.asarray


def _flat(a):
    """a's buffer as one flat float sequence, empty for no record; cast
    raises on an array that is not C-contiguous rather than copy it."""
    return _BUFFER(memoryview(a).cast("B").cast("d")
                   if a is not None and a.size else memoryview(_ZERO_REF[:0]))


# ---------------------------------------------------------------------------
# run orchestration


def _steps_per_cycle(params: CircuitParams, dt: float) -> int:
    ratio = params.period / dt
    spc = int(round(ratio))
    if abs(ratio - spc) > 1e-9 * max(1.0, ratio):
        raise ValueError("dt must divide the fundamental period exactly")
    if spc < 200:
        raise ValueError("dt too coarse: need at least 200 steps per cycle")
    return spc


def _control_strides(params, config, dt, spc):
    ratio = config.sampling_period / dt
    every = int(round(ratio))
    if every < 1 or abs(ratio - every) > 1e-9 * max(1.0, ratio):
        raise ValueError("dt must divide the control sampling period")
    if spc % every != 0:
        raise ValueError(
            "control sampling period must divide the fundamental period")
    return every


def _common_cycles(params: CircuitParams, f_p) -> int:
    """Fundamental cycles in one common period of f1 and the probe f_p."""
    check("freq_hz", f_p, POSITIVE)
    cycles = (Fraction(float(f_p)).limit_denominator(10 ** 6)
              / Fraction(params.fundamental_freq).limit_denominator(10 ** 6)
              ).denominator
    if cycles > 400:
        raise ValueError(
            f"probe at {f_p:g} Hz is not commensurate with the fundamental "
            "(common period longer than 400 cycles)")
    return cycles


def _check_state(y, t):
    for v in y:
        if not math.isfinite(v) or abs(v) > _BLOWUP_LIMIT:
            raise DivergenceError(
                f"simulation diverged by t = {t:.6f} s", time=t)


def _cycle_residual(cur, prev):
    worst = 0.0
    for j in range(1, 5):
        diff = cur[:, j] - prev[:, j]
        num = math.sqrt(float(np.mean(diff * diff)))
        den = math.sqrt(float(np.mean(cur[:, j] ** 2)))
        worst = max(worst, num / max(den, 1.0))
    return worst


_ZERO_REF = np.zeros(1)


class _Runner:
    """Bundles the kernel's argument soup for one (params, config, dt)."""

    def __init__(self, params, config, dt, vref, icref):
        self.params = params
        self.dt = dt
        self.spc = _steps_per_cycle(params, dt)
        use_acv = 1 if (config is not None and config.has_acv) else 0
        use_ccc = 1 if (config is not None and config.has_ccc) else 0
        if use_acv or use_ccc:
            every = _control_strides(params, config, dt, self.spc)
            w1ts = params.omega1 * config.sampling_period
            rot_c = math.cos(w1ts)
            rot_s = math.sin(w1ts)
            g1 = config.krv * math.sin(w1ts) / params.omega1
            g2 = config.krv * (math.cos(w1ts) - 1.0) / params.omega1
            kp_eff = config.kpv + config.kf
            ra_over_vdc = config.ra / params.vdc
        else:
            every, rot_c, rot_s, g1, g2 = 1, 1.0, 0.0, 0.0, 0.0
            kp_eff, ra_over_vdc = 0.0, 0.0
        # Python floats: numpy scalars slow the pure-Python kernel 3-4x
        self.args = (*map(float, (
            params.arm_resistance, params.arm_inductance,
            params.arm_capacitance, params.vdc,
            params.arm_inductance + 2.0 * params.load_inductance,
            params.arm_resistance + 2.0 * params.load_resistance,
            params.load_resistance, params.load_inductance,
            params.omega1, params.modulation_index, params.modulation_phase,
            params.modulation_index_2h, params.modulation_phase_2h)),
            use_acv, use_ccc,
            *map(float, (kp_eff, rot_c, rot_s, g1, g2, ra_over_vdc)), every,
            np.ascontiguousarray(vref, dtype=float),
            np.ascontiguousarray(icref, dtype=float),
        )
        self.ctrl = np.zeros(6)
        if use_acv:
            # seed the resonant state on the open-loop modulation voltage so
            # the loop starts near its own steady state instead of winding up
            amp = 0.5 * params.modulation_index * params.vdc
            self.ctrl[0] = amp * math.cos(params.modulation_phase)
            self.ctrl[1] = -amp * math.sin(params.modulation_phase)
            self.ctrl[2] = self.ctrl[3] = self.ctrl[0]

    def advance(self, y, step0, n_steps, wp=0.0, vamp=0.0, pamp=0.0,
                rec=None):
        *consts, vref, icref = self.args
        _ADVANCE(y, step0, n_steps, self.dt, *consts, _flat(vref),
                 _flat(icref), self.ctrl, wp, vamp, pamp, _flat(rec))
        return step0 + n_steps


# A cycle-boundary state z holds the four plant states, then the controller
# memory (xa, xb, vm_pend, vm_app, dn_pend, dn_app). Shooting solves only
# for the plant and the memory the mode uses.
_PLANT = (0, 1, 2, 3)
_ACV_MEMORY = (4, 5, 6)   # xa, xb, vm_pend
_CCC_MEMORY = (8,)        # dn_pend

# finite-difference step of a Jacobian column, relative to the unknown's scale
_FD_STEP = 1e-6

# settling rebuilds the Jacobian when a chord step cuts the residual by less
_CHORD_RATE = 0.01

# chord-Newton steps a probe run may take after its first one; a run that
# is still off its forced orbit then warns and records its window anyway
_PROBE_STEPS = 6


def _integrate(runner, z, step, cycles, probe=(0.0, 0.0, 0.0), rec=None):
    """Integrate whole cycles from the boundary state z at step; returns the
    end state. The first boundary applies the pending commands, so the
    applied entries start equal to them; a probe is at full amplitude from
    the first step."""
    y = z[:4].copy()
    runner.ctrl = z[4:].copy()
    runner.ctrl[3] = runner.ctrl[2]
    runner.ctrl[5] = runner.ctrl[4]
    end = runner.advance(y, step, cycles * runner.spc, *probe, rec=rec)
    _check_state(y, end * runner.dt)
    return np.concatenate((y, runner.ctrl))


def _series(orbit, rec) -> TimeSeries:
    return TimeSeries(dt=orbit.runner.dt, periodicity_residual=orbit.residual,
                      settle_cycles_used=orbit.settle_cycles,
                      **dict(zip(_COLUMNS, rec.T)))


class _Orbit:
    """Periodic orbit of one (params, config, dt), settled by shooting.

    Settling integrates two cycles and stops there if they agree to tol.
    Otherwise it takes Newton steps on the one-cycle map z -> P(z). The
    unknowns are the plant states and the controller memory the mode uses;
    an unused entry is a free constant of the map (Floquet multiplier
    exactly 1), and moving it would select another orbit. The Jacobian phi
    comes from finite differences of the kernel, one cycle per column, in
    coordinates scaled per unknown. It is kept for chord steps while each
    step cuts the residual a hundredfold and rebuilt when one does not.
    Below tol, settling stops at the first step that no longer cuts it a
    hundredfold, which leaves the orbit at roundoff level: it stands in
    for an unperturbed baseline run. Every integrated cycle counts against
    the budget; a budget too small for a Jacobian is spent on plain cycles
    or chord steps.

    z is the settled state and cycle the recorded cycle that ends there.
    An orbit that settled without Newton gets phi at the start of that
    cycle; those columns are not counted in settle_cycles.
    """

    def __init__(self, runner, z, free, budget, tol):
        self.runner = runner
        self.free = np.array(free)
        self.tol = tol
        self.phi = None
        self.used = 0
        spc = runner.spc
        first, rec = np.empty((spc, 8)), np.empty((spc, 8))
        base = self._cycle(z, first)
        z = self._cycle(base, rec)
        self.scale = np.concatenate((
            np.maximum(np.sqrt(np.mean(rec[:, 1:5] ** 2, axis=0)), 1.0),
            np.full(4, 0.5 * runner.params.vdc), np.ones(2)))
        residual, last = _cycle_residual(rec, first), math.inf
        while self.used < budget:
            stalled = self.phi is None or residual > _CHORD_RATE * last
            if stalled and residual <= tol:
                break
            if stalled and self.used + self.free.size < budget:
                self._jacobian(base, z)
            base = z if self.phi is None else self.newton(base, z, 1)
            z = self._cycle(base, rec)
            last, residual = residual, self.mismatch(base, z)
        self.residual = residual
        self.settle_cycles = self.used
        if self.phi is None:
            # an orbit that settled without Newton still gets its stability
            # verdict, and probe runs need phi
            self._jacobian(base, z)
        # the orbit repeats every cycle, so runs may fork from any cycle
        # boundary: they start where the budget ends, which keeps their
        # time axis independent of how many cycles settling took
        self.step = budget * spc
        self.z = z
        self.cycle = _series(self, rec)

    def _cycle(self, z, rec=None):
        end = _integrate(self.runner, z, self.used * self.runner.spc, 1,
                         rec=rec)
        self.used += 1
        return end

    def _jacobian(self, base, end):
        """phi at base, whose image is end; raises DivergenceError when a
        Floquet multiplier reaches the unit circle."""
        s = self.scale[self.free]
        cols = []
        for j in self.free:
            z = base.copy()
            z[j] += _FD_STEP * self.scale[j]
            cols.append((self._cycle(z) - end)[self.free] / (_FD_STEP * s))
        self.phi = np.column_stack(cols)
        mu = float(np.abs(np.linalg.eigvals(self.phi)).max())
        if mu >= 1.0:
            t = self.used * self.runner.spc * self.runner.dt
            raise DivergenceError(
                f"periodic orbit is unstable (Floquet multiplier of "
                f"magnitude {mu:.4g}); found by t = {t:.6f} s", time=t)

    def mismatch(self, z, end) -> float:
        """Largest scaled difference of the unknowns between z and end."""
        return float(np.max(np.abs(end - z)[self.free]
                            / self.scale[self.free]))

    def newton(self, z, end, cycles):
        """Chord-Newton step towards a fixed point of the map over `cycles`
        cycles, from z with image end, with phi**cycles as its Jacobian."""
        s = self.scale[self.free]
        jac = np.eye(self.free.size) - np.linalg.matrix_power(self.phi,
                                                               cycles)
        out = z.copy()
        out[self.free] += s * np.linalg.solve(jac, (end - z)[self.free] / s)
        return out


@functools.lru_cache(maxsize=8)
def _orbit(params, config, dt, budget, tol, reference_budget):
    """Settled orbit, cached per operating point and settling knobs.

    Open loop (config None) settles from a cold start. A closed loop starts
    from the open-loop orbit settled on reference_budget, whose cycle also
    gives the controllers their sampled references.
    """
    free = _PLANT
    if config is None:
        vref = icref = _ZERO_REF
        y = np.array([0.0, params.vdc, params.vdc, 0.0])
    else:
        ref = _orbit(params, None, dt, reference_budget, tol, None)
        every = _control_strides(params, config, dt, ref.runner.spc)
        vref = ref.cycle.v_g[::every]
        icref = ref.cycle.i_c[::every]
        y = ref.z[:4]
        free += (_ACV_MEMORY if config.has_acv else ()) \
            + (_CCC_MEMORY if config.has_ccc else ())
    runner = _Runner(params, config, dt, vref, icref)
    return _Orbit(runner, np.concatenate((y, runner.ctrl)), free, budget, tol)


def _settle_campaign(params, config, sim) -> _Orbit:
    """The settled orbit every run of a campaign forks from.

    Warns for each orbit, the open-loop reference included, that ran out of
    budget, on every call and not only when the orbit is first settled.
    """
    dt, tol = sim.dt, sim.periodicity_tol
    if config is None or config.mode == "open":
        orbits = [_orbit(params, None, dt, sim.settle_cycles, tol, None)]
    else:
        # refuse a sampling period off the step grid before settling
        _control_strides(params, config, dt, _steps_per_cycle(params, dt))
        ref_budget = sim.reference_settle_cycles
        orbits = [_orbit(params, None, dt, ref_budget, tol, None),
                  _orbit(params, config, dt, sim.settle_cycles, tol,
                         ref_budget)]
    for orbit in orbits:
        if orbit.residual > tol:
            _warn_caller(f"settling budget exhausted at residual "
                         f"{orbit.residual:.3e} (tolerance {tol:.1e})")
    return orbits[-1]


def _warn_caller(message):
    """RuntimeWarning that names the first line outside this module, i.e.
    the code that called the public function, whatever the call depth."""
    frame, level = sys._getframe(0), 1
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _forced_end(orbit, probe, period):
    """Where the probe carries the settled state over `period` cycles.

    The series voltage source enters the plant additively, so the response
    over cycle k from the settled state is, exactly in open loop and to
    first order in closed loops, the response over cycle 0 with the
    probe's phase advanced by k * phi, phi = 2*pi*f_p/f1: the responses
    over cycles 0 and 1 give every cycle's, and phi carries each to the end
    of the period. The insertion-index probe multiplies the capacitor
    voltages, so its one-cycle response holds second-order terms as large
    as the first-order ones; it is integrated over the period, as are
    periods of one or two cycles, where the two phases coincide.
    """
    runner, spc, z = orbit.runner, orbit.runner.spc, orbit.z
    wp, _, probe_amp = probe
    if probe_amp != 0.0 or period <= 2:
        return _integrate(runner, z, orbit.step, period, probe)
    free, s = orbit.free, orbit.scale[orbit.free]
    r0, r1 = ((_integrate(runner, z, orbit.step + k * spc, 1, probe) - z)
              [free] / s for k in (0, 1))
    phi = wp * runner.params.period
    # r_k = r0 cos(k phi) - q sin(k phi); r1 fixes q
    q = (r0 * math.cos(phi) - r1) / math.sin(phi)
    drift = np.zeros(free.size)
    for k in range(period):
        drift = orbit.phi @ drift + r0 * math.cos(k * phi) \
            - q * math.sin(k * phi)
    end = z.copy()
    end[free] += s * drift
    return end


def _run(orbit, f_p, v_amp, probe_amp, measure_cycles) -> TimeSeries:
    """One run forked from the settled orbit, recording measure_cycles
    periods of its own.

    Without a probe the period is one cycle and the window continues the
    settled orbit. With one, the run starts on the forced orbit instead of
    ramping towards it. The forced orbit repeats after the common period of
    f1 and f_p, `period` cycles. The map over one period has Jacobian
    phi**period, exactly in open loop and to first order in the probe
    amplitude in closed loop, so chord-Newton steps from the settled state
    (the first one from _forced_end) converge on the forced orbit: open
    loop needs one, closed loops a few. The steps stop once a period's end
    state misses its start by less than tol relative to the probe's
    displacement of the orbit; that last period is the head of the window.
    A run still off its orbit after _PROBE_STEPS more steps warns.
    """
    runner, spc = orbit.runner, orbit.runner.spc
    period = _common_cycles(runner.params, f_p) if f_p > 0.0 else 1
    probe = (2.0 * math.pi * f_p, v_amp, probe_amp)
    rec = np.empty((measure_cycles * period * spc, 8))
    head = rec[:period * spc]
    z, step = orbit.z, orbit.step
    if f_p > 0.0:
        z = orbit.newton(z, _forced_end(orbit, probe, period), period)
        step += period * spc
    end = _integrate(runner, z, step, period, probe, head)
    steps = 0
    while f_p > 0.0 and (orbit.mismatch(z, end)
                         > orbit.tol * orbit.mismatch(orbit.z, z)):
        if steps == _PROBE_STEPS:
            _warn_caller(f"probe run at {f_p:g} Hz is still off its forced "
                         f"orbit after {steps} Newton steps")
            break
        z = orbit.newton(z, end, period)
        step += period * spc
        end = _integrate(runner, z, step, period, probe, head)
        steps += 1
    _integrate(runner, end, step + period * spc,
               (measure_cycles - 1) * period, probe, rec[period * spc:])
    return _series(orbit, rec)


def simulate(params: CircuitParams, config: ControlConfig | None,
             sim: SimConfig) -> TimeSeries:
    """Settle on the periodic orbit, then record a window.

    sim.perturb_freq and sim.perturb_amplitude set the perturbation, a
    series voltage source at the point of connection (a positive frequency
    with amplitude 0 takes the default probe); the window then lies on the
    orbit it forces. Without a perturbation the window spans
    measure_cycles fundamental cycles of the settled orbit. Raises
    DivergenceError if any state leaves physical range or the orbit is
    unstable, and warns if the settling budget runs out before the orbit
    is periodic.
    """
    f_p, amp = sim.perturb_freq, sim.perturb_amplitude
    if f_p == 0.0 and amp != 0.0:
        raise ValueError("perturbation needs a positive frequency")
    if f_p > 0.0:
        amp = _probe_amplitude(params, amp)
        _common_cycles(params, f_p)  # refused before settling
    orbit = _settle_campaign(params, config, sim)
    return _run(orbit, f_p, amp, 0.0, sim.measure_cycles)


def extract_phasor(series: TimeSeries, signal: str, freq_hz: float) -> complex:
    """Amplitude phasor of one signal at freq_hz over the whole window.

    Convention: a signal A*cos(2*pi*f*t + phi) yields A*exp(1j*phi).
    The window must hold a whole number of periods of freq_hz, otherwise
    the projection is meaningless and a ValueError is raised.
    """
    x = series.column(signal)
    n = x.size
    if n == 0:
        raise ValueError("empty series")
    check("freq_hz", freq_hz, POSITIVE)
    periods = freq_hz * n * series.dt
    if abs(periods - round(periods)) > 1e-6 * max(1.0, periods) \
            or round(periods) < 1:
        raise ValueError(
            f"window of {n * series.dt:.6g} s does not hold a whole number "
            f"of periods of {freq_hz:g} Hz")
    kernel = np.exp(-2j * math.pi * freq_hz * series.t)
    return complex(2.0 / n * np.sum(x * kernel))


def _orbit_phasor(orbit, signal, f_p):
    """Phasor of the settled orbit at f_p. The orbit repeats every cycle, so
    over any window it has its one-cycle phasor at harmonics of f1 and none
    elsewhere; this stands in for an unperturbed baseline run."""
    if _common_cycles(orbit.runner.params, f_p) != 1:
        return 0j
    return extract_phasor(orbit.cycle, signal, f_p)


def _responses(params, config, sim, freqs, v_amp, probe_amp, signals):
    """Yields (f_p, phasors of signals net of the settled orbit) per
    frequency.

    Every frequency is checked before settling. One settle, then one probe
    run per frequency, each forked from the settled orbit and recording
    measure_cycles common periods of f1 and its own probe, so a frequency's
    result does not depend on the others.
    """
    for f_p in freqs:
        _common_cycles(params, f_p)
    orbit = _settle_campaign(params, config, sim)
    for f_p in freqs:
        pert = _run(orbit, f_p, v_amp, probe_amp, sim.measure_cycles)
        yield f_p, [extract_phasor(pert, s, f_p)
                    - _orbit_phasor(orbit, s, f_p) for s in signals]


def _probe_amplitude(params, amp):
    """amp, or the default probe of 2 % of V_dc/2 when amp is not positive."""
    if amp > 0.0:
        return amp
    return _DEFAULT_PROBE_FRACTION * 0.5 * params.vdc


def _mode_of(config) -> str:
    return "open" if config is None else config.mode


def measure_impedance(params: CircuitParams, config: ControlConfig | None,
                      sim: SimConfig, freq_hz: float | None = None
                      ) -> ImpedancePoint:
    """Terminal impedance at one probe frequency.

    Forks a run with the series voltage probe from the settled orbit,
    extracts the probe-frequency phasors of terminal voltage and current,
    subtracts those of the settled orbit, and returns -delta_V / delta_I.
    The returned point carries order 0 because no harmonic truncation is
    involved.
    """
    f_p = check("freq_hz", sim.perturb_freq if freq_hz is None
                else float(freq_hz), POSITIVE)
    return measure_impedance_many(params, config, sim, [f_p])[f_p]


def measure_impedance_many(params: CircuitParams,
                           config: ControlConfig | None,
                           sim: SimConfig, freqs) -> dict:
    """Impedance at several probe frequencies sharing one settled orbit.

    Each frequency must share a common period with the fundamental; its
    probe run records measure_cycles such periods, whatever the other
    frequencies. Settling happens once per campaign and is cached
    for later campaigns with the same settling knobs. A repeated frequency
    is measured once. Returns {frequency: ImpedancePoint}.
    """
    freqs = list(dict.fromkeys(float(f) for f in freqs))
    if not freqs:
        return {}
    amp = _probe_amplitude(params, sim.perturb_amplitude)
    out = {}
    for f_p, (v, i) in _responses(params, config, sim, freqs, amp, 0.0,
                                  ("v_g", "i_g")):
        if abs(i) < 1e-12 * amp / max(abs(params.load_impedance(
                2.0 * math.pi * f_p)), 1.0):
            raise DegenerateResponseError(
                f"no measurable current response at {f_p:g} Hz")
        out[f_p] = ImpedancePoint(f_p, -v / i, _mode_of(config), 0)
    return out


def measure_circulating_impedance(params: CircuitParams,
                                  config: ControlConfig | None,
                                  sim: SimConfig,
                                  freq_hz: float | None = None
                                  ) -> ImpedancePoint:
    """Impedance of the internal circulating loop at one frequency.

    The probe here is a small common-mode wiggle of amplitude
    _DEFAULT_INSERTION_PROBE added to both insertion indices (the same
    entry point a circulating-current controller uses), not a terminal
    voltage. The returned value is the loop impedance
    -V_dc * delta_n / delta_I_c net of the settled orbit.
    """
    f_p = check("freq_hz", sim.perturb_freq if freq_hz is None
                else float(freq_hz), POSITIVE)
    probe = _DEFAULT_INSERTION_PROBE
    ((_, (i,)),) = _responses(params, config, sim, [f_p], 0.0, probe,
                              ("i_c",))
    if abs(i) < 1e-12 * probe * params.vdc:
        raise DegenerateResponseError(
            f"no measurable circulating response at {f_p:g} Hz")
    return ImpedancePoint(f_p, -params.vdc * probe / i, _mode_of(config), 0)


def reset_caches() -> None:
    """Drop cached settled orbits, open-loop references included."""
    _orbit.cache_clear()


__all__ = [
    "SimConfig", "TimeSeries", "simulate", "extract_phasor",
    "measure_impedance", "measure_impedance_many",
    "measure_circulating_impedance", "write_trajectory_csv",
    "reset_caches",
]
