"""AC-side impedance extraction on top of the harmonic converter models.

One impedance point = one dense harmonic solve: force the perturbed system
with a unit series voltage behind the load at f_p, read the output-current
response at offset harmonic 0, and form Z = -v_gp / i_gp with
v_gp = v_p + Z_load * i_gp.

Closed-loop modes are solved by closing the controller channels around the
open-loop operator ("loop closure" on the per-harmonic scalar controller
outputs) instead of assembling the loop-dependent operator. The channel
system contains the exact analytic inverse of the loop gain, which is zero
on an undamped resonator pole, so frequencies whose sidebands land on the
pole (e.g. 100 or 200 Hz with a 50 Hz resonator) solve cleanly; the
infinite-gain limit turns into a hard constraint that the controller input
vanishes there. Away from poles this equals the assembled dense operator to
machine precision.

The harmonic truncation order defaults to "auto" (order=None): the lowest
order h >= 4 whose |Z| agrees with order h + 2 within AUTO_ORDER_RTOL at
every point, so the default result is converged near 2*f1 as well, where a
fixed low order shifts the sharp internal resonances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import hss_core, mmc_model
from .errors import DegenerateResponseError

DEFAULT_GUARD_BAND_HZ = 2.0

# order=None picks the lowest order h >= 4 whose |Z| differs from order
# h + 2 by at most this fraction at every evaluated point
AUTO_ORDER_RTOL = 1e-3
MAX_ORDER = 16

# |Z| below this fraction of |Z_load| is a zero at roundoff (the undamped
# resonant ac-voltage loop pins Z = 0 at f1); two such values agree
_ZERO_IMPEDANCE_RATIO = 1e-12

# |i_gp| below this fraction of |v_p|/|Z_load| counts as no response
_DEGENERATE_RATIO = 1e-15


def _wrap_phase_deg(z: complex) -> float:
    """Phase in degrees, mapped to (-180, 180]."""
    deg = math.degrees(math.atan2(z.imag, z.real))
    if deg <= -180.0:
        deg += 360.0
    return deg


@dataclass(frozen=True)
class ImpedancePoint:
    freq_hz: float
    impedance: complex
    mode: str
    order: int

    @property
    def magnitude(self) -> float:
        return abs(self.impedance)

    @property
    def magnitude_db(self) -> float:
        return 20.0 * math.log10(abs(self.impedance))

    @property
    def phase_deg(self) -> float:
        return _wrap_phase_deg(self.impedance)


@dataclass(frozen=True)
class SweepResult:
    params: mmc_model.CircuitParams
    config: mmc_model.ControlConfig
    order: int
    points: tuple = ()
    excluded: tuple = ()          # guard-banded frequencies, Hz
    failures: tuple = field(default=())  # (freq_hz, message)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([p.freq_hz for p in self.points])

    @property
    def impedances(self) -> np.ndarray:
        return np.array([p.impedance for p in self.points])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.impedances)


@dataclass(frozen=True)
class Resonance:
    freq_hz: float
    magnitude: float
    kind: str  # "peak" or "notch"


def _magnitudes(results) -> np.ndarray:
    """|Z| per evaluation result, NaN where the point failed."""
    return np.array([r.magnitude if isinstance(r, ImpedancePoint) else np.nan
                     for r in results])


def _auto_order(params, freqs, evaluate):
    """Chosen order and its results for order=None.

    evaluate(h, idx) returns the order-h results at the indices idx into
    freqs (ImpedancePoint or a failure record); each (order, point) is
    evaluated once. The result is the lowest h >= 4 whose |Z| agrees with
    order h + 2 within AUTO_ORDER_RTOL at every point that solved at both
    orders. Each candidate is tried first at the point where the previous
    one disagreed most, so a candidate that fails there costs two
    evaluations. If no h <= MAX_ORDER - 2 converges, the order-MAX_ORDER
    results are returned with a RuntimeWarning.
    """
    cache = {}
    floors = np.array([_ZERO_IMPEDANCE_RATIO
                       * max(abs(params.load_impedance(2.0 * math.pi * f)),
                             1.0)
                       for f in freqs])

    def results(h, idx):
        have = cache.setdefault(h, {})
        todo = [i for i in idx if i not in have]
        if todo:
            have.update(zip(todo, evaluate(h, todo)))
        return [have[i] for i in idx]

    def deviation(h, idx):
        lo = _magnitudes(results(h, idx))
        hi = _magnitudes(results(h + 2, idx))
        scale = np.maximum(lo, hi)
        dev = np.divide(np.abs(lo - hi), scale, out=np.zeros_like(scale),
                        where=scale > floors[idx])
        return float(dev.max()), idx[int(dev.argmax())]

    everything = list(range(len(freqs)))
    worst = 0
    for h in range(4, MAX_ORDER - 1):
        if deviation(h, [worst])[0] <= AUTO_ORDER_RTOL:
            dev, worst = deviation(h, everything)
            if dev <= AUTO_ORDER_RTOL:
                return h, results(h, everything)
    dev, worst = deviation(MAX_ORDER - 2, everything)
    warnings.warn(
        f"harmonic truncation not converged: |Z| at order {MAX_ORDER - 2} "
        f"differs from order {MAX_ORDER} by {dev:.2e} (relative) at "
        f"{freqs[worst]:g} Hz, above AUTO_ORDER_RTOL = {AUTO_ORDER_RTOL:g}; "
        f"returning order {MAX_ORDER}",
        RuntimeWarning, stacklevel=3,
    )
    return MAX_ORDER, results(MAX_ORDER, everything)


def _closed_loop_response(params, config, op, order, omega_p,
                          v_p=1.0, extra_forcing=None):
    """Response stack with the active controller channels closed.

    Solves (A - N_p) X + F w + U = 0 together with the channel law
    w_q = gain_q * (pickup_q . X_q + vp_pickup_q * v_p), eliminating X first
    so the small channel system carries 1/gain and stays exact on resonator
    poles. extra_forcing (a HarmonicVector) is added to the open-loop U, for
    probe injections that are not the series voltage source.
    """
    a, n_p, u_dir = mmc_model.build_openloop_perturbation(
        params, order, omega_p, v_p
    )
    u = u_dir.data.copy()
    if extra_forcing is not None:
        u = u + extra_forcing.data
    m = hss_core.DenseFactor(a.matrix - n_p.matrix)
    channels = mmc_model.feedback_channels(params, config, op, order, omega_p)
    if not channels:
        return hss_core.HarmonicVector(order, 4, -m.solve(u))

    n = 2 * order + 1
    nc = len(channels)
    # channel injections as one dense map from stacked outputs to states
    f_map = np.zeros((4 * n, nc * n), dtype=complex)
    for c, chan in enumerate(channels):
        for q in range(n):
            for p in range(n):
                k = p - q
                if abs(k) <= order:
                    f_map[4 * p:4 * p + 4, c * n + q] = chan.injection[k + order]
    minv_f = m.solve(f_map)
    minv_u = m.solve(u)

    t = np.zeros((nc * n, nc * n), dtype=complex)
    rhs = np.zeros(nc * n, dtype=complex)
    gains = np.concatenate([chan.gains for chan in channels])
    invg = np.concatenate([chan.inverse_gains for chan in channels])
    for c, chan in enumerate(channels):
        for q in range(n):
            row = c * n + q
            t[row] = chan.pickup[q] @ minv_f[4 * q:4 * q + 4]
            rhs[row] = (chan.vp_pickup[q] * v_p
                        - chan.pickup[q] @ minv_u[4 * q:4 * q + 4])

    # per-row scaling: small gains keep (I + gain*T), large/infinite gains
    # switch to (1/gain + T); both are the same equation
    w_sys = np.empty_like(t)
    w_rhs = np.empty_like(rhs)
    for row in range(nc * n):
        g = gains[row]
        if np.isfinite(g) and abs(g) <= 1.0:
            w_sys[row] = g * t[row]
            w_sys[row, row] += 1.0
            w_rhs[row] = g * rhs[row]
        else:
            w_sys[row] = t[row]
            w_sys[row, row] += invg[row]
            w_rhs[row] = rhs[row]
    y = hss_core.solve_dense(w_sys, w_rhs)
    return hss_core.HarmonicVector(order, 4, -(minv_f @ y + minv_u))


def _order_for(params, order, op):
    """order, or op.order when order is None; rejects an operating point
    of other params or of lower order than requested."""
    if op is None:
        return order
    if order is None:
        order = op.order
    if op.params != params or op.order < order:
        raise ValueError(
            "operating point must be for the same params and of at least "
            "the requested order")
    return order


def impedance_at(params, config, freq_hz: float, order: int | None = None,
                 op=None) -> ImpedancePoint:
    """Small-signal ac-side impedance at one perturbation frequency.

    Parameters
    ----------
    params : CircuitParams
    config : ControlConfig
    freq_hz : float
        Perturbation frequency, > 0.
    order : int, optional
        Harmonic truncation, 1..16. None takes op.order when op is given,
        else the lowest order h >= 4 that agrees with order h + 2 within
        AUTO_ORDER_RTOL (order 16, with a RuntimeWarning, if none does).
    op : SteadyOperatingPoint, optional
        Reuse a precomputed operating point (same params, order >= order);
        ValueError otherwise.
    """
    if freq_hz <= 0.0:
        raise ValueError("perturbation frequency must be positive")
    order = _order_for(params, order, op)
    if order is None:
        _, (point,) = _auto_order(
            params, [freq_hz],
            lambda h, idx: [impedance_at(params, config, freq_hz, h)])
        return point
    if not 1 <= order <= MAX_ORDER:
        raise ValueError("order must lie in 1..16")
    omega_p = 2.0 * math.pi * freq_hz
    v_p = 1.0
    if config.mode == "open":
        a, n_p, u_p = mmc_model.build_openloop_perturbation(
            params, order, omega_p, v_p
        )
        x = hss_core.solve_perturbation(a, n_p, u_p)
    else:
        if op is None:
            op = mmc_model.steady_state(params, order)
        x = _closed_loop_response(params, config, op, order, omega_p, v_p)
    i_gp = complex(x.block(0)[3])
    scale = max(abs(params.load_impedance(omega_p)), 1.0)
    if abs(i_gp) < _DEGENERATE_RATIO * abs(v_p) / scale:
        raise DegenerateResponseError(
            f"no output-current response at {freq_hz} Hz"
        )
    v_gp = v_p + params.load_impedance(omega_p) * i_gp
    return ImpedancePoint(freq_hz, -v_gp / i_gp, config.mode, order)


def circulating_impedance_at(params, config, freq_hz: float,
                             order: int | None = None,
                             op=None) -> ImpedancePoint:
    """Impedance of the circulating path seen by a common-mode
    insertion-index probe.

    A probe delta_n = eps*cos(omega_p t) on both arms acts as a series arm
    EMF of amplitude -vdc*eps; the ratio to the circulating-current response
    is R + ra (low frequency) plus the arm L and stack-capacitance terms.
    Active controller channels stay closed around the probe. order and op
    work as in impedance_at, the automatic order included.
    """
    if freq_hz <= 0.0:
        raise ValueError("probe frequency must be positive")
    order = _order_for(params, order, op)
    if order is None:
        _, (point,) = _auto_order(
            params, [freq_hz],
            lambda h, idx: [circulating_impedance_at(params, config,
                                                     freq_hz, h)])
        return point
    if op is None:
        op = mmc_model.steady_state(params, order)
    omega_p = 2.0 * math.pi * freq_hz
    n_hat = 1.0
    probe = mmc_model.circulating_probe_forcing(params, op, order, n_hat)
    x = _closed_loop_response(params, config, op, order, omega_p,
                              v_p=0.0, extra_forcing=probe)
    i_cp = complex(x.block(0)[0])
    if abs(i_cp) < _DEGENERATE_RATIO * params.vdc * abs(n_hat):
        raise DegenerateResponseError(
            f"no circulating-current response at {freq_hz} Hz"
        )
    return ImpedancePoint(freq_hz, -params.vdc * n_hat / i_cp,
                          config.mode, order)


def _guard_band(config) -> float:
    """Half-width of the exclusion band around f1, 0 when not needed."""
    if config.has_acv and config.krv > 0.0 and config.resonant_damping == 0.0:
        return DEFAULT_GUARD_BAND_HZ
    return 0.0


def sweep(params, config, freqs=None, order: int | None = None,
          guard_band_hz: float | None = None) -> SweepResult:
    """Impedance over a frequency grid.

    freqs defaults to 5..500 Hz in 1 Hz steps. Frequencies inside the guard
    band around the fundamental are excluded when an undamped resonant
    controller is in the loop (the impedance dips to zero at f1 and the
    operator is on a pole there); guard_band_hz overrides the default width.
    order=None selects the lowest order h >= 4 whose |Z| agrees with order
    h + 2 within AUTO_ORDER_RTOL at every kept point (order 16, with a
    RuntimeWarning, if none does); the result holds the order-h points and
    reports h as its order. Per-point numerical failures are recorded, not
    raised; the sweep raises only if more than a tenth of the points fail.
    Points are returned in frequency order.
    """
    if freqs is None:
        freqs = np.arange(5.0, 500.0 + 0.5, 1.0)
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be positive")
    if guard_band_hz is None:
        guard_band_hz = _guard_band(config)
    if guard_band_hz > 0.0:
        keep = np.abs(freqs - params.fundamental_freq) > guard_band_hz + 1e-12
    else:
        keep = np.ones(freqs.shape, dtype=bool)
    excluded = tuple(freqs[~keep])
    freqs = freqs[keep]

    ops = {}

    def evaluate(h, idx):
        if config.mode != "open" and h not in ops:
            ops[h] = mmc_model.steady_state(params, h)
        op = ops.get(h)

        def one(f):
            try:
                return impedance_at(params, config, f, h, op=op)
            except (ArithmeticError, ValueError) as exc:
                return (f, f"{type(exc).__name__}: {exc}")

        return [one(f) for f in freqs[idx]]

    if order is None:
        order, results = _auto_order(params, freqs, evaluate)
    else:
        results = evaluate(order, slice(None))

    points = tuple(r for r in results if isinstance(r, ImpedancePoint))
    failures = tuple(r for r in results if not isinstance(r, ImpedancePoint))
    if len(failures) > 0.1 * freqs.size:
        raise DegenerateResponseError(
            f"{len(failures)} of {freqs.size} sweep points failed; "
            f"first: {failures[0][1]}"
        )
    return SweepResult(params, config, order, points, excluded, failures)


def find_resonances(result: SweepResult, kind: str = "both") -> list:
    """Local extrema of |Z| over the sweep grid, parabolically refined.

    Returns Resonance entries sorted by frequency. Refinement fits a
    parabola through the extremum and its two neighbours; it is skipped at
    non-uniform spacing (e.g. across the guard band) where the plain grid
    point is returned.
    """
    if kind not in ("peak", "notch", "both"):
        raise ValueError("kind must be 'peak', 'notch' or 'both'")
    f = result.frequencies
    y = result.magnitudes
    found = []
    for i in range(1, len(y) - 1):
        is_peak = y[i] > y[i - 1] and y[i] > y[i + 1]
        is_notch = y[i] < y[i - 1] and y[i] < y[i + 1]
        if is_peak and kind in ("peak", "both"):
            label = "peak"
        elif is_notch and kind in ("notch", "both"):
            label = "notch"
        else:
            continue
        dl = f[i] - f[i - 1]
        dr = f[i + 1] - f[i]
        if abs(dl - dr) <= 1e-9 * max(dl, dr):
            denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
            delta = 0.5 * (y[i - 1] - y[i + 1]) / denom
            found.append(Resonance(
                f[i] + delta * dl,
                y[i] - 0.25 * (y[i - 1] - y[i + 1]) * delta,
                label,
            ))
        else:
            found.append(Resonance(f[i], y[i], label))
    return found
