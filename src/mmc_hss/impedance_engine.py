"""AC-side impedance extraction on top of the harmonic converter models.

An impedance point forces the perturbed system with a unit series voltage
behind the load at f_p, reads the output-current response at offset
harmonic 0, and forms Z = -v_gp / i_gp with v_gp = v_p + Z_load * i_gp.

The perturbed operator at f_p is M0 - s*I, with M0 = A - N the unperturbed
one and s = j*2*pi*f_p the Laplace variable, which _evaluate forms once and
everything below it carries. The leg's half-wave symmetry splits M0, the
controller channels and the probes into two parity classes of 2(2h + 1)
states (mmc_model): the series probe excites only the ODD class, the
circulating probe and the steady state only the EVEN one. So every solve
runs on its probe's class alone, and M0's modes are the union of both
classes' modes. One real eigendecomposition per class and (params, order),
built when a probe first needs it, turns every s into an elementwise
scaling (hss_core.ShiftedSolver): a sweep solves its grid in chunks of
about 1 MiB, but batches every product over the points, so a point's value
does not depend on the grid, chunk or call that solves it. One store
keeps, per (order, class) of the current leg, that solver and the last loop
set-up closed around it, so the single-point calls and automatic-order
trials that follow build neither again. A loop set-up is matched to its
operating point by value, so the steady state needs no per-order cache:
mmc_model.steady_state keeps only its last result. Open loop, ac-voltage
loop, circulating loop and the circulating-path probe all take this one
path; they differ only in their class, forcing, readout row and channels,
which mmc_model supplies (probe, loop_channels, channel_gains) along with
the stack layout. impedance_at, circulating_impedance_at and sweep share
one evaluation path (_evaluate): a sweep records a failed point, a
single-point call raises the first error its point meets.

Closed-loop modes are solved by closing the controller channels around the
open-loop operator ("loop closure" on the per-harmonic scalar controller
outputs) instead of assembling the loop-dependent operator. Each channel
enters the channel system as the scaled row alpha*c = beta*u of its law
(mmc_model.channel_gains), which is exactly alpha = 0 on an undamped
resonator pole, so frequencies whose sidebands land on the pole (e.g. 100
or 200 Hz with a 50 Hz resonator) solve cleanly; the infinite-gain limit
turns into a hard constraint that the controller input vanishes there.
Away from poles this equals a dense solve of the assembled closed-loop
operator to machine precision; the tests keep that dense assembly as
their reference.

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
from .errors import (ANY, POSITIVE, WHOLE, DegenerateResponseError, check,
                     rule)

DEFAULT_GUARD_BAND_HZ = 2.0

# order=None picks the lowest order h >= 4 whose |Z| differs from order
# h + 2 by less than this fraction at every evaluated point (0 accepts no
# order: converged orders agree to roundoff, and bitwise only by chance)
AUTO_ORDER_RTOL = 1e-3
MAX_ORDER = 16
ORDER = WHOLE + rule(lambda h: (1 <= h) & (h <= MAX_ORDER),
                     f"must lie in 1..{MAX_ORDER}")

# |Z| below this fraction of |Z_load| is a zero at roundoff (the undamped
# resonant ac-voltage loop pins Z = 0 at f1); two such values agree
_ZERO_IMPEDANCE_RATIO = 1e-12

# |i_gp| below this fraction of |v_p|/|Z_load| counts as no response
_DEGENERATE_RATIO = 1e-15

# points solved together are chunked to about this many bytes of work
# arrays: it bounds a sweep's memory and amortises each chunk's fixed cost
_CHUNK_BYTES = 1024 * 1024


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
    freqs (ImpedancePoint or the error that spoiled it). A point is
    evaluated once per order, to the value any call gives it, so the
    returned points are those of a sweep at that explicit order. The
    result is the lowest h >= 4 whose |Z| agrees with order h + 2 within
    AUTO_ORDER_RTOL at every point that solved at both orders. Each
    candidate is tried first at the point where the previous one disagreed
    most, so a candidate that fails there costs two evaluations. If no
    h <= MAX_ORDER - 2 converges, the order-MAX_ORDER results are returned
    with a RuntimeWarning.
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
    if not everything:
        return 4, []
    worst = 0
    for h in range(4, MAX_ORDER - 1):
        if deviation(h, [worst])[0] < AUTO_ORDER_RTOL:
            dev, worst = deviation(h, everything)
            if dev < AUTO_ORDER_RTOL:
                return h, results(h, everything)
    dev, worst = deviation(MAX_ORDER - 2, everything)
    warnings.warn(
        f"harmonic truncation not converged: |Z| at order {MAX_ORDER - 2} "
        f"differs from order {MAX_ORDER} by {dev:.2e} (relative) at "
        f"{freqs[worst]:g} Hz, above AUTO_ORDER_RTOL = {AUTO_ORDER_RTOL:g}; "
        f"returning order {MAX_ORDER}",
        RuntimeWarning, stacklevel=4,
    )
    return MAX_ORDER, results(MAX_ORDER, everything)


# the leg the store holds, and per (order, parity class) of it the last
# _Loop closed around that class's modal solver
_leg = None
_store = {}


def _loop(params, config, op, order, parity):
    """The _Loop of config around op on one parity class of params at
    order.

    The class's ShiftedSolver of M0 = A - N is built once and kept in the
    store with the last loop closed around it, which is reused for an
    equal config and an equal operating point. A new leg empties the store
    before anything is built, so two legs' solvers never coexist.
    """
    global _leg
    if params != _leg:
        _store.clear()
        _leg = params
    last = _store.get((order, parity))
    if last is None or not last.serves(config, op):
        solver = last.solver if last else hss_core.ShiftedSolver(
            mmc_model.class_operator(params, order, parity), order)
        last = _store[order, parity] = _Loop(solver, params, config, op,
                                             order, parity)
    return last


class _Loop:
    """Once-per-sweep set-up of the perturbed leg with its control loops
    closed, on one parity class around that class's modal solver.

    Per point s the leg solves (M0 - s I) X + F c = bx together with the
    channel law alpha_r * c_r = beta_r * (scale_r * X[pick_r] + vp_r * v_p)
    for every controller output c_r (one per loop and source harmonic),
    stacked as mmc_model.channel_gains gives it. Operator, channels and
    probe all split into the two parity classes of mmc_model, so a point
    solves only its probe's class, with that class's channels. X is
    eliminated first, so the small channel system holds alpha on its
    diagonal and stays exact on resonator poles, where alpha = 0. Built
    once: the class's channel map F, its picks and direct v_p pickups vp,
    F in modal coordinates (modal_f = V^-1 F) and the picked rows of the
    modes (modal_picks = V[picks]). Per point, batched over the points of
    a chunk on the leading axis of every array: the channel law, the modal
    scalings, the channel system and one refinement step of the whole
    system against M0 - s I. So every product is one matmul per point, and
    a point's value does not depend on its chunk. A point's
    hss_core.refusal is its modal bound's, else its channel's.
    """

    def __init__(self, solver, params, config, op, order, parity):
        self.solver, self.params, self.config, self.op = (solver, params,
                                                          config, op)
        self.order, self.parity = order, parity
        self.f_map, self.picks, self.vp = mmc_model.loop_channels(
            params, config, op, order, parity)
        self.modal_f = solver.v_inv @ self.f_map
        self.modal_picks = solver.v[self.picks]
        # bytes one point keeps live: modal stack, channel systems and
        # inverses, refinement terms (tracemalloc peak per point: 0.88-1.27x
        # at 8-32 points a chunk, every mode at orders 4-16)
        n, m = self.f_map.shape
        self.point_bytes = 16 * ((n + 4 * m) * (m + 1) + 6 * n)

    def serves(self, config, op):
        """True for an equal config around an operating point equal to
        this loop's by value (order and stack)."""
        own = self.op
        return self.config == config and (op is own or (
            op is not None and own is not None and op.order == own.order
            and np.array_equal(op.stack, own.stack)))

    def solve(self, s, bx, v_p, rows):
        """X[rows] per point, (len(rows), points), and per point the
        SingularSystemError that spoiled it, or None.

        s holds each point's Laplace variable, bx the state forcing and
        rows the rows read out, both in the class coordinates, and v_p the
        series voltage the channel pickups see directly.
        """
        s = np.asarray(s, dtype=complex)
        size = max(1, _CHUNK_BYTES // self.point_bytes)
        b = np.column_stack([self.modal_f,
                             self.solver.v_inv @ bx[:, None]])
        out = np.empty((bx[rows].size, s.size), dtype=complex)
        errors = []
        for start in range(0, s.size, size):
            chunk = s[start:start + size]
            x, err = self._solve_chunk(chunk, b, bx, v_p)
            out[:, start:start + chunk.size] = x[:, rows].T
            errors.extend(err)
        return out, errors

    def _solve_chunk(self, s, b, bx, v_p):
        solver, f_map, modal_picks = self.solver, self.f_map, self.modal_picks
        m = f_map.shape[1]
        errors = [hss_core.refusal(bound, "shifted system matrix")
                  for bound in solver.bounds(s)]
        alpha, beta, scale = mmc_model.channel_gains(
            self.params, self.config, self.order, s, self.parity)
        pick_scale = (beta * scale)[:, :, None]
        bc = (beta * self.vp * v_p)[:, :, None]
        # a point flagged singular may divide by zero; its values are
        # discarded with its error
        with np.errstate(all="ignore"):
            y = solver.solve(s, b)
            yf = y[:, :, :m]
            # picked rows of X for every column: t = picks(M^-1 F) and,
            # in the last column, picks(M^-1 bx)
            picked = modal_picks @ y
            sys = pick_scale * picked[:, :, :m]
            sys[:, np.arange(m), np.arange(m)] += alpha
            sys_inv, cond = hss_core.inverses(sys)
            errors = [e or hss_core.refusal(c, "channel system")
                      for e, c in zip(errors, cond)]

            def close(yb, picked_b, rc):
                # states for the modal solution yb of the state rows, its
                # picked rows and the channel right-hand side rc
                c = sys_inv @ (rc + pick_scale * picked_b)
                return c, solver.v @ (yb - yf @ c)

            c, x = close(y[:, :, m:], picked[:, :, m:], bc)
            # one refinement step of the whole system against M0 - s I
            rx = bx[:, None] - solver.m0 @ x + s[:, None, None] * x - f_map @ c
            rc = bc - alpha[:, :, None] * c + pick_scale * x[:, self.picks]
            yr = solver.solve(s, solver.v_inv @ rx)
            x += close(yr, modal_picks @ yr, rc)[1]
        return x[:, :, 0], errors


def _point(params, config, order, probe, freq_hz, response):
    """ImpedancePoint of one probe response (see mmc_model.probe), or the
    DegenerateResponseError of a response at roundoff."""
    if probe == "series":
        # Z = -v_gp / i_gp with v_gp = v_p + Z_load * i_gp, v_p = 1
        z_load = params.load_impedance(2.0 * math.pi * freq_hz)
        if abs(response) < _DEGENERATE_RATIO / max(abs(z_load), 1.0):
            return DegenerateResponseError(
                f"no output-current response at {freq_hz} Hz")
        return ImpedancePoint(freq_hz, -(1.0 + z_load * response) / response,
                              config.mode, order)
    if abs(response) < _DEGENERATE_RATIO * params.vdc:
        return DegenerateResponseError(
            f"no circulating-current response at {freq_hz} Hz")
    return ImpedancePoint(freq_hz, -params.vdc / response, config.mode,
                          order)


def _evaluate(params, config, freqs, order, op, probe, strict):
    """(order, results) of one probe at freqs: per frequency an
    ImpedancePoint or the error that spoiled it; strict raises the first
    error met at any order evaluated. A config of None is open loop. A given
    op fixes order when it is None, else None applies the automatic rule.
    Each order is one batched solve on its probe's class (_loop), around op
    or, where a loop or the circulating probe needs one, the steady state at
    that order."""
    config = mmc_model.ControlConfig() if config is None else config
    if op is not None:
        order = op.order if order is None else order
        if op.params != params or op.order < order:
            raise ValueError(
                "operating point must be for the same params and of at "
                "least the requested order")
    if order is not None:
        check("order", order, ORDER)

    def evaluate(h, idx):
        loop_op = op
        if loop_op is None and (probe != "series" or config.mode != "open"):
            loop_op = mmc_model.steady_state(params, h)
        fs = [freqs[i] for i in idx]
        parity, bx, v_p, row = mmc_model.probe(params, loop_op, h, probe)
        s = 1j * (2.0 * math.pi * np.asarray(fs, dtype=float))
        (x,), errors = _loop(params, config, loop_op, h, parity).solve(
            s, bx, v_p, [row])
        results = [e or _point(params, config, h, probe, f, complex(v))
                   for f, v, e in zip(fs, x, errors)]
        failed = [r for r in results if isinstance(r, Exception)]
        if strict and failed:
            raise failed[0]
        return results

    if order is None:
        return _auto_order(params, freqs, evaluate)
    return order, evaluate(order, range(len(freqs)))


def impedance_at(params, config, freq_hz: float, order: int | None = None,
                 op=None) -> ImpedancePoint:
    """Small-signal ac-side impedance at one perturbation frequency.

    Parameters
    ----------
    params : CircuitParams
    config : ControlConfig, or None for open loop
    freq_hz : float
        Perturbation frequency, > 0.
    order : int, optional
        Harmonic truncation, 1..16. None takes op.order when op is given,
        else the lowest order h >= 4 that agrees with order h + 2 within
        AUTO_ORDER_RTOL (order 16, with a RuntimeWarning, if none does).
    op : SteadyOperatingPoint, optional
        Reuse a precomputed operating point (same params, order >= order);
        ValueError otherwise.

    Raises the first error the point meets at any order evaluated.
    """
    check("freq_hz", freq_hz, POSITIVE)
    _, (point,) = _evaluate(params, config, [freq_hz], order, op, "series",
                            strict=True)
    return point


def circulating_impedance_at(params, config, freq_hz: float,
                             order: int | None = None,
                             op=None) -> ImpedancePoint:
    """Impedance of the circulating path seen by a common-mode
    insertion-index probe.

    A probe delta_n = eps*cos(omega_p t) on both arms acts as a series arm
    EMF of amplitude -vdc*eps; the ratio to the circulating-current response
    is R + ra (low frequency) plus the arm L and stack-capacitance terms.
    Active controller channels stay closed around the probe. order, op and
    errors work as in impedance_at, the automatic order included.
    """
    check("freq_hz", freq_hz, POSITIVE)
    _, (point,) = _evaluate(params, config, [freq_hz], order, op,
                            "circulating", strict=True)
    return point


def _guard_band(config) -> float:
    """Half-width of the exclusion band around f1, 0 when not needed."""
    if config.has_acv and config.krv > 0.0 and config.resonant_damping == 0.0:
        return DEFAULT_GUARD_BAND_HZ
    return 0.0


def guard_band(params, config, freqs, guard_band_hz=None):
    """(half-width, mask of the array freqs inside) of the band around f1
    that sweep excludes: guard_band_hz wide when given, else as wide as
    _guard_band(config) says (None: open loop); 0 or less excludes none."""
    if guard_band_hz is None:
        guard_band_hz = _guard_band(config or mmc_model.ControlConfig())
    check("guard_band_hz", guard_band_hz, ANY)
    inside = np.abs(freqs - params.fundamental_freq) <= guard_band_hz + 1e-12
    return guard_band_hz, inside & (guard_band_hz > 0.0)


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
    One point per distinct frequency, ascending. A config of None is open loop.
    """
    if freqs is None:
        freqs = np.arange(5.0, 500.0 + 0.5, 1.0)
    freqs = np.unique(np.asarray(freqs, dtype=float))
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    check("freqs", freqs, POSITIVE)
    _, inside = guard_band(params, config, freqs, guard_band_hz)
    excluded = tuple(freqs[inside])
    freqs = freqs[~inside]

    order, results = _evaluate(params, config, freqs, order, None, "series",
                               strict=False)
    points = tuple(r for r in results if isinstance(r, ImpedancePoint))
    failures = tuple((f, f"{type(r).__name__}: {r}")
                     for f, r in zip(freqs, results)
                     if not isinstance(r, ImpedancePoint))
    if len(failures) > 0.1 * freqs.size:
        raise DegenerateResponseError(
            f"{len(failures)} of {freqs.size} sweep points failed; "
            f"first: {failures[0][1]}"
        )
    return SweepResult(order, points, excluded, failures)


def find_resonances(result: SweepResult) -> list:
    """Local extrema of |Z| over the sweep grid, parabolically refined.

    Returns Resonance entries sorted by frequency, peaks and notches alike,
    each labelled by its kind. Refinement fits a parabola through the
    extremum and its two neighbours; it is skipped at non-uniform spacing
    (e.g. across the guard band) where the plain grid point is returned.
    """
    f = result.frequencies
    y = result.magnitudes
    found = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] > y[i + 1]:
            label = "peak"
        elif y[i] < y[i - 1] and y[i] < y[i + 1]:
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
