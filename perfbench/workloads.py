"""The three workloads: what one timed unit runs, and how it is checked.

A unit is the smallest amount of work whose cost does not depend on the
seed: a ``sweep`` pass (eight CLI sweeps), a ``scan`` cycle (twelve
operating points, one per mode and order) or an ``oracle`` pair (one open
and one ac-voltage-loop campaign). Runs measure whole units, so a run's
metrics never depend on where the clock happened to stop.

Each operation is timed on its own with ``time.perf_counter``; everything a
check needs is kept and checked after the unit, outside the timed region.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import time

import checks
import generator as gen
from metrics import ROOT
from mmc_hss import cli, impedance_engine, mmc_model, td_sim
from mmc_hss.errors import (DegenerateResponseError, DivergenceError,
                            PoleAtResonanceError, SingularSystemError)

# failures are counted by class; these are the typed ones
ERROR_NAMES = tuple(e.__name__ for e in (
    SingularSystemError, PoleAtResonanceError, DegenerateResponseError,
    DivergenceError))

# the oracle's tolerances are those of `mmc-hss compare`
ORACLE_TOL_MAG_PCT = 5.0
ORACLE_TOL_PHASE_DEG = 5.0
ORACLE_CHECK_ORDER = 8


class Clock:
    """Times one operation at a time; when a tracer is recording, the
    operation also becomes a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = 0

    @contextlib.contextmanager
    def __call__(self):
        timing = _Timing()
        tracer = self.tracer
        root = (tracer.root(ROOT, self.ops)
                if tracer is not None and tracer.enabled
                else contextlib.nullcontext())
        self.ops += 1
        with root:
            t0 = time.perf_counter()
            try:
                yield timing
            finally:
                timing.seconds = time.perf_counter() - t0


class _Timing:
    seconds = 0.0


class Op:
    """Outcome of one timed operation."""

    def __init__(self, kind, mode, seconds, points, error=None):
        self.kind = kind
        self.mode = mode            # control mode
        self.seconds = seconds
        self.points = points
        self.error = error          # exception class name, or None
        self.point_errors = {}      # class name -> count, failed points
        self.mismatch = None        # set by the checks
        self.checked = False
        self.excluded = 0           # guard-band exclusions of its sweep
        self.csv_bytes = 0
        self.dev_pct = 0.0          # oracle: worst |Z| deviation, percent

    def as_dict(self):
        return {"kind": self.kind, "mode": self.mode,
                "seconds": self.seconds,
                "points": self.points, "error": self.error,
                "point_errors": self.point_errors,
                "mismatch": self.mismatch, "checked": self.checked,
                "excluded": self.excluded, "csv_bytes": self.csv_bytes,
                "dev_pct": self.dev_pct}


def _count_point_failures(failures) -> dict:
    """Class counts of the per-point failures a sweep records as
    (freq, "ClassName: message")."""
    out = {}
    for _, message in failures:
        name = message.split(":", 1)[0]
        out[name] = out.get(name, 0) + 1
    return out


# ------------------------------------------------------------------ sweep

class Sweep:
    """``mmc-hss sweep`` on the reference leg, called in process."""

    def __init__(self, clock, workdir, seed, smoke=False):
        self.clock = clock
        self.seed = seed
        self.grid = gen.SMOKE_SWEEP_GRID if smoke else gen.SWEEP_GRID
        self.dir = os.path.join(workdir, "sweep")
        os.makedirs(self.dir, exist_ok=True)
        self.configs = {}
        for mode in gen.MODES:
            path = os.path.join(self.dir, f"{mode}.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(gen.sweep_config_text(mode, self.grid))
            self.configs[mode] = path

    def inputs(self, unit):
        return gen.sweep_unit(self.seed, unit)

    def run(self, plan):
        ops = []
        for name, mode, h in plan:
            csv = os.path.join(self.dir, f"{name}.csv")
            argv = ["sweep", "--config", self.configs[mode], "--h", str(h),
                    "--out", csv]
            out, err = io.StringIO(), io.StringIO()
            with self.clock() as timing, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            op = Op(name, mode, timing.seconds, 0,
                    None if code == 0 else f"exit{code}")
            op.h = h
            op.csv = csv
            op.stderr = err.getvalue()
            ops.append(op)
        return ops

    def _error_class(self, op) -> str:
        """Class of the exception that made a CLI sweep exit nonzero.

        ``cli.main`` prints only the message, so the sweep it ran is
        repeated here, outside the timed region, to name the class.
        """
        try:
            cfg = cli.parse_config(self.configs[op.mode])
            impedance_engine.sweep(cfg.params, cfg.control, cfg.sweep_grid(),
                                   order=op.h, guard_band_hz=cfg.guard_band)
        except Exception as exc:  # noqa: BLE001 -- any class is reported
            return type(exc).__name__
        return op.error

    def check(self, ops):
        for op in ops:
            if op.error is not None:
                op.error = self._error_class(op)
                continue
            rows = checks.read_sweep_csv(op.csv)
            op.points = len(rows)
            op.csv_bytes = os.path.getsize(op.csv)
            for line in op.stderr.splitlines():
                # "  failed at <f> Hz: <Class>: <message>"
                if "failed at" in line:
                    name = line.split(": ", 2)[1]
                    op.point_errors[name] = op.point_errors.get(name, 0) + 1
            op.excluded = (len(gen.grid(self.grid)) - len(rows)
                           - sum(op.point_errors.values()))
            op.mismatch = checks.compare_sweep(
                rows, checks.load_reference("sweep")[op.kind],
                gen.grid(self.grid))
            op.checked = True


# ------------------------------------------------------------------- scan

class Scan:
    """A design-space scan: steady state, a coarse sweep with its
    resonances, three spot points the way ``compare`` computes them, and
    two circulating-path probes, per seeded operating point."""

    def __init__(self, clock, workdir, seed, smoke=False):
        self.clock = clock
        self.seed = seed
        self.size = 2 if smoke else 12
        self.freqs = gen.grid(gen.SCAN_GRID)

    def inputs(self, unit):
        return gen.scan_unit(self.seed, unit, self.size)

    def run(self, plan):
        ops = []
        for point in plan:
            params = mmc_model.CircuitParams(**point["params"])
            control = mmc_model.ControlConfig(mode=point["mode"],
                                              **point["gains"])
            h = point["order"]
            error = None
            with self.clock() as timing:
                try:
                    op_point = mmc_model.steady_state(params, h)
                    result = impedance_engine.sweep(
                        params, control, self.freqs, order=h,
                        guard_band_hz=point["guard_band_hz"])
                    resonances = impedance_engine.find_resonances(result)
                    spots = [impedance_engine.impedance_at(
                                 params, control, f, order=h)
                             for f in point["spot_hz"]]
                    circ = [impedance_engine.circulating_impedance_at(
                                params, control, f, order=h, op=op_point)
                            for f in point["circulating_hz"]]
                except (ArithmeticError, ValueError) as exc:
                    error = type(exc).__name__
            if error is not None:
                op = Op(point["index"], point["mode"], timing.seconds, 0,
                        error)
            else:
                op = Op(point["index"], point["mode"], timing.seconds,
                        len(result.points) + len(spots) + len(circ))
                op.point_errors = _count_point_failures(result.failures)
                op.values = {
                    "sweep": [[p.freq_hz, p.impedance.real, p.impedance.imag]
                              for p in result.points],
                    "spot": [[z.impedance.real, z.impedance.imag]
                             for z in spots],
                    "circulating": [[z.impedance.real, z.impedance.imag]
                                    for z in circ],
                    "resonances": [[r.freq_hz, r.kind] for r in resonances],
                }
                op.excluded = len(result.excluded)
            op.point = point
            ops.append(op)
        return ops

    def check(self, ops):
        for op in ops:
            if op.error is not None:
                continue
            point = op.point
            # Reusing the operating point must give what a fresh solve
            # gives: recompute each spot with `op` passed in.
            params = mmc_model.CircuitParams(**point["params"])
            control = mmc_model.ControlConfig(mode=point["mode"],
                                              **point["gains"])
            steady = mmc_model.steady_state(params, point["order"])
            for f, (re, im) in zip(point["spot_hz"], op.values["spot"]):
                z = impedance_engine.impedance_at(
                    params, control, f, order=point["order"], op=steady)
                if not checks.close(complex(re, im), z.impedance):
                    op.mismatch = (f"spot {f:g} Hz: {complex(re, im)} vs "
                                   f"{z.impedance} with the operating point "
                                   f"reused")
                    break
            ref = checks.load_reference("scan").get(
                f"{self.seed}:{point['index']}")
            if op.mismatch is None and ref is not None:
                op.mismatch = checks.compare_scan(op.values, ref)
                op.checked = True


# ----------------------------------------------------------------- oracle

class Oracle:
    """Time-domain campaigns on the reference leg, each paying for its own
    reference cycle the way every ``mmc-hss measure`` call does."""

    def __init__(self, clock, workdir, seed, smoke=False):
        self.clock = clock
        self.seed = seed
        self.sim = td_sim.SimConfig(**(gen.SMOKE_SIM if smoke else gen.SIM))
        self.params = mmc_model.CircuitParams(**gen.REFERENCE_LEG)

    def control(self, mode):
        return mmc_model.ControlConfig(mode=mode, **gen.REFERENCE_GAINS)

    def inputs(self, unit):
        return gen.oracle_unit(self.seed, unit)

    def run(self, plan):
        ops = []
        for campaign in plan:
            control = self.control(campaign["mode"])
            td_sim.reset_caches()
            error = None
            with self.clock() as timing:
                try:
                    points = td_sim.measure_impedance_many(
                        self.params, control, self.sim, campaign["freqs"])
                except (ArithmeticError, ValueError) as exc:
                    error = type(exc).__name__
            if error is not None:
                op = Op(campaign["mode"], campaign["mode"], timing.seconds,
                        0, error)
            else:
                op = Op(campaign["mode"], campaign["mode"], timing.seconds,
                        len(points))
                op.values = {f: p.impedance for f, p in points.items()}
            op.campaign = campaign
            ops.append(op)
        return ops

    def check(self, ops):
        for op in ops:
            if op.error is not None:
                continue
            control = self.control(op.campaign["mode"])
            for f, z_td in op.values.items():
                z_an = impedance_engine.impedance_at(
                    self.params, control, f, order=ORACLE_CHECK_ORDER)
                za = z_an.impedance
                dmag = abs(abs(z_td) - abs(za)) / abs(za) * 100.0
                dphase = abs(math.degrees(cmath.phase(z_td * za.conjugate())))
                op.dev_pct = max(op.dev_pct, dmag)
                too_far = (dmag > ORACLE_TOL_MAG_PCT
                           or dphase > ORACLE_TOL_PHASE_DEG)
                if too_far and op.mismatch is None:
                    op.mismatch = (f"{op.kind} {f:g} Hz: {dmag:.3f} % and "
                                   f"{dphase:.3f} deg from "
                                   f"h={ORACLE_CHECK_ORDER}")
            op.checked = True


WORKLOADS = {"sweep": Sweep, "scan": Scan, "oracle": Oracle}
