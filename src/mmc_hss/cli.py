"""Command-line front end.

Four workflows over one flat key = value configuration file:

  steady   print the periodic steady-state harmonics
  sweep    analytic impedance over a frequency grid, to CSV
  measure  time-domain impedance at listed frequencies, to CSV
  compare  analytic vs time-domain at listed frequencies, with tolerances

Exit codes: 0 success, 2 configuration problem or unwritable output path
(refused before any work), 3 numerical failure, 4 tolerance failure
(compare only). CSV columns are fixed: freq_hz,z_re_ohm,z_im_ohm,
z_mag_db,z_phase_deg with phase in (-180, 180] and 9 significant digits,
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import impedance_engine, mmc_model, td_sim
from .errors import (ANY, NON_NEGATIVE, POSITIVE, Checked,
                     InvalidValueError, PoleAtResonanceError, check,
                     field_rules, ruled)

_CSV_HEADER = "freq_hz,z_re_ohm,z_im_ohm,z_mag_db,z_phase_deg"

MAX_SWEEP_POINTS = 10 ** 6  # per sweep grid, 2,000 times the default one


class ConfigError(ValueError):
    """Bad configuration file or option; maps to exit code 2."""


def _number(text):
    """An int when the text is one, else a float (for the owner to refuse)."""
    try:
        return int(text)
    except ValueError as exc:
        try:
            return float(text)
        except ValueError:
            raise exc from None


# key -> (default, owner, field): sets RunConfig.<owner>.<field>
# (RunConfig.<field> for owner None) under the rule that field declares.
# The default's type picks the parser; file order is free.
_KEYS = {
    "vdc_v": (320e3, "params", "vdc"),
    "arm_inductance_h": (0.36, "params", "arm_inductance"),
    "arm_resistance_ohm": (1.0, "params", "arm_resistance"),
    "sm_capacitance_f": (140e-6, "params", "sm_capacitance"),
    "sm_per_arm": (20, "params", "sm_per_arm"),
    "fundamental_hz": (50.0, "params", "fundamental_freq"),
    "modulation_index": (0.847, "params", "modulation_index"),
    "modulation_phase_rad": (0.0, "params", "modulation_phase"),
    "modulation_index_2h": (0.0, "params", "modulation_index_2h"),
    "modulation_phase_2h_rad": (0.0, "params", "modulation_phase_2h"),
    "load_resistance_ohm": (550.0, "params", "load_resistance"),
    "load_inductance_h": (0.0, "params", "load_inductance"),
    "control_mode": ("open", "control", "mode"),
    "kpv": (1.0, "control", "kpv"),
    "krv": (20.0, "control", "krv"),
    "kf": (0.0, "control", "kf"),
    "resonant_damping": (0.0, "control", "resonant_damping"),
    "ra_ohm": (20.0, "control", "ra"),
    "sampling_period_s": (1e-4, "control", "sampling_period"),
    "dt_s": (1e-5, "sim", "dt"),
    "settle_cycles": (300, "sim", "settle_cycles"),
    "measure_cycles": (2, "sim", "measure_cycles"),
    "ramp_cycles": (20, "sim", "ramp_cycles"),
    "post_ramp_cycles": (30, "sim", "post_ramp_cycles"),
    "perturb_amplitude_v": (0.0, "sim", "perturb_amplitude"),
    "periodicity_tol": (1e-6, "sim", "periodicity_tol"),
    "reference_settle_cycles": (800, "sim", "reference_settle_cycles"),
    "harmonic_order": (4, None, "harmonic_order"),
    "sweep_start_hz": (5.0, None, "sweep_start_hz"),
    "sweep_stop_hz": (500.0, None, "sweep_stop_hz"),
    "sweep_step_hz": (1.0, None, "sweep_step_hz"),
    # negative = automatic
    "guard_band_hz": (-1.0, None, "guard_band_hz"),
    "out_csv": ("", None, "out_csv"),
}


@dataclass(frozen=True)
class RunConfig(Checked):
    """Validated bundle of everything a workflow needs."""

    params: mmc_model.CircuitParams
    control: mmc_model.ControlConfig
    sim: td_sim.SimConfig
    harmonic_order: int = ruled(impedance_engine.ORDER)
    sweep_start_hz: float = ruled(POSITIVE)
    sweep_stop_hz: float = ruled(POSITIVE)
    sweep_step_hz: float = ruled(POSITIVE)
    guard_band_hz: float = ruled(ANY)
    out_csv: str = ruled(ANY)

    @property
    def guard_band(self) -> float | None:
        """None requests the engine's automatic guard band."""
        return None if self.guard_band_hz < 0.0 else self.guard_band_hz

    def sweep_grid(self) -> np.ndarray:
        if self.sweep_stop_hz < self.sweep_start_hz:
            raise ConfigError("sweep_stop_hz is below sweep_start_hz")
        stop = self.sweep_stop_hz + 0.5 * self.sweep_step_hz
        # counted before any is allocated: np.arange makes ceil(count)
        count = (stop - self.sweep_start_hz) / self.sweep_step_hz
        if count > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep_step_hz = {self.sweep_step_hz:g} gives {count:.3g} "
                f"grid points, more than {MAX_SWEEP_POINTS}")
        return np.arange(self.sweep_start_hz, stop, self.sweep_step_hz)

    def dump(self, path) -> None:
        """Write the effective configuration; re-parsing it is an identity.

        Floats are written with repr, which round-trips exactly; strings
        are written bare because the parser takes values verbatim.
        """
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# effective configuration\n")
            for key, v in _config_values(self).items():
                fh.write(f"{key} = {v}\n" if isinstance(v, str)
                         else f"{key} = {v!r}\n")


_OWNERS = {"params": mmc_model.CircuitParams,
           "control": mmc_model.ControlConfig, "sim": td_sim.SimConfig,
           None: RunConfig}


def _config_values(cfg: RunConfig) -> dict:
    return {key: getattr(getattr(cfg, owner) if owner else cfg, name)
            for key, (_, owner, name) in _KEYS.items()}


def _build_config(values: dict, lines: dict) -> RunConfig:
    fields = {owner: {} for owner in _OWNERS}
    for key, (_, owner, name) in _KEYS.items():
        fields[owner][name] = values[key]
    run = fields.pop(None)
    for owner, owned in fields.items():
        try:
            run[owner] = _OWNERS[owner](**owned)
        except ValueError as exc:
            # a cross-field rule (each value kept its own on its line):
            # point at the last line that set a key of the rejecting object
            set_here = [lines[k] for k, spec in _KEYS.items()
                        if spec[1] == owner and k in lines]
            where = f" (line {max(set_here)})" if set_here else ""
            raise ConfigError(f"invalid configuration{where}: {exc}") from exc
    return RunConfig(**run)


def parse_config(path) -> RunConfig:
    """Read a flat key = value file; every key optional, none unknown.

    Reports the first offending key with its line number and the reason
    its owner's rule gives. Values use plain Python float syntax and must
    be finite; '#' starts a comment.
    """
    values = {key: spec[0] for key, spec in _KEYS.items()}
    lines = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        default, owner, name = _KEYS[key]
        parse = _number if isinstance(default, int) else type(default)
        try:
            values[key] = check(name, parse(value),
                                field_rules(_OWNERS[owner])[name])
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: "
                              f"{getattr(exc, 'reason', exc)}") from exc
        lines[key] = lineno
    return _build_config(values, lines)


# ---------------------------------------------------------------------------
# output helpers


def _csv_rows(points) -> str:
    out = [_CSV_HEADER]
    for pt in points:
        z = pt.impedance
        out.append(",".join(f"{v:.9g}" for v in (
            pt.freq_hz, z.real, z.imag, pt.magnitude_db, pt.phase_deg)))
    return "\n".join(out) + "\n"


def _write_csv(path, points) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_csv_rows(points))


def _parse_freqs(text) -> list:
    try:
        freqs = [float(tok) for tok in text.split(",") if tok.strip()]
        check("--freqs", np.array(freqs), POSITIVE)
    except InvalidValueError:
        raise ConfigError("--freqs entries must be positive and finite") \
            from None
    except ValueError as exc:
        raise ConfigError(f"bad --freqs list: {exc}") from exc
    if not freqs:
        raise ConfigError("--freqs list is empty")
    return sorted(set(freqs))


# ---------------------------------------------------------------------------
# workflows


def _option(name, value, rules):
    """value of option name if it keeps rules, else a ConfigError."""
    try:
        return check(name, value, rules)
    except InvalidValueError as exc:
        raise ConfigError(f"{name} {value}: {exc.reason}") from None


def _order_of(args, cfg) -> int:
    """--h when given, checked like harmonic_order; else that key."""
    if args.h is None:
        return cfg.harmonic_order
    return _option("--h", args.h, impedance_engine.ORDER)


def _writable(path) -> str:
    """path, refused before any work when its directory is missing or no
    file can be written there; creates nothing."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write output: {path}")
    return path


def _out_path(args, cfg) -> str:
    """--out wins; the out_csv config key is the fallback."""
    path = args.out or cfg.out_csv
    if not path:
        raise ConfigError("no output path: pass --out or set out_csv")
    return _writable(path)


def cmd_steady(args) -> int:
    cfg = parse_config(args.config)
    order = _order_of(args, cfg)
    if args.dump_config:
        cfg.dump(args.dump_config)
    op = mmc_model.steady_state(cfg.params, order)
    print(f"periodic steady state, truncation order {order}")
    print(f"{'state':6s} {'k':>3s} {'amplitude':>15s} {'phase_deg':>10s}")
    for name in ("i_c", "v_cu", "v_cl", "i_g", "v_g"):
        for k in range(0, order + 1):
            coeff = op.coeff(name, k)
            amp = coeff.real if k == 0 else 2.0 * abs(coeff)
            if k == 0:
                print(f"{name:6s} {k:3d} {amp:15.6g} {'':>10s}")
            else:
                phase = math.degrees(np.angle(2.0 * coeff))
                print(f"{name:6s} {k:3d} {amp:15.6g} {phase:10.2f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    order = _order_of(args, cfg)
    out = _out_path(args, cfg)
    result = impedance_engine.sweep(
        cfg.params, cfg.control, cfg.sweep_grid(), order=order,
        guard_band_hz=cfg.guard_band)
    _write_csv(out, result.points)
    print(f"wrote {len(result.points)} rows to {out}"
          f" ({len(result.excluded)} guard-band exclusions,"
          f" {len(result.failures)} failures)")
    for freq, message in result.failures:
        print(f"  failed at {freq:g} Hz: {message}", file=sys.stderr)
    return 0


def cmd_measure(args) -> int:
    cfg = parse_config(args.config)
    freqs = _parse_freqs(args.freqs)
    out = _out_path(args, cfg)
    trajectory = args.dump_trajectory and _writable(args.dump_trajectory)
    control = cfg.control
    points = td_sim.measure_impedance_many(cfg.params, control, cfg.sim,
                                           freqs)
    ordered = [points[f] for f in freqs]
    _write_csv(out, ordered)
    print(f"wrote {len(ordered)} rows to {out}")
    if trajectory:
        # unperturbed: the campaign's probe amplitude has no frequency here
        series = td_sim.simulate(cfg.params, control,
                                 replace(cfg.sim, perturb_amplitude=0.0))
        td_sim.write_trajectory_csv(series, trajectory)
        print(f"wrote steady trajectory to {trajectory}")
    return 0


def cmd_compare(args) -> int:
    _option("--tol-mag", args.tol_mag, NON_NEGATIVE)
    _option("--tol-phase", args.tol_phase, NON_NEGATIVE)
    cfg = parse_config(args.config)
    freqs = _parse_freqs(args.freqs)
    band, inside = impedance_engine.guard_band(
        cfg.params, cfg.control, np.array(freqs), cfg.guard_band)
    if inside.any():
        refused = ",".join(f"{f:g}" for f, i in zip(freqs, inside) if i)
        raise ConfigError(
            f"--freqs {refused}: within the {band:g} Hz guard band around "
            f"the {cfg.params.fundamental_freq:g} Hz fundamental")
    analytic = {
        f: impedance_engine.impedance_at(cfg.params, cfg.control, f,
                                         order=cfg.harmonic_order)
        for f in freqs
    }
    measured = td_sim.measure_impedance_many(cfg.params, cfg.control,
                                             cfg.sim, freqs)
    worst_mag = 0.0
    worst_phase = 0.0
    print(f"{'freq_hz':>8s} {'analytic_ohm':>13s} {'td_ohm':>13s} "
          f"{'dmag_pct':>9s} {'dphase_deg':>10s}")
    for f in freqs:
        za = analytic[f].impedance
        zt = measured[f].impedance
        dmag = abs(abs(zt) - abs(za)) / abs(za) * 100.0
        dphase = abs(math.degrees(np.angle(zt * np.conj(za))))
        worst_mag = max(worst_mag, dmag)
        worst_phase = max(worst_phase, dphase)
        print(f"{f:8g} {abs(za):13.6g} {abs(zt):13.6g} "
              f"{dmag:9.3f} {dphase:10.3f}")
    ok = worst_mag <= args.tol_mag and worst_phase <= args.tol_phase
    print(f"max deviation: {worst_mag:.3f} % magnitude, "
          f"{worst_phase:.3f} deg phase "
          f"(tolerances {args.tol_mag:g} %, {args.tol_phase:g} deg): "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 4


# option -> argparse keywords, shared by every workflow that takes it
_OPTIONS = {
    "--config": dict(required=True),
    "--h": dict(type=int, default=None, help="override truncation order"),
    "--freqs": dict(required=True, help="comma-separated frequencies in Hz"),
    "--out": dict(default="", help="output CSV; falls back to out_csv"),
    "--dump-config": dict(default="",
                          help="write the effective configuration here"),
    "--dump-trajectory": dict(default="",
                              help="also write the settled trajectory here"),
    "--tol-mag": dict(type=float, default=5.0,
                      help="magnitude tolerance, percent"),
    "--tol-phase": dict(type=float, default=5.0,
                        help="phase tolerance, degrees"),
}

# workflow -> (function, help, options in --help order)
_COMMANDS = {
    "steady": (cmd_steady, "print steady-state harmonics",
               ("--config", "--h", "--dump-config")),
    "sweep": (cmd_sweep, "analytic impedance sweep to CSV",
              ("--config", "--out", "--h")),
    "measure": (cmd_measure,
                "time-domain impedance at listed frequencies to CSV",
                ("--config", "--freqs", "--out", "--dump-trajectory")),
    "compare": (cmd_compare, "analytic vs time-domain at listed frequencies",
                ("--config", "--freqs", "--tol-mag", "--tol-phase")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmc-hss",
        description="ac-side small-signal impedance of a modular "
                    "multilevel converter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArithmeticError, PoleAtResonanceError) as exc:
        # SingularSystemError, DegenerateResponseError, DivergenceError
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError and every rule a value breaks
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that cannot be written
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
