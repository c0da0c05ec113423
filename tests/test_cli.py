"""Command-line workflows: configuration parsing, CSV output contracts,
exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from mmc_hss import cli
from mmc_hss.errors import (DegenerateResponseError, DivergenceError,
                            InvalidValueError, PoleAtResonanceError,
                            SingularSystemError)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def cfg_default(tmp_path):
    return _write(tmp_path, "default.cfg", "# all defaults\n")


@pytest.fixture()
def cfg_m0(tmp_path):
    return _write(tmp_path, "m0.cfg", "modulation_index = 0\n")


# ------------------------------------------------------------ config parsing


def test_parse_defaults(cfg_default):
    cfg = cli.parse_config(cfg_default)
    assert cfg.params.vdc == 320e3
    assert cfg.params.arm_inductance == 0.36
    assert cfg.params.sm_per_arm == 20
    assert cfg.control.mode == "open"
    assert cfg.sim.dt == 1e-5
    assert cfg.harmonic_order == 4
    assert cfg.guard_band is None  # negative sentinel means automatic
    grid = cfg.sweep_grid()
    assert grid[0] == 5.0 and grid[-1] == 500.0 and grid.size == 496


def test_parse_overrides_comments_and_spacing(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "a.cfg", """
# reference leg, voltage loop closed
control_mode = acv
kpv = 2.5        # stiffer than usual
modulation_index=0.9
guard_band_hz = 3.5
out_csv = result.csv
"""))
    assert cfg.control.mode == "acv"
    assert cfg.control.kpv == 2.5
    assert cfg.control.krv == 20.0  # untouched default
    assert cfg.params.modulation_index == 0.9
    assert cfg.guard_band == 3.5
    assert cfg.out_csv == "result.csv"


def test_parse_rejects_with_line_numbers(tmp_path):
    with pytest.raises(cli.ConfigError, match="line 1: unknown key"):
        cli.parse_config(_write(tmp_path, "b.cfg", "arm_henries = 1\n"))
    with pytest.raises(cli.ConfigError,
                       match=r"line 2: key 'modulation_index': must be "
                             r"within \[0, 1\]"):
        cli.parse_config(_write(tmp_path, "c.cfg",
                                "# comment\nmodulation_index = 1.2\n"))
    with pytest.raises(cli.ConfigError, match="line 1: key 'vdc_v'"):
        cli.parse_config(_write(tmp_path, "d.cfg", "vdc_v = lots\n"))
    with pytest.raises(cli.ConfigError, match="expected 'key = value'"):
        cli.parse_config(_write(tmp_path, "e.cfg", "just some words\n"))
    with pytest.raises(cli.ConfigError, match="cannot read config"):
        cli.parse_config(str(tmp_path / "missing.cfg"))


def test_harmonic_order_out_of_range_names_its_line(tmp_path, capsys):
    # an order the engine cannot build is refused at parse time, with its
    # line, like every other bad value; sweep and steady never start
    for order in (0, 17):
        path = _write(tmp_path, "h.cfg",
                      f"# order\nharmonic_order = {order}\n")
        with pytest.raises(cli.ConfigError,
                           match=r"line 2: key 'harmonic_order': must lie "
                                 r"in 1\.\.16"):
            cli.parse_config(path)
        for workflow in ("steady", "sweep"):
            assert cli.main([workflow, "--config", path]) == 2
            assert "line 2" in capsys.readouterr().err
    edge = cli.parse_config(_write(tmp_path, "h16.cfg",
                                   "harmonic_order = 16\n"))
    assert edge.harmonic_order == 16


def test_order_option_out_of_range_names_it(cfg_m0, tmp_path, capsys,
                                            monkeypatch):
    # --h gets the check harmonic_order gets, before any work is done
    calls = []
    monkeypatch.setattr(cli.mmc_model, "steady_state",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli.impedance_engine, "sweep",
                        lambda *a, **k: calls.append(a))
    dump, out = tmp_path / "eff.cfg", tmp_path / "s.csv"
    for h in ("17", "-3", "0"):
        assert cli.main(["steady", "--config", cfg_m0, "--h", h,
                         "--dump-config", str(dump)]) == 2
        assert f"--h {h}: must lie in 1..16" in capsys.readouterr().err
        assert cli.main(["sweep", "--config", cfg_m0, "--h", h,
                         "--out", str(out)]) == 2
        assert f"--h {h}: must lie in 1..16" in capsys.readouterr().err
    assert calls == []
    assert not dump.exists() and not out.exists()


def test_dump_and_reparse_is_identity(tmp_path):
    src = _write(tmp_path, "src.cfg", """
control_mode = acv+ccc
kpv = 1.25
modulation_phase_rad = -0.31830988618379069
sweep_step_hz = 0.5
out_csv = z.csv
""")
    cfg = cli.parse_config(src)
    dumped = tmp_path / "dumped.cfg"
    cfg.dump(dumped)
    again = cli.parse_config(str(dumped))
    assert cli._config_values(cfg) == cli._config_values(again)



def test_cross_field_error_names_a_key_of_the_rejecting_object(tmp_path):
    # line 3 sets a RunConfig field; the circuit parameters rejected the
    # combination, and their last explicit key is on line 2
    with pytest.raises(cli.ConfigError,
                       match=r"invalid configuration \(line 2\): combined "
                             r"modulation exceeds the linear range"):
        cli.parse_config(_write(tmp_path, "x.cfg",
                                "modulation_index = 0.8\n"
                                "modulation_index_2h = 0.3\n"
                                "out_csv = x.csv\n"))


# a valid non-default value for every key
_OTHER_VALUES = {
    "vdc_v": "300e3", "arm_inductance_h": "0.3", "arm_resistance_ohm": "2.0",
    "sm_capacitance_f": "1e-4", "sm_per_arm": "10", "fundamental_hz": "60",
    "modulation_index": "0.8", "modulation_phase_rad": "0.1",
    "modulation_index_2h": "0.1", "modulation_phase_2h_rad": "0.2",
    "load_resistance_ohm": "500", "load_inductance_h": "0.01",
    "control_mode": "acv", "kpv": "2.0", "krv": "10.0", "kf": "0.5",
    "resonant_damping": "1.0", "ra_ohm": "10.0", "sampling_period_s": "2e-4",
    "dt_s": "2e-5", "settle_cycles": "100", "measure_cycles": "3",
    "ramp_cycles": "5", "post_ramp_cycles": "6", "perturb_amplitude_v": "100",
    "periodicity_tol": "1e-8", "reference_settle_cycles": "400",
    "harmonic_order": "6", "sweep_start_hz": "10", "sweep_stop_hz": "400",
    "sweep_step_hz": "2", "guard_band_hz": "3", "out_csv": "z.csv",
}


def _fields(cfg):
    """Every field of a RunConfig, nested configuration objects flattened."""
    flat = {}
    for name, value in dataclasses.asdict(cfg).items():
        if isinstance(value, dict):
            flat.update({(name, k): v for k, v in value.items()})
        else:
            flat[name] = value
    return flat


def test_each_key_sets_exactly_one_field(tmp_path, cfg_default):
    # a key routed to another key's field survives the dump/re-parse round
    # trip, which reads through the same table; this catches it
    base = cli.parse_config(cfg_default)
    base_fields, base_values = _fields(base), cli._config_values(base)
    assert set(_OTHER_VALUES) == set(base_values)
    for key, text in _OTHER_VALUES.items():
        cfg = cli.parse_config(_write(tmp_path, "one.cfg",
                                      f"{key} = {text}\n"))
        fields, values = _fields(cfg), cli._config_values(cfg)
        changed = [f for f in base_fields if fields[f] != base_fields[f]]
        assert len(changed) == 1, (key, changed)
        assert [k for k in base_values if values[k] != base_values[k]] \
            == [key]

# one bad value per key whose owner checks it: the text in the file, the
# value a Python caller would pass, and the reason both get
_BAD_VALUES = {
    "vdc_v": ("0", 0.0, "must be positive"),
    "arm_inductance_h": ("-0.36", -0.36, "must be positive"),
    "arm_resistance_ohm": ("-1", -1.0, "must not be negative"),
    "sm_capacitance_f": ("0", 0.0, "must be positive"),
    "sm_per_arm": ("20.5", 20.5, "must be a whole number"),
    "fundamental_hz": ("inf", float("inf"), "must be finite"),
    "modulation_index": ("1.2", 1.2, "must be within [0, 1]"),
    "modulation_phase_rad": ("nan", float("nan"), "must be finite"),
    "modulation_index_2h": ("-0.1", -0.1, "must be within [0, 1]"),
    "modulation_phase_2h_rad": ("-inf", float("-inf"), "must be finite"),
    "load_resistance_ohm": ("-550", -550.0, "must not be negative"),
    "load_inductance_h": ("-1e-3", -1e-3, "must not be negative"),
    "control_mode": ("pi", "pi", "must be one of open, acv, ccc, acv+ccc"),
    "kpv": ("-1", -1.0, "must not be negative"),
    "krv": ("nan", float("nan"), "must be finite"),
    "kf": ("-1", -1.0, "must not be negative"),
    "resonant_damping": ("-2", -2.0, "must not be negative"),
    "ra_ohm": ("inf", float("inf"), "must be finite"),
    "sampling_period_s": ("0", 0.0, "must be positive"),
    "dt_s": ("-1e-5", -1e-5, "must be positive"),
    "settle_cycles": ("0", 0, "must be at least 1"),
    "measure_cycles": ("1.5", 1.5, "must be a whole number"),
    "ramp_cycles": ("-1", -1, "must not be negative"),
    "post_ramp_cycles": ("2.0", 2.0, "must be a whole number"),
    "perturb_amplitude_v": ("-100", -100.0, "must not be negative"),
    "periodicity_tol": ("0", 0.0, "must be positive"),
    "reference_settle_cycles": ("-3", -3, "must be at least 1"),
    "harmonic_order": ("17", 17, "must lie in 1..16"),
    "sweep_start_hz": ("0", 0.0, "must be positive"),
    "sweep_stop_hz": ("-500", -500.0, "must be positive"),
    "sweep_step_hz": ("nan", float("nan"), "must be finite"),
    "guard_band_hz": ("inf", float("inf"), "must be finite"),
}


def test_cli_and_library_refuse_the_same_values(tmp_path, cfg_default):
    # the CLI names the line; the reason is the owner's, word for word
    base = cli.parse_config(cfg_default)
    assert set(_BAD_VALUES) == set(cli._KEYS) - {"out_csv"}
    for key, (text, value, reason) in _BAD_VALUES.items():
        path = _write(tmp_path, "bad.cfg", f"# bad value\n{key} = {text}\n")
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(path)
        assert str(info.value) == f"line 2: key {key!r}: {reason}"
        _, _, owner, field = cli._KEYS[key]
        with pytest.raises(InvalidValueError) as info:
            dataclasses.replace(getattr(base, owner) if owner else base,
                                **{field: value})
        assert (info.value.field, info.value.reason) == (field, reason)


def test_a_bad_value_set_again_later_is_still_refused(tmp_path):
    # each line is checked as it is read, so a later line cannot hide it
    path = _write(tmp_path, "twice.cfg", "kf = -1\nkpv = 2\nkf = 0.5\n")
    with pytest.raises(cli.ConfigError,
                       match=r"line 1: key 'kf': must not be negative"):
        cli.parse_config(path)


def test_sweep_grid_validation(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "g.cfg",
                                  "sweep_start_hz = 100\n"
                                  "sweep_stop_hz = 50\n"))
    with pytest.raises(cli.ConfigError):
        cfg.sweep_grid()


# --------------------------------------------------------------- csv contract


def test_sweep_csv_schema_and_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "narrow.cfg",
                 "sweep_start_hz = 30\nsweep_stop_hz = 40\n")
    out1, out2 = str(tmp_path / "z1.csv"), str(tmp_path / "z2.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert "wrote 11 rows" in capsys.readouterr().out
    assert cli.main(["sweep", "--config", cfg, "--out", out2]) == 0

    text = open(out1).read()
    assert text == open(out2).read()  # byte-identical reruns
    lines = text.splitlines()
    assert lines[0] == "freq_hz,z_re_ohm,z_im_ohm,z_mag_db,z_phase_deg"
    assert len(lines) == 12
    for line in lines[1:]:
        tokens = line.split(",")
        assert len(tokens) == 5
        freq, re, im, mag_db, phase = map(float, tokens)
        assert 30.0 <= freq <= 40.0
        assert -180.0 < phase <= 180.0
        assert mag_db == pytest.approx(
            20 * np.log10(abs(complex(re, im))), rel=1e-6)
        # 9 significant digits, formatting idempotent
        assert all(f"{float(tok):.9g}" == tok for tok in tokens)


def test_sweep_guard_band_row_counts(tmp_path, capsys):
    acv = _write(tmp_path, "acv.cfg", "control_mode = acv\n")
    out = str(tmp_path / "acv.csv")
    assert cli.main(["sweep", "--config", acv, "--out", out]) == 0
    msg = capsys.readouterr().out
    assert "wrote 491 rows" in msg
    assert "5 guard-band exclusions" in msg
    assert len(open(out).read().splitlines()) == 492


def test_sweep_reports_each_failed_point_on_stderr(tmp_path, capsys,
                                                  monkeypatch):
    # one line per failed point, "  failed at <f> Hz: <class>: <message>",
    # which the benchmark's sweep check splits at ": " to count by class;
    # here zeroing the channel law at 35 Hz makes that point singular
    real = cli.mmc_model.channel_gains

    def gains(params, config, order, s, parity):
        alpha, beta, scale = real(params, config, order, s, parity)
        dead = np.asarray(s) == 1j * (2.0 * np.pi * 35.0)
        alpha[dead] = beta[dead] = 0.0
        return alpha, beta, scale

    monkeypatch.setattr(cli.mmc_model, "channel_gains", gains)
    cfg = _write(tmp_path, "acv.cfg",
                 "control_mode = acv\nsweep_start_hz = 30\n"
                 "sweep_stop_hz = 40\nguard_band_hz = 0\n")
    out = str(tmp_path / "z.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", out,
                     "--h", "4"]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.rstrip("\n").endswith(", 1 failures)")
    assert "wrote 10 rows" in stdout
    assert "  failed at 35 Hz: SingularSystemError: " in stderr


def test_sweep_csv_does_not_depend_on_blas_threads(tmp_path):
    # the same sweep in fresh processes, with one OpenBLAS thread and with
    # the library's default, writes the same bytes
    with open(os.path.join(_REPO_ROOT, "paper_sim.cfg")) as fh:
        text = fh.read()
    assert "control_mode = open\n" in text
    cfg = _write(tmp_path, "both.cfg", text.replace(
        "control_mode = open\n", "control_mode = acv+ccc\n"))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(_REPO_ROOT, "src"), env.get("PYTHONPATH")]))
    written = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"threads{len(written)}.csv"
        subprocess.run([sys.executable, "-m", "mmc_hss.cli", "sweep",
                        "--config", cfg, "--h", "8", "--out", str(out)],
                       env={**env, **threads}, check=True,
                       capture_output=True, timeout=120)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_the_package_runs_without_scipy(tmp_path):
    # SciPy is needed by the tests only: with it unimportable, a fresh
    # process still sweeps, prints the steady state and solves a spot point
    cfg = os.path.join(_REPO_ROOT, "paper_sim.cfg")
    script = f"""
import sys
sys.modules["scipy"] = None
from mmc_hss import cli, impedance_engine
cfg = {cfg!r}
assert cli.main(["sweep", "--config", cfg, "--h", "8",
                 "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
assert cli.main(["steady", "--config", cfg, "--h", "8"]) == 0
leg = cli.parse_config(cfg)
z = impedance_engine.impedance_at(leg.params, leg.control, 35.0, order=8)
assert abs(z.impedance) > 0.0
assert not [m for m in sys.modules if m.startswith("scipy.")]
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(_REPO_ROOT, "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 497


def test_out_csv_config_key_is_the_fallback(tmp_path, capsys):
    out = tmp_path / "fallback.csv"
    cfg = _write(tmp_path, "fb.cfg",
                 f"sweep_start_hz = 30\nsweep_stop_hz = 32\nout_csv = {out}\n")
    assert cli.main(["sweep", "--config", cfg]) == 0
    assert f"wrote 3 rows to {out}" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 4

    explicit = str(tmp_path / "explicit.csv")
    assert cli.main(["sweep", "--config", cfg, "--out", explicit]) == 0
    assert explicit in capsys.readouterr().out  # --out wins over out_csv

    bare = _write(tmp_path, "bare.cfg",
                  "sweep_start_hz = 30\nsweep_stop_hz = 32\n")
    assert cli.main(["sweep", "--config", bare]) == 2
    assert "no output path" in capsys.readouterr().err


# ----------------------------------------------------------------- workflows


def test_steady_prints_harmonic_table(cfg_default, capsys):
    assert cli.main(["steady", "--config", cfg_default]) == 0
    out = capsys.readouterr().out
    assert "truncation order 4" in out
    assert "52.0764" in out   # dc circulating current
    assert "47.7573" in out   # second-harmonic circulating amplitude
    assert "245.934" in out   # fundamental output current amplitude


def test_steady_order_override_and_dump(cfg_m0, tmp_path, capsys):
    dump = str(tmp_path / "eff.cfg")
    assert cli.main(["steady", "--config", cfg_m0, "--h", "2",
                     "--dump-config", dump]) == 0
    out = capsys.readouterr().out
    assert "truncation order 2" in out
    assert "320000" in out
    assert cli.parse_config(dump).params.modulation_index == 0.0
    assert cli.main(["steady", "--config", cfg_m0, "--h", "-3"]) == 2


def test_measure_writes_csv_and_trajectory(cfg_m0, tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    traj = str(tmp_path / "traj.csv")
    code = cli.main(["measure", "--config", cfg_m0, "--freqs", "35,10",
                     "--out", out, "--dump-trajectory", traj])
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [10.0, 35.0]  # sorted
    for row in rows:
        f = float(row[0])
        w = 2 * np.pi * f
        want = 0.5 * (1.0 + 1j * w * 0.36 + 1.0 / (4j * w * 7e-6))
        got = complex(float(row[1]), float(row[2]))
        assert abs(got - want) < 1e-6 * abs(want)
    assert open(traj).readline().strip() == "t_s,i_c_a,v_cu_v,v_cl_v,i_g_a,v_g_v"


def test_dump_trajectory_with_a_probe_amplitude(tmp_path):
    # the campaign's amplitude must not make the unperturbed dump a
    # perturbation without a frequency
    cfg = _write(tmp_path, "amp.cfg",
                 "modulation_index = 0\nperturb_amplitude_v = 100\n")
    traj = str(tmp_path / "traj.csv")
    assert cli.main(["measure", "--config", cfg, "--freqs", "200",
                     "--out", str(tmp_path / "m.csv"),
                     "--dump-trajectory", traj]) == 0
    assert open(traj).readline().startswith("t_s,i_c_a,")


def test_measure_writes_a_repeated_frequency_once(cfg_m0, tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    assert cli.main(["measure", "--config", cfg_m0, "--freqs", "35,35",
                     "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 2
    assert "wrote 1 rows" in capsys.readouterr().out


def test_compare_on_shipped_reference_config(capsys):
    cfg = os.path.join(_REPO_ROOT, "paper_sim.cfg")
    code = cli.main(["compare", "--config", cfg,
                     "--freqs", "10,35,80,120,200",
                     "--tol-mag", "5", "--tol-phase", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("OK")


def test_compare_within_default_tolerances(cfg_m0, capsys):
    assert cli.main(["compare", "--config", cfg_m0, "--freqs", "35"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert out.rstrip().endswith("OK")


def test_compare_fails_on_impossible_tolerance(cfg_m0, capsys):
    code = cli.main(["compare", "--config", cfg_m0, "--freqs", "35",
                     "--tol-mag", "0", "--tol-phase", "0"])
    assert code == 4
    assert capsys.readouterr().out.rstrip().endswith("FAIL")


def test_compare_refuses_bad_tolerances_before_any_work(cfg_m0, capsys,
                                                         monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("tolerances are checked before any work")

    monkeypatch.setattr(cli.td_sim, "measure_impedance_many", work)
    monkeypatch.setattr(cli.impedance_engine, "impedance_at", work)
    for option, value, message in (
            ("--tol-mag", "nan", "--tol-mag nan: must be finite"),
            ("--tol-phase", "-1", "--tol-phase -1.0: must not be negative")):
        assert cli.main(["compare", "--config", cfg_m0, "--freqs", "35",
                         option, value]) == 2
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------- exit codes


def test_exit_code_2_on_config_problems(tmp_path, capsys, cfg_m0):
    bad = _write(tmp_path, "bad.cfg", "modulation_index = 2\n")
    assert cli.main(["steady", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    # a whole-number key that does not parse as one
    bad = _write(tmp_path, "int.cfg", "sm_per_arm = abc\n")
    assert cli.main(["steady", "--config", bad]) == 2
    assert "line 1: key 'sm_per_arm'" in capsys.readouterr().err
    assert cli.main(["steady", "--config",
                     str(tmp_path / "nothere.cfg")]) == 2
    capsys.readouterr()
    out = str(tmp_path / "x.csv")
    assert cli.main(["measure", "--config", cfg_m0, "--freqs", "abc",
                     "--out", out]) == 2
    assert cli.main(["measure", "--config", cfg_m0, "--freqs", "-5",
                     "--out", out]) == 2
    capsys.readouterr()
    assert cli.main(["measure", "--config", cfg_m0, "--freqs", ",",
                     "--out", out]) == 2
    assert "--freqs list is empty" in capsys.readouterr().err
    # incommensurate probe frequency surfaces as a config problem too
    assert cli.main(["measure", "--config", cfg_m0, "--freqs", "7.3",
                     "--out", out]) == 2
    capsys.readouterr()


def test_an_unwritable_output_path_exits_2(tmp_path, capsys, cfg_m0):
    # a missing directory is a configuration problem named on stderr, not
    # a traceback; nothing is created
    missing = tmp_path / "missing"
    out = str(missing / "x.csv")
    assert cli.main(["sweep", "--config", cfg_m0, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and out in err
    for args in (["steady", "--dump-config", out],
                 ["measure", "--freqs", "200", "--out",
                  str(tmp_path / "m.csv"), "--dump-trajectory", out]):
        assert cli.main([args[0], "--config", cfg_m0, *args[1:]]) == 2
        assert out in capsys.readouterr().err
    assert not missing.exists()


def test_output_paths_are_refused_before_any_work(tmp_path, capsys, cfg_m0,
                                                  monkeypatch):
    # every output path is checked before the sweep or the campaign runs,
    # so a bad trajectory path leaves no CSV behind and reports no rows
    def work(*args, **kwargs):
        raise AssertionError("output paths are checked before any work")

    monkeypatch.setattr(cli.impedance_engine, "sweep", work)
    monkeypatch.setattr(cli.td_sim, "measure_impedance_many", work)
    ok, bad = tmp_path / "ok.csv", str(tmp_path / "missing" / "t.csv")
    out_csv = _write(tmp_path, "out.cfg", f"out_csv = {bad}\n")
    for argv in (["sweep", "--config", cfg_m0, "--out", bad],
                 ["sweep", "--config", out_csv],
                 ["measure", "--config", cfg_m0, "--freqs", "35",
                  "--out", str(ok), "--dump-trajectory", bad]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"config error: cannot write output: {bad}\n"
        assert "wrote" not in out
    assert not ok.exists()
    assert sorted(os.listdir(tmp_path)) == ["m0.cfg", "out.cfg"]


def test_non_finite_values_are_config_errors(tmp_path, capsys, cfg_m0):
    # NaN passes every ordered comparison, so each float key and each
    # --freqs entry is checked for finiteness before its range check
    float_keys = [k for k, spec in cli._KEYS.items()
                  if isinstance(spec[0], float)]
    assert len(float_keys) == 24
    for key in float_keys:
        for bad in ("nan", "inf", "-inf"):
            path = _write(tmp_path, "bad.cfg", f"# note\n{key} = {bad}\n")
            with pytest.raises(cli.ConfigError,
                               match=rf"line 2: key '{key}': must be finite"):
                cli.parse_config(path)
    bad = _write(tmp_path, "inf.cfg", "vdc_v = inf\n")
    out = str(tmp_path / "x.csv")
    assert cli.main(["sweep", "--config", bad, "--out", out]) == 2
    assert "line 1: key 'vdc_v': must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)
    for freqs in ("nan", "35,inf"):
        assert cli.main(["compare", "--config", cfg_m0,
                         "--freqs", freqs]) == 2
        assert "--freqs entries must be positive and finite" \
            in capsys.readouterr().err


def test_order_one_with_a_second_harmonic_modulation_exits_2(tmp_path,
                                                             capsys):
    cfg = _write(tmp_path, "h2.cfg", "modulation_index_2h = 0.1\n")
    assert cli.main(["steady", "--config", cfg, "--h", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: order 1 cannot hold the "
                          "second-harmonic modulation "
                          "(modulation_index_2h = 0.1)")
    assert cli.main(["steady", "--config", cfg, "--h", "2"]) == 0


@pytest.mark.parametrize("error, code, prefix", [
    (SingularSystemError("singular"), 3, "numerical error: singular"),
    (PoleAtResonanceError("on pole"), 3, "numerical error: on pole"),
    (DegenerateResponseError("no response"), 3,
     "numerical error: no response"),
    (DivergenceError("diverged"), 3, "numerical error: diverged"),
    (cli.ConfigError("bad key"), 2, "config error: bad key"),
    (InvalidValueError("vdc", "must be positive"), 2,
     "config error: vdc must be positive"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_typed_error_maps_to_its_exit_code(cfg_m0, capsys, monkeypatch,
                                                error, code, prefix):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.mmc_model, "steady_state", fail)
    assert cli.main(["steady", "--config", cfg_m0]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_exit_code_3_on_divergence(tmp_path, capsys):
    cfg = _write(tmp_path, "diverge.cfg",
                 "control_mode = acv\nkpv = 200\nkrv = 0\n")
    out = str(tmp_path / "d.csv")
    code = cli.main(["measure", "--config", cfg, "--freqs", "35",
                     "--out", out])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_argparse_usage_error_exits_nonzero():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["sweep"])  # missing required --config


def test_dump_trajectory_reuses_the_settled_orbit(cfg_default, tmp_path,
                                                  monkeypatch):
    # the dump records its window from the campaign's settled orbit; it
    # integrates nothing else
    from mmc_hss import td_sim
    steps = []
    advance = td_sim._Runner.advance

    def count(self, y, step0, n_steps, *args, **kwargs):
        steps.append(n_steps)
        return advance(self, y, step0, n_steps, *args, **kwargs)

    monkeypatch.setattr(td_sim._Runner, "advance", count)
    args = ["measure", "--config", cfg_default, "--freqs", "200",
            "--out", str(tmp_path / "m.csv")]
    td_sim.reset_caches()
    assert cli.main(args) == 0
    plain = sum(steps)
    td_sim.reset_caches()
    del steps[:]
    assert cli.main(args + ["--dump-trajectory",
                            str(tmp_path / "traj.csv")]) == 0
    # measure_cycles = 2 fundamental cycles of 2000 steps
    assert sum(steps) - plain == 2 * 2000
