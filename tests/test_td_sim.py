"""Nonlinear time-domain reference: integration kernel, scheduling,
phasor extraction and impedance measurement by baseline subtraction."""

import dataclasses
import warnings

import numpy as np
import pytest

import _reference as ref
from mmc_hss import impedance_engine as ie, mmc_model as mm, td_sim as td
from mmc_hss.errors import DivergenceError


@pytest.fixture(scope="module")
def params():
    return mm.CircuitParams(
        vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.847, load_resistance=550.0,
    )


@pytest.fixture(scope="module")
def params_m0():
    return mm.CircuitParams(
        vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.0, load_resistance=550.0,
    )


ACV = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0, sampling_period=1e-4)
CCC = mm.ControlConfig(mode="ccc", ra=20.0, sampling_period=1e-4)


def _series(x, dt=1e-5, t0=1.0):
    n = x.size
    t = t0 + np.arange(n) * dt
    z = np.zeros(n)
    return td.TimeSeries(dt=dt, t=t, i_c=x, v_cu=z, v_cl=z, i_g=z, v_g=z,
                         n_u=z, n_l=z)


# ------------------------------------------------------------- configuration


def test_sim_config_validation():
    td.SimConfig()  # defaults construct
    for bad in (
        dict(dt=0.0), dict(settle_cycles=0), dict(measure_cycles=0),
        dict(ramp_cycles=-1), dict(post_ramp_cycles=-1),
        dict(perturb_freq=-1.0), dict(perturb_amplitude=-1.0),
        dict(periodicity_tol=0.0), dict(reference_settle_cycles=0),
    ):
        with pytest.raises(ValueError):
            td.SimConfig(**bad)


def test_step_size_must_fit_grid(params):
    # dt has to divide the cycle, resolve it with >= 200 steps, and divide
    # the control sampling period
    with pytest.raises(ValueError):
        td.simulate(params, None, td.SimConfig(dt=3e-5))
    with pytest.raises(ValueError):
        td.simulate(params, None, td.SimConfig(dt=2e-4))
    with pytest.raises(ValueError):
        td.simulate(
            params, mm.ControlConfig(mode="ccc", ra=20.0,
                                     sampling_period=7e-5),
            td.SimConfig())
    with pytest.raises(ValueError, match="dt must divide the control "
                                         "sampling period"):
        td.simulate(
            params, mm.ControlConfig(mode="ccc", ra=20.0,
                                     sampling_period=1.5e-5),
            td.SimConfig())


def test_perturbation_validation(params_m0):
    with pytest.raises(ValueError):
        td.simulate(params_m0, None, td.SimConfig(perturb_amplitude=10.0))
    with pytest.raises(ValueError):
        td.simulate(params_m0, None, td.SimConfig(perturb_freq=-5.0,
                                                  perturb_amplitude=10.0))
    with pytest.raises(ValueError):
        td.measure_impedance(params_m0, None, td.SimConfig())


def test_incommensurate_probe_rejected(params, monkeypatch):
    # 7.3 Hz against 50 Hz needs a 10 s window; refuse rather than grind,
    # and before settling, even behind a good frequency
    def no_step(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(td._Runner, "advance", no_step)
    with pytest.raises(ValueError):
        td.measure_impedance(params, None, td.SimConfig(), 7.3)
    with pytest.raises(ValueError):
        td.measure_impedance_many(params, None, td.SimConfig(), [10.0, 7.3])


# ------------------------------------------------------------------ kernels


# the kernel's cases: control modes, and no probe, a series probe at 35 Hz
# or an insertion-index probe at 4 Hz as (wp, vamp, pamp)
MODES = ["open", "acv", "ccc", "acv+ccc"]
PROBES = [(0.0, 0.0, 0.0), (2 * np.pi * 35.0, 3200.0, 0.0),
          (2 * np.pi * 4.0, 0.0, 0.002)]


def _kernel_case(params, mode):
    cfg = None if mode == "open" else mm.ControlConfig(
        mode=mode, kpv=1.0, krv=20.0, ra=20.0, sampling_period=1e-4)
    k = np.arange(200)
    vref = 1.3e5 * np.cos(2 * np.pi * k / 200 + 0.1)
    icref = 30.0 + 5.0 * np.sin(2 * np.pi * k / 100)
    runner = td._Runner(params, cfg, 1e-5, vref, icref)
    runner.ctrl[4] = runner.ctrl[5] = 1e-3 if mode != "open" else 0.0
    return runner, np.array([10.0, 1.01 * params.vdc, 0.99 * params.vdc,
                             5.0])


def _numpy_scalar_leg(params):
    return mm.CircuitParams(**{
        f.name: np.float64(getattr(params, f.name))
        for f in dataclasses.fields(params) if f.name != "sm_per_arm"},
        sm_per_arm=np.int64(params.sm_per_arm))


def test_runner_hands_the_kernel_python_floats(params):
    # numpy-scalar arithmetic in the pure-Python kernel is 3-4x slower
    cfg = mm.ControlConfig(mode="acv+ccc", kpv=np.float64(1.0),
                           krv=np.float64(20.0), ra=np.float64(20.0),
                           sampling_period=1e-4)
    runner = td._Runner(_numpy_scalar_leg(params), cfg, 1e-5, td._ZERO_REF,
                        td._ZERO_REF)
    scalars = [a for a in runner.args if not isinstance(a, np.ndarray)]
    assert len(scalars) == len(runner.args) - 2
    assert not [a for a in scalars if isinstance(a, np.generic)]


def test_numpy_scalar_leg_simulates_bit_identically(params):
    runs = []
    for leg in (params, _numpy_scalar_leg(params)):
        td.reset_caches()  # equal legs would share a cached settled orbit
        runs.append(td.simulate(leg, ACV, td.SimConfig(
            perturb_freq=35.0, perturb_amplitude=3200.0)))
    for f in dataclasses.fields(td.TimeSeries):
        a, b = (getattr(r, f.name) for r in runs)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("probe", PROBES)
def test_kernel_split_is_bit_identical(params, mode, probe):
    # the kernel carries its state in floats between entry and exit, so
    # two calls split at step 2007, off the 10-step control grid, must end
    # exactly where one call over the same two cycles ends
    n, cut = 4000, 2007
    whole, y_whole = _kernel_case(params, mode)
    split, y_split = _kernel_case(params, mode)
    rec_whole, rec_split = np.empty((n, 8)), np.empty((n, 8))
    whole.advance(y_whole, 3000, n, *probe, rec=rec_whole)
    split.advance(y_split, 3000, cut, *probe, rec=rec_split[:cut])
    split.advance(y_split, 3000 + cut, n - cut, *probe, rec=rec_split[cut:])
    assert y_split.tobytes() == y_whole.tobytes()
    assert split.ctrl.tobytes() == whole.ctrl.tobytes()
    assert rec_split.tobytes() == rec_whole.tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("probe", PROBES)
@pytest.mark.parametrize("m2", [0.0, 0.05])
def test_kernel_matches_plain_rk4(params, mode, probe, m2):
    # the kernel skips drive terms that are exactly zero and records
    # through a flat view; a plain RK4 that adds every term and builds its
    # record row by row must give the same bits, over 400 steps that start
    # at step 3003, off the 10-step control grid
    leg = dataclasses.replace(params, modulation_index_2h=m2,
                              modulation_phase_2h=0.3)
    runner, y = _kernel_case(leg, mode)
    want_y, want_ctrl, want_rec = ref.rk4_steps(runner, y, 3003, 400,
                                                *probe)
    rec = np.empty((400, 8))
    runner.advance(y, 3003, 400, *probe, rec=rec)
    assert y.tobytes() == want_y.tobytes()
    assert runner.ctrl.tobytes() == want_ctrl.tobytes()
    assert rec.tobytes() == want_rec.tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("probe", PROBES)
def test_recording_leaves_the_run_unchanged(params, mode, probe):
    ends = []
    for rec in (np.empty((400, 8)), None):
        runner, y = _kernel_case(params, mode)
        runner.advance(y, 3003, 400, *probe, rec=rec)
        ends.append((y.tobytes(), runner.ctrl.tobytes()))
    assert ends[0] == ends[1]
    # a strided record cannot be viewed flat: refused, not filled as a copy
    runner, y = _kernel_case(params, mode)
    with pytest.raises(TypeError):
        runner.advance(y, 3003, 400, *probe,
                       rec=np.empty((400, 16))[:, ::2])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("probe", PROBES)
def test_jit_and_python_kernels_agree(params, mode, probe, monkeypatch):
    # the compiled span stepper must reproduce the pure-Python reference
    if td._ADVANCE is td._advance_py:
        pytest.skip("numba not active, nothing to compare")
    runs = []
    for kernel, buffer in ((td._ADVANCE, td._BUFFER),
                           (td._advance_py, memoryview)):
        monkeypatch.setattr(td, "_ADVANCE", kernel)
        monkeypatch.setattr(td, "_BUFFER", buffer)
        runner, y = _kernel_case(params, mode)
        rec = np.empty((runner.spc, 8))
        runner.advance(y, 3003, runner.spc, *probe, rec=rec)
        runs.append((y, rec))
    (y_jit, rec_jit), (y_py, rec_py) = runs
    np.testing.assert_allclose(y_jit, y_py, rtol=1e-13)
    np.testing.assert_allclose(rec_jit, rec_py, rtol=1e-13, atol=1e-9)


def test_integration_error_scales_as_fourth_order(params):
    # classical fixed-step scheme: halving dt cuts the accumulated state
    # error by about 2^4; compare everything at one shared absolute time
    spcs = (500, 1000, 2000, 8000)
    states = {}
    scales = None
    for spc in spcs:
        sim = td.SimConfig(dt=params.period / spc, settle_cycles=12,
                           measure_cycles=1, periodicity_tol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            s = td.simulate(params, None, sim)
        mid = spc // 2
        states[spc] = np.array(
            [s.i_c[mid], s.v_cu[mid], s.v_cl[mid], s.i_g[mid]])
        assert s.t[mid] == pytest.approx(12.5 * params.period)
        if spc == 8000:
            scales = np.array([
                np.abs(s.i_c).max(), np.abs(s.v_cu).max(),
                np.abs(s.v_cl).max(), np.abs(s.i_g).max()])
    # normalise per state before taking the worst
    err = {spc: np.max(np.abs(states[spc] - states[8000]) / scales)
           for spc in spcs[:3]}
    r1 = err[500] / err[1000]
    r2 = err[1000] / err[2000]
    assert 13.0 < r1 < 19.0, (r1, err)
    assert 13.0 < r2 < 19.0, (r2, err)


def test_divergence_detected(params):
    # an absurd proportional gain blows through the sampling delay
    cfg = mm.ControlConfig(mode="acv", kpv=200.0, sampling_period=1e-4)
    with pytest.raises(DivergenceError) as err:
        td.simulate(params, cfg, td.SimConfig())
    assert err.value.time > 0.0


def test_divergence_raises_without_stray_warnings(params):
    # the kernel steps in floats, so a run that blows up reaches
    # DivergenceError without numpy overflow warnings on the way
    cfg = mm.ControlConfig(mode="acv", kpv=200.0, sampling_period=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError):
            td.simulate(params, cfg, td.SimConfig())


def test_settling_warns_when_budget_too_small(params):
    with pytest.warns(RuntimeWarning):
        td.simulate(params, None,
                    td.SimConfig(settle_cycles=3, periodicity_tol=1e-12))


def test_settling_warning_names_the_callers_line(params):
    # the warning points at the code that called the public function, not
    # at a line inside td_sim, whatever the depth of the call
    sim = td.SimConfig(settle_cycles=2, reference_settle_cycles=2,
                       periodicity_tol=1e-12, ramp_cycles=0,
                       post_ramp_cycles=0, measure_cycles=1)
    calls = [
        lambda: td.simulate(params, None, sim),
        lambda: td.measure_impedance(params, None, sim, 50.0),
        lambda: td.measure_impedance_many(params, None, sim, [50.0]),
        lambda: td.measure_circulating_impedance(params, None, sim, 50.0),
        # closed loop: the cached open-loop reference cycle settles too
        lambda: td.measure_impedance_many(params, ACV, sim, [50.0]),
    ]
    for call in calls:
        td.reset_caches()
        with pytest.warns(RuntimeWarning, match="settling budget") as record:
            call()
        assert [w.filename for w in record] == [__file__] * len(record)


# --------------------------------------------------------------- trajectories


def test_m0_is_an_exact_fixed_point(params_m0):
    # capacitors at the bus voltage, no currents: the integrator must hold
    # this equilibrium bit for bit, and settling must notice immediately
    s = td.simulate(params_m0, None, td.SimConfig())
    assert s.settle_cycles_used == 2
    assert s.periodicity_residual == 0.0
    assert np.all(s.i_c == 0.0)
    assert np.all(s.i_g == 0.0)
    assert np.all(s.v_cu == 320e3)
    np.testing.assert_array_equal(s.n_u, 0.5)
    np.testing.assert_array_equal(s.n_u + s.n_l, 1.0)


def test_simulation_is_deterministic(params):
    sim = td.SimConfig(perturb_freq=35.0, perturb_amplitude=3200.0)
    a = td.simulate(params, None, sim)
    b = td.simulate(params, None, sim)
    np.testing.assert_array_equal(a.i_g, b.i_g)
    np.testing.assert_array_equal(a.v_g, b.v_g)
    np.testing.assert_array_equal(a.t, b.t)


def test_steady_harmonics_match_harmonic_solution(params):
    # the settled orbit carries the analytic harmonic content: dc and
    # second harmonic in the circulating current, fundamental in the
    # output current and capacitor voltages
    _assert_steady_harmonics_match(params)


def test_steady_harmonics_match_with_second_harmonic_injection(params):
    # the injected second harmonic moves i_c's 100 Hz phasor from about
    # -48 - 1j A to -29 - 54j A. Orbit and harmonic solution agree to about
    # 1e-10 here; sampling that term at t + dt/2 instead of t + dt in the
    # last RK4 stage alone gives 5e-4 on i_c's 100 Hz phasor
    _assert_steady_harmonics_match(dataclasses.replace(
        params, modulation_index_2h=0.05, modulation_phase_2h=0.3),
        rel_dc=1e-6, rel=1e-6)


def _assert_steady_harmonics_match(params, rel_dc=1e-4, rel=1e-3):
    op = mm.steady_state(params, 6)
    s = td.simulate(params, None, td.SimConfig())
    assert np.mean(s.i_c) == pytest.approx(op.coeff("i_c", 0).real,
                                           rel=rel_dc)
    got_ic2 = td.extract_phasor(s, "i_c", 100.0)
    want_ic2 = 2.0 * op.coeff("i_c", 2)
    assert abs(got_ic2 - want_ic2) < rel * abs(want_ic2)
    got_ig1 = td.extract_phasor(s, "i_g", 50.0)
    want_ig1 = 2.0 * op.coeff("i_g", 1)
    assert abs(got_ig1 - want_ig1) < rel * abs(want_ig1)
    got_vcu1 = td.extract_phasor(s, "v_cu", 50.0)
    want_vcu1 = 2.0 * op.coeff("v_cu", 1)
    assert abs(got_vcu1 - want_vcu1) < rel * abs(want_vcu1)


def test_energy_and_charge_balance_on_settled_orbit(params):
    s = td.simulate(params, None, td.SimConfig())
    i_u = s.i_c + 0.5 * s.i_g
    i_l = s.i_c - 0.5 * s.i_g
    q_u = np.mean(s.n_u * i_u)
    assert abs(q_u) < 1e-4 * np.abs(i_u).max()
    p_dc = params.vdc * np.mean(s.i_c)
    p_loss = params.arm_resistance * np.mean(i_u ** 2 + i_l ** 2)
    p_load = np.mean(s.v_g * s.i_g)
    assert p_dc == pytest.approx(p_loss + p_load, rel=1e-4)


def test_trajectory_csv_round_trip(params_m0, tmp_path):
    s = td.simulate(params_m0, None, td.SimConfig(measure_cycles=1))
    path = tmp_path / "traj.csv"
    td.write_trajectory_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,i_c_a,v_cu_v,v_cl_v,i_g_a,v_g_v"
    assert len(lines) == 1 + s.t.size
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(s.t[0], rel=1e-8)
    assert first[2] == pytest.approx(320e3)


def test_timeseries_accessors(params_m0):
    s = td.simulate(params_m0, None, td.SimConfig(measure_cycles=1))
    np.testing.assert_array_equal(s.column("v_cu"), s.v_cu)
    with pytest.raises(KeyError):
        s.column("phase_a")
    with pytest.raises(ValueError):
        s.i_c[0] = 1.0  # read-only view
    with pytest.raises(ValueError, match="share one length"):
        dataclasses.replace(s, i_c=s.i_c[:-1])


# ------------------------------------------------------------------- phasors


def test_phasor_of_pure_cosine():
    t0, dt, n = 1.0, 1e-5, 4000
    t = t0 + np.arange(n) * dt
    x = 3.3 * np.cos(2 * np.pi * 50.0 * t + 0.7)
    s = _series(x, dt, t0)
    got = td.extract_phasor(s, "i_c", 50.0)
    assert got == pytest.approx(3.3 * np.exp(0.7j), abs=1e-9)
    # constants project to zero at any probe frequency
    flat = _series(np.full(n, 2.5), dt, t0)
    assert abs(td.extract_phasor(flat, "i_c", 50.0)) < 1e-12


def test_phasor_separates_two_tones():
    dt, n = 1e-5, 20000  # 0.2 s holds whole periods of both tones
    t = np.arange(n) * dt
    x = (1.8 * np.cos(2 * np.pi * 35.0 * t - 0.3)
         + 0.6 * np.cos(2 * np.pi * 40.0 * t + 1.1))
    s = _series(x, dt, 0.0)
    assert td.extract_phasor(s, "i_c", 35.0) == pytest.approx(
        1.8 * np.exp(-0.3j), abs=1e-9)
    assert td.extract_phasor(s, "i_c", 40.0) == pytest.approx(
        0.6 * np.exp(1.1j), abs=1e-9)


def test_phasor_validation():
    s = _series(np.ones(10000))  # 0.1 s window
    with pytest.raises(ValueError):
        td.extract_phasor(s, "i_c", 35.0)  # 3.5 periods
    with pytest.raises(ValueError):
        td.extract_phasor(s, "i_c", 0.0)
    with pytest.raises(ValueError):
        td.extract_phasor(_series(np.empty(0)), "i_c", 50.0)


# ------------------------------------------------------------- measurements


def test_measured_impedance_m0_matches_closed_form(params_m0):
    z = td.measure_impedance(params_m0, None, td.SimConfig(), 35.0)
    w = 2 * np.pi * 35.0
    want = 0.5 * (1.0 + 1j * w * 0.36 + 1.0 / (4j * w * 7e-6))
    assert z.mode == "open"
    assert z.order == 0
    assert abs(z.impedance - want) < 1e-6 * abs(want)


def test_measured_impedance_matches_harmonic_solution(params):
    z_td = td.measure_impedance(params, None, td.SimConfig(), 35.0)
    z_an = ie.impedance_at(params, mm.ControlConfig(mode="open"), 35.0)
    assert abs(z_td.impedance - z_an.impedance) < 1e-3 * abs(z_an.impedance)
    assert z_td.phase_deg == pytest.approx(z_an.phase_deg, abs=0.05)


def test_measured_impedance_acv_matches_harmonic_solution(params):
    z_td = td.measure_impedance(params, ACV, td.SimConfig(), 35.0)
    z_an = ie.impedance_at(params, ACV, 35.0)
    assert z_td.mode == "acv"
    assert abs(z_td.impedance - z_an.impedance) < 5e-3 * abs(z_an.impedance)
    assert z_td.phase_deg == pytest.approx(z_an.phase_deg, abs=0.5)


def test_measurement_is_amplitude_invariant(params):
    # the extracted small-signal impedance must not depend on probe size
    big = td.measure_impedance(
        params, None, td.SimConfig(perturb_amplitude=3200.0), 35.0)
    small = td.measure_impedance(
        params, None, td.SimConfig(perturb_amplitude=1600.0), 35.0)
    assert abs(big.impedance - small.impedance) \
        < 5e-3 * abs(big.impedance)


def test_measure_many_shares_one_baseline(params):
    sim = td.SimConfig()
    many = td.measure_impedance_many(params, None, sim, [10.0, 35.0])
    assert set(many) == {10.0, 35.0}
    for f, point in many.items():
        z_an = ie.impedance_at(params, mm.ControlConfig(mode="open"), f)
        assert abs(point.impedance - z_an.impedance) \
            < 5e-3 * abs(z_an.impedance)


def test_forked_runs_do_not_leak_controller_state(params):
    # every run of a campaign forks from one settled state; a probe run
    # that inherited the controller memory of the run before it would make
    # the result depend on the order of the frequencies, and a window sized
    # by the campaign on which other frequencies it holds
    sim = td.SimConfig(settle_cycles=20, reference_settle_cycles=20,
                       ramp_cycles=2, post_ramp_cycles=3, measure_cycles=1)
    cfg = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                           sampling_period=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # short settling
        forward = td.measure_impedance_many(params, cfg, sim, [35.0, 80.0])
        backward = td.measure_impedance_many(params, cfg, sim, [80.0, 35.0])
        alone = {f: td.measure_impedance_many(params, cfg, sim, [f])[f]
                 for f in forward}
    assert forward == backward == alone


def test_measured_circulating_impedance(params_m0, params):
    # m = 0: one arm in closed form
    z = td.measure_circulating_impedance(params_m0, None, td.SimConfig(),
                                         80.0)
    w = 2 * np.pi * 80.0
    want = 1.0 + 1j * w * 0.36 + 1.0 / (4j * w * 7e-6)
    assert abs(z.impedance - want) < 1e-5 * abs(want)
    # full operating point, circulating loop closed
    z_td = td.measure_circulating_impedance(params, CCC, td.SimConfig(),
                                            120.0)
    z_an = ie.circulating_impedance_at(params, CCC, 120.0)
    assert abs(z_td.impedance - z_an.impedance) < 1e-3 * abs(z_an.impedance)


# ------------------------------------------------------------------ shooting


def test_acv_shooting_leaves_the_circulating_memory_alone(params, monkeypatch):
    # acv alone never updates dn_pend: it is a free constant of the
    # one-cycle map (Floquet multiplier exactly 1), and moving it would
    # select another orbit, so neither settling nor a probe run may touch it
    entry_ctrl = []
    advance = td._Runner.advance

    def spy(self, *args, **kwargs):
        entry_ctrl.append(self.ctrl.copy())
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(td._Runner, "advance", spy)
    td.reset_caches()
    td.measure_impedance(params, ACV, td.SimConfig(), 200.0)
    # the open-loop reference runs with all-zero memory; acv seeds xa
    acv_calls = [ctrl for ctrl in entry_ctrl if ctrl[0] != 0.0]
    assert len(acv_calls) > 10
    for ctrl in acv_calls:
        assert ctrl[4] == 0.0 and ctrl[5] == 0.0


@pytest.fixture
def kernel_steps(monkeypatch):
    """Steps of every kernel call, in call order."""
    steps = []
    advance = td._Runner.advance

    def count(self, y, step0, n_steps, *args, **kwargs):
        steps.append(n_steps)
        return advance(self, y, step0, n_steps, *args, **kwargs)

    monkeypatch.setattr(td._Runner, "advance", count)
    return steps


def test_a_repeated_frequency_is_measured_once(params_m0, kernel_steps):
    runs = []
    for freqs in ([35.0], [35.0, 35.0]):
        td.reset_caches()
        del kernel_steps[:]
        points = td.measure_impedance_many(params_m0, None, td.SimConfig(),
                                           freqs)
        runs.append((points, sum(kernel_steps)))
    (once, once_steps), (twice, twice_steps) = runs
    assert twice_steps == once_steps
    assert list(twice) == [35.0]
    assert twice[35.0] == once[35.0]


def test_a_campaign_costs_the_sum_of_its_runs(params_m0, kernel_steps):
    # each run records periods of its own probe: adding 35 Hz (10 cycles
    # per period) to a 10 Hz campaign (5) costs one 35 Hz run, not longer
    # windows for both
    def cost(*campaigns):
        td.reset_caches()
        del kernel_steps[:]
        for freqs in campaigns:  # later campaigns reuse the settled orbit
            td.measure_impedance_many(params_m0, None, td.SimConfig(), freqs)
        return sum(kernel_steps)

    assert cost([10.0, 35.0]) == cost([10.0], [35.0])
    # an empty campaign returns no points and integrates nothing
    assert cost([]) == 0
    assert td.measure_impedance_many(params_m0, None, td.SimConfig(),
                                     []) == {}


@pytest.mark.parametrize("mode", ["open", "acv", "acv+ccc"])
def test_settled_orbit_is_periodic_to_roundoff(params, mode):
    cfg = mm.ControlConfig(mode=mode, kpv=1.0, krv=20.0, ra=20.0,
                           sampling_period=1e-4)
    s = td.simulate(params, cfg, td.SimConfig())
    assert s.periodicity_residual <= 1e-9
    # brute force needed 50 (open) to 175 (acv) cycles for 1e-6
    assert s.settle_cycles_used <= 30
    # the two recorded cycles repeat each other
    half = s.t.size // 2
    for name in ("i_c", "v_cu", "v_cl", "i_g"):
        x = s.column(name)
        assert np.abs(x[half:] - x[:half]).max() \
            <= 1e-9 * max(np.abs(x).max(), 1.0)


@pytest.mark.parametrize("cfg", [
    # a Floquet multiplier just outside the unit circle: the states grow
    # too slowly to leave physical range within the budget, and Newton
    # would converge onto the unstable orbit all the same
    mm.ControlConfig(mode="acv", kpv=3.0, krv=20.0, sampling_period=1e-4),
    # ra < -R: the open-loop orbit is an exact, unstable fixed point of the
    # loop, so two settling cycles already agree
    mm.ControlConfig(mode="ccc", ra=-30.0, sampling_period=1e-4),
], ids=["acv", "ccc"])
def test_unstable_orbit_raises_divergence(params, cfg):
    with pytest.raises(DivergenceError, match="unstable") as err:
        td.simulate(params, cfg, td.SimConfig())
    assert err.value.time > 0.0


def test_two_cycle_forcing_prediction_matches_integration(params):
    # in open loop the series probe enters additively, so two integrated
    # cycles predict where the probe carries the settled state over a whole
    # common period (10 cycles at 35 Hz); integration is the reference
    orbit = td._settle_campaign(params, None, td.SimConfig())
    probe = (2 * np.pi * 35.0, 3200.0, 0.0)
    got = td._forced_end(orbit, probe, 10)
    want = td._integrate(orbit.runner, orbit.z, orbit.step, 10, probe)
    scale = orbit.scale[:4]
    np.testing.assert_allclose(got[:4] / scale, want[:4] / scale,
                               rtol=0.0, atol=1e-8)


def test_probe_run_warns_when_it_misses_its_forced_orbit(params, monkeypatch):
    # a closed loop needs a few chord steps after the first one; with none
    # allowed, the run must say that its window is off the forced orbit
    monkeypatch.setattr(td, "_PROBE_STEPS", 0)
    with pytest.warns(RuntimeWarning, match="forced orbit") as record:
        td.measure_impedance(params, ACV, td.SimConfig(), 200.0)
    assert [w.filename for w in record] == [__file__]
