"""Impedance extraction: closed forms without modulation, loop closure
against dense assembly, sweep bookkeeping and resonance search."""

import dataclasses
import gc
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import _reference as ref
from mmc_hss import (hss_core, impedance_engine as ie, mmc_model as mm,
                     td_sim)
from mmc_hss.errors import (DegenerateResponseError, PoleAtResonanceError,
                            SingularSystemError)


@pytest.fixture(scope="module")
def op(params):
    return mm.steady_state(params, 4)


OPEN = mm.ControlConfig(mode="open")
ACV = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0, sampling_period=1e-4)
CCC = mm.ControlConfig(mode="ccc", ra=20.0, sampling_period=1e-4)


def _series_arm(params, f):
    # one arm: R + jwL + stack capacitance, the m = 0 circulating path
    w = 2.0 * np.pi * f
    return (params.arm_resistance + 1j * w * params.arm_inductance
            + 1.0 / (4j * w * params.arm_capacitance))


# ----------------------------------------------------------- m = 0 closed form


def test_m0_matches_closed_form(params_m0):
    # without modulation the harmonics decouple and the ac-side impedance
    # is exactly half an arm, at any probe frequency
    for f in (7.0, 35.0, 123.7, 250.0, 499.0):
        z = ie.impedance_at(params_m0, OPEN, f, order=4).impedance
        want = 0.5 * _series_arm(params_m0, f)
        assert abs(z - want) <= 1e-10 * abs(want)
        assert z.real == pytest.approx(0.5, rel=1e-9)


def test_m0_circulating_matches_closed_form(params_m0):
    for f in (15.0, 80.3, 300.0):
        z = ie.circulating_impedance_at(params_m0, OPEN, f, order=4).impedance
        want = _series_arm(params_m0, f)
        assert abs(z - want) <= 1e-10 * abs(want)


def test_m0_notch_at_arm_resonance(params_m0):
    # series resonance of L against the four-fold stack capacitance
    f_notch = 1.0 / (2.0 * np.pi * np.sqrt(
        4.0 * params_m0.arm_inductance * params_m0.arm_capacitance))
    res = ie.sweep(params_m0, OPEN, freqs=np.arange(45.0, 56.01, 0.25))
    notches = [r for r in ie.find_resonances(res) if r.kind == "notch"]
    assert len(notches) == 1
    assert notches[0].kind == "notch"
    assert notches[0].freq_hz == pytest.approx(f_notch, abs=0.05)
    # |Z| bottoms out at R/2; parabolic refinement lands close to it
    assert 0.49 < notches[0].magnitude < 0.56


def test_m0_ccc_adds_emulated_resistance_in_series(params_m0):
    # without modulation the circulating loop is exactly a series element
    # ra * exp(-1.5 Ts s) in the circulating path
    op0 = mm.steady_state(params_m0, 4)
    for f in (10.0, 123.0):
        zo = ie.circulating_impedance_at(params_m0, OPEN, f, op=op0).impedance
        zc = ie.circulating_impedance_at(params_m0, CCC, f, op=op0).impedance
        w = 2.0 * np.pi * f
        want = 20.0 * np.exp(-1.5j * 1e-4 * w)
        assert abs((zc - zo) - want) <= 1e-12 * abs(want)


# -------------------------------------------------------------- loop closure


def test_response_scales_linearly_with_probe(params, op):
    wp = 2.0 * np.pi * 37.0
    x1 = ref.closed_loop_response(params, ACV, op, 4, 1j * wp, v_p=1.0)
    x2 = ref.closed_loop_response(params, ACV, op, 4, 1j * wp, v_p=17.3)
    floor = 1e-13 * np.abs(x2).max()
    np.testing.assert_allclose(x2, 17.3 * x1, rtol=1e-12, atol=floor)


def test_channel_solve_matches_dense_assembly_off_pole(params, op):
    wp = 2.0 * np.pi * 37.0

    m_p, b_p = ref.perturbed_system(params, ACV, op, 4, 1j * wp)
    x = np.linalg.solve(m_p, b_p)
    i_gp = x[4 * 4 + 3]
    z_dense = -(1.0 + 550.0 * i_gp) / i_gp
    z_chan = ie.impedance_at(params, ACV, 37.0, order=4, op=op).impedance
    assert abs(z_chan - z_dense) <= 1e-12 * abs(z_dense)

    m2, b2 = ref.perturbed_system(params, CCC, op, 4, 1j * wp)
    x2 = np.linalg.solve(m2, b2)
    i_gp2 = x2[4 * 4 + 3]
    z_dense2 = -(1.0 + 550.0 * i_gp2) / i_gp2
    z_chan2 = ie.impedance_at(params, CCC, 37.0, order=4, op=op).impedance
    assert abs(z_chan2 - z_dense2) <= 1e-12 * abs(z_dense2)


def test_channel_solve_survives_resonator_pole(params, op):
    # 100 and 200 Hz put a sideband exactly on the undamped 50 Hz pole:
    # the assembled operator does not exist, the channel solve does
    with pytest.raises(PoleAtResonanceError):
        ref.perturbed_system(params, ACV, op, 4, 2j * np.pi * 200.0)
    z200 = ie.impedance_at(params, ACV, 200.0, order=4, op=op)
    assert z200.magnitude == pytest.approx(102.9163, rel=1e-4)
    assert z200.phase_deg == pytest.approx(95.746, abs=1e-2)
    z100 = ie.impedance_at(params, ACV, 100.0, order=4, op=op)
    assert z100.magnitude == pytest.approx(2181.31, rel=1e-3)
    assert z100.phase_deg == pytest.approx(38.452, abs=0.05)


def test_acv_impedance_vanishes_at_fundamental(params, op):
    # infinite resonant gain at f1 forces the terminal-voltage deviation to
    # zero: the converter looks like a short to a 50 Hz probe (this sharp
    # feature is why sweeps guard-band the fundamental)
    z = ie.impedance_at(params, ACV, 50.0, order=4, op=op)
    assert z.magnitude < 1e-9


def test_proportional_voltage_loop_stays_closed_at_the_fundamental(
        params, op):
    # without a resonator the voltage-loop gain is finite at f1, so a
    # source harmonic exactly there (a 50 Hz series probe at q = 0, a
    # 100 Hz circulating probe at q = -1) keeps its channel closed and the
    # impedance is smooth through it
    prop = mm.ControlConfig(mode="acv", kpv=1.0, sampling_period=1e-4)
    for at, f in ((ie.impedance_at, 50.0),
                  (ie.circulating_impedance_at, 100.0)):
        lo, z, hi = (at(params, prop, f + d, order=4, op=op).impedance
                     for d in (-1e-3, 0.0, 1e-3))
        assert abs(z - 0.5 * (lo + hi)) < 1e-4 * abs(z)


def test_zero_gain_loops_equal_open_loop(params):
    z_open = ie.impedance_at(params, OPEN, 37.0).impedance
    z_acv0 = ie.impedance_at(
        params, mm.ControlConfig(mode="acv", kpv=0.0, krv=0.0), 37.0).impedance
    z_ccc0 = ie.impedance_at(
        params, mm.ControlConfig(mode="ccc", ra=0.0), 37.0).impedance
    assert z_acv0 == pytest.approx(z_open, rel=1e-13)
    assert z_ccc0 == pytest.approx(z_open, rel=1e-13)


def test_a_config_of_none_is_open_loop(params):
    # as in the time-domain oracle, None stands for ControlConfig(): the
    # same bits and the mode "open" for a sweep and both spot probes
    grid = np.array([20.0, 35.0, 120.0])
    res = ie.sweep(params, None, grid, order=4)
    assert res == ie.sweep(params, mm.ControlConfig(), grid, order=4)
    assert {p.mode for p in res.points} == {"open"}
    for probe in (ie.impedance_at, ie.circulating_impedance_at):
        point = probe(params, None, 35.0)
        assert point == probe(params, mm.ControlConfig(), 35.0)
        assert point.mode == "open"


def test_truncation_refinement_converges(params):
    # doubling the kept sidebands shrinks the update between orders
    for f in (21.0, 80.0):
        z = {h: ie.impedance_at(params, OPEN, f, order=h).impedance
             for h in (2, 4, 6, 8)}
        d24 = abs(z[4] - z[2])
        d46 = abs(z[6] - z[4])
        d68 = abs(z[8] - z[6])
        assert d24 > d46 > d68


def test_impedance_at_validation(params):
    with pytest.raises(ValueError):
        ie.impedance_at(params, OPEN, 0.0)
    with pytest.raises(ValueError):
        ie.impedance_at(params, OPEN, -10.0)
    with pytest.raises(ValueError):
        ie.impedance_at(params, OPEN, 35.0, order=0)
    with pytest.raises(ValueError):
        ie.impedance_at(params, OPEN, 35.0, order=17)
    with pytest.raises(ValueError):
        ie.circulating_impedance_at(params, OPEN, 0.0)


def test_operating_point_must_match(params, op):
    # an operating point of other params, or of lower order than asked
    # for, would silently truncate the controller injections
    other = mm.steady_state(
        mm.CircuitParams(**{**vars(params), "load_resistance": 500.0}), 4)
    for point in (ie.impedance_at, ie.circulating_impedance_at):
        with pytest.raises(ValueError):
            point(params, ACV, 37.0, order=6, op=op)
        with pytest.raises(ValueError):
            point(params, ACV, 37.0, op=other)
        # a higher-order operating point is fine
        assert point(params, ACV, 37.0, order=3, op=op).order == 3


def test_degenerate_response_detected(params, monkeypatch):
    # a response at roundoff is refused, not divided by: both analytic
    # probes, and the oracle's terminal and circulating campaigns
    def no_response(self, shifts, b):
        return np.zeros((np.size(shifts), len(self.eigvals), b.shape[-1]),
                        dtype=complex)

    def no_phasors(params, config, sim, freqs, v_amp, probe_amp, signals):
        for f_p in freqs:
            yield f_p, [0j] * len(signals)

    monkeypatch.setattr(hss_core.ShiftedSolver, "solve", no_response)
    monkeypatch.setattr(td_sim, "_responses", no_phasors)
    for point, what in ((ie.impedance_at, "output-current"),
                        (ie.circulating_impedance_at, "circulating-current")):
        with pytest.raises(DegenerateResponseError,
                           match=f"no {what} response at 35.0 Hz"):
            point(params, OPEN, 35.0, order=4)
    sim = td_sim.SimConfig()
    for measure, what in ((td_sim.measure_impedance, "current"),
                          (td_sim.measure_circulating_impedance,
                           "circulating")):
        with pytest.raises(DegenerateResponseError,
                           match=f"no measurable {what} response at 35 Hz"):
            measure(params, OPEN, sim, 35.0)


def test_point_accessors(params_m0):
    z = ie.impedance_at(params_m0, OPEN, 35.0)
    assert z.mode == "open"
    assert z.order == 4
    assert z.freq_hz == 35.0
    assert z.magnitude == pytest.approx(abs(z.impedance))
    assert z.magnitude_db == pytest.approx(20 * np.log10(abs(z.impedance)))
    # capacitive below the arm resonance
    assert -90.5 < z.phase_deg < -85.0


# -------------------------------------------------------------------- sweeps


def test_sweep_default_grid_open(params):
    res = ie.sweep(params, OPEN)
    assert len(res.points) == 496
    assert res.excluded == ()
    assert res.failures == ()
    f = res.frequencies
    assert f[0] == 5.0 and f[-1] == 500.0
    assert np.all(np.diff(f) > 0)
    assert np.all(np.isfinite(res.impedances))


def test_a_shuffled_grid_sweeps_as_the_sorted_grid(params):
    # points come back in frequency order whatever the order of the grid,
    # bit for bit those of the sorted grid, so find_resonances sees the
    # same curve and reports no extrema of the input order
    grid = np.arange(5.0, 500.5, 1.0)
    shuffled = np.random.default_rng(31).permutation(grid)
    want = ie.sweep(params, ACV, grid, order=8)
    got = ie.sweep(params, ACV, shuffled, order=8)
    assert got == want
    assert got.impedances.tobytes() == want.impedances.tobytes()
    assert ie.find_resonances(got) == ie.find_resonances(want)


@pytest.mark.parametrize("order", [4, 8, 16])
def test_a_point_does_not_depend_on_the_grid_or_call_that_solves_it(params,
                                                                     order):
    # one value per (mode, order, f): a spot call and a sweep of a sparse
    # sub-grid give the full grid's points bit for bit, wherever each point
    # falls in its chunk
    rng = np.random.default_rng(order)
    both = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                            sampling_period=1e-4)
    for config in (OPEN, ACV, CCC, both):
        full = ie.sweep(params, config, order=order)
        want = dict(zip(full.frequencies, full.impedances))
        sub = ie.sweep(params, config, full.frequencies[3::7], order=order)
        assert len(sub.points) == len(full.points[3::7])
        for f, z in zip(sub.frequencies, sub.impedances):
            assert z == want[f], (config.mode, f)
        for f in rng.choice(full.frequencies, 8, replace=False):
            z = ie.impedance_at(params, config, f, order=order).impedance
            assert z == want[f], (config.mode, f)


def test_a_repeated_frequency_is_swept_once_and_keeps_its_resonance(params):
    # find_resonances needs strictly smaller neighbours, so a grid entry
    # listed twice must not come back as two equal points flanking the
    # 21.07 Hz open-loop peak
    grid = np.arange(15.0, 27.5, 1.0)
    twice = np.sort(np.append(grid, 21.0))
    assert twice.size == 14
    want = ie.sweep(params, OPEN, grid, order=4)
    got = ie.sweep(params, OPEN, twice, order=4)
    assert len(got.points) == 13
    assert got == want
    (peak,) = ie.find_resonances(got)
    assert peak.kind == "peak"
    assert abs(peak.freq_hz - 21.07) < 0.01


def test_sweep_guard_band_around_fundamental(params):
    grid = np.arange(44.0, 57.0, 1.0)
    res = ie.sweep(params, ACV, freqs=grid)
    assert res.excluded == (48.0, 49.0, 50.0, 51.0, 52.0)
    assert len(res.points) == len(grid) - 5
    # explicit zero width keeps every point, including f1 itself
    res_all = ie.sweep(params, ACV, freqs=grid, guard_band_hz=0.0)
    assert res_all.excluded == ()
    assert len(res_all.points) == len(grid)
    # damped resonator or plain modes never guard-band by default
    assert ie._guard_band(OPEN) == 0.0
    assert ie._guard_band(CCC) == 0.0
    assert ie._guard_band(mm.ControlConfig(
        mode="acv", kpv=1.0, krv=20.0, resonant_damping=5.0)) == 0.0
    assert ie._guard_band(ACV) == ie.DEFAULT_GUARD_BAND_HZ


def test_auto_order_is_lowest_converged_order(params, op):
    z = ie.impedance_at(params, OPEN, 101.0)
    mags = {h: ie.impedance_at(params, OPEN, 101.0, order=h).magnitude
            for h in range(4, z.order + 3)}
    assert abs(mags[z.order] - mags[z.order + 2]) \
        <= ie.AUTO_ORDER_RTOL * mags[z.order + 2]
    for h in range(4, z.order):
        assert abs(mags[h] - mags[h + 2]) > ie.AUTO_ORDER_RTOL * mags[h + 2]
    assert z.impedance == ie.impedance_at(params, OPEN, 101.0,
                                          order=z.order).impedance
    # a given operating point fixes the order
    assert ie.impedance_at(params, ACV, 37.0, op=op) \
        == ie.impedance_at(params, ACV, 37.0, order=4, op=op)
    # the circulating-path probe follows the same rule
    zc = ie.circulating_impedance_at(params, OPEN, 151.0)
    mags = {h: ie.circulating_impedance_at(params, OPEN, 151.0,
                                           order=h).magnitude
            for h in range(4, zc.order + 3)}
    assert abs(mags[zc.order] - mags[zc.order + 2]) \
        <= ie.AUTO_ORDER_RTOL * mags[zc.order + 2]
    for h in range(4, zc.order):
        assert abs(mags[h] - mags[h + 2]) > ie.AUTO_ORDER_RTOL * mags[h + 2]
    assert zc.impedance == ie.circulating_impedance_at(
        params, OPEN, 151.0, order=zc.order).impedance
    assert ie.circulating_impedance_at(params, CCC, 37.0, op=op) \
        == ie.circulating_impedance_at(params, CCC, 37.0, order=4, op=op)


def test_auto_order_accepts_exact_zero_impedance(params):
    # the undamped resonator pins Z = 0 at f1: exactly 0 up to order 6,
    # roundoff above. Such a point agrees at every order, so it neither
    # raises a warning nor changes the order the other points need
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ie.sweep(params, ACV, freqs=np.array([49.0, 50.0, 51.0, 100.0]),
                       guard_band_hz=0.0)
    assert res.magnitudes[1] < 1e-9
    without_f1 = ie.sweep(params, ACV, freqs=np.array([49.0, 51.0, 100.0]),
                          guard_band_hz=0.0)
    assert res.order == without_f1.order


def test_auto_order_not_converged_warns(params, monkeypatch):
    monkeypatch.setattr(ie, "AUTO_ORDER_RTOL", 0.0)
    grid = np.array([35.0, 101.0])
    with pytest.warns(RuntimeWarning, match="not converged"):
        res = ie.sweep(params, OPEN, freqs=grid)
    assert res.order == ie.MAX_ORDER
    assert {p.order for p in res.points} == {ie.MAX_ORDER}
    want = ie.sweep(params, OPEN, freqs=grid, order=ie.MAX_ORDER)
    np.testing.assert_array_equal(res.impedances, want.impedances)


def test_sweep_input_validation(params):
    with pytest.raises(ValueError):
        ie.sweep(params, OPEN, freqs=np.array([]))
    with pytest.raises(ValueError):
        ie.sweep(params, OPEN, freqs=np.array([10.0, -5.0]))



@pytest.mark.parametrize("order", [0, ie.MAX_ORDER + 1])
def test_sweep_rejects_an_order_out_of_range(params, order, monkeypatch):
    # refused as a bad argument before any modal or dense factor is built
    ie._store.clear()
    mm.steady_state.cache_clear()
    monkeypatch.setattr(hss_core, "ShiftedSolver", None)
    monkeypatch.setattr(hss_core, "DenseFactor", None)
    with pytest.raises(ValueError, match="order must lie in 1..16"):
        ie.sweep(params, OPEN, freqs=np.array([35.0, 80.0]), order=order)


def test_order_one_refuses_a_second_harmonic_modulation(params):
    # the engine's spot, sweep and steady paths all refuse it by name
    p2 = dataclasses.replace(params, modulation_index_2h=0.1)
    message = r"order 1 .*modulation_index_2h = 0\.1"
    for run in (lambda: ie.impedance_at(p2, OPEN, 35.0, order=1),
                lambda: ie.sweep(p2, ACV, np.array([35.0]), order=1),
                lambda: mm.steady_state(p2, 1)):
        with pytest.raises(ValueError, match=message):
            run()
    assert np.isfinite(ie.impedance_at(p2, OPEN, 35.0, order=2).impedance)


def test_auto_order_sweep_of_an_emptied_grid(params):
    # the guard band removes every frequency: the automatic rule returns
    # the empty result of an explicit order, at its first candidate 4
    res = ie.sweep(params, ACV, freqs=np.array([50.0]))
    assert res == ie.sweep(params, ACV, freqs=np.array([50.0]), order=4)
    assert res.order == 4
    assert res.points == () and res.failures == ()
    assert res.excluded == (50.0,)

def _singular_at(monkeypatch, freq_hz, modes=None):
    """Put a mode exactly on the shift at freq_hz, as the modal bound sees
    it, for the solvers with this many modes (any by default)."""
    real = hss_core.ShiftedSolver.bounds

    def bounds(self, shifts):
        out = real(self, shifts)
        if modes is None or len(self.eigvals) == modes:
            out[np.isclose(shifts, 2j * np.pi * freq_hz)] = np.inf
        return out

    monkeypatch.setattr(hss_core.ShiftedSolver, "bounds", bounds)


def test_sweep_records_isolated_failures(params, monkeypatch):
    _singular_at(monkeypatch, 20.0)
    grid = np.arange(10.0, 22.0, 1.0)  # 12 points, 1 failure is under 10%
    res = ie.sweep(params, OPEN, freqs=grid)
    assert len(res.points) == 11
    assert len(res.failures) == 1
    assert res.failures[0][0] == 20.0
    assert "shifted system matrix is singular" in res.failures[0][1]


def _dead_channels_at(monkeypatch, freq_hz):
    """Zero both sides of every channel law at freq_hz, so the channel
    system of that point is exactly singular."""
    real = mm.channel_gains

    def gains(params, config, order, s, parity):
        alpha, beta, scale = real(params, config, order, s, parity)
        dead = np.asarray(s) == 1j * (2.0 * np.pi * freq_hz)
        alpha[dead] = beta[dead] = 0.0
        return alpha, beta, scale

    monkeypatch.setattr(mm, "channel_gains", gains)


def test_an_exactly_singular_channel_system_is_reported_singular(
        params, monkeypatch):
    # only the dead point fails, as singular with cond inf, and every
    # other point keeps its bits
    grid = np.arange(30.0, 40.5, 1.0)
    want = ie.sweep(params, ACV, grid, order=4, guard_band_hz=0.0)
    _dead_channels_at(monkeypatch, 35.0)
    res = ie.sweep(params, ACV, grid, order=4, guard_band_hz=0.0)
    assert [f for f, _ in res.failures] == [35.0]
    assert (res.impedances.tobytes()
            == want.impedances[grid != 35.0].tobytes())
    with pytest.raises(SingularSystemError, match="singular") as err:
        ie.impedance_at(params, ACV, 35.0, order=4)
    assert err.value.cond_estimate == float("inf")


def test_sweep_raises_when_too_many_points_fail(params, monkeypatch):
    monkeypatch.setattr(hss_core.ShiftedSolver, "bounds",
                        lambda self, shifts: np.full(len(shifts), np.inf))
    with pytest.raises(DegenerateResponseError,
                       match="shifted system matrix is singular"):
        ie.sweep(params, OPEN, freqs=np.arange(10.0, 20.0, 1.0))


def test_spot_calls_raise_a_failure_at_any_order_they_evaluate(
        params, monkeypatch):
    # the automatic rule evaluates a spot point at several orders: an error
    # at any of them is raised, while a sweep records it as one failure
    # order 6: 2 * 13 modes per parity class
    _singular_at(monkeypatch, 101.0, modes=26)
    message = "shifted system matrix is singular"
    with pytest.raises(SingularSystemError, match=message):
        ie.impedance_at(params, ACV, 101.0)
    with pytest.raises(SingularSystemError, match=message):
        ie.circulating_impedance_at(params, ACV, 101.0)
    res = ie.sweep(params, ACV, np.arange(96.0, 108.0), order=6)
    assert len(res.points) == 11
    assert [f for f, _ in res.failures] == [101.0]


def _built(monkeypatch, *classes):
    """Count of the instances of each class built from now on, by name."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_automatic_spot_point_is_the_sweep_point(params, monkeypatch):
    # repeated spot calls at the automatic order build each (order, class)
    # solver and loop the rule visits once, for 4 such pairs, and return
    # the points one-frequency sweeps return
    ie._store.clear()
    built = _built(monkeypatch, hss_core.ShiftedSolver, ie._Loop)
    freqs = (101.0, 101.0, 101.0, 35.0, 80.0, 120.0)
    points = [ie.impedance_at(params, ACV, f) for f in freqs]
    assert built["ShiftedSolver"] <= 4 and built["_Loop"] <= 4
    for f, point in zip(freqs, points):
        assert point == ie.sweep(params, ACV, [f],
                                 guard_band_hz=0.0).points[0]


def test_the_store_holds_one_leg_and_reuses_an_equal_operating_point(
        params, params_m0, monkeypatch):
    # a call on a second leg frees the first leg's solvers, and a copy of
    # an operating point closes no new loop around the stored solver
    ie.impedance_at(params, OPEN, 35.0, order=8)
    first = weakref.ref(ie._store[8, mm.ODD].solver)
    ie.impedance_at(params_m0, OPEN, 35.0, order=8)
    gc.collect()
    assert first() is None

    op = mm.steady_state(params_m0, 8)
    want = ie.circulating_impedance_at(params_m0, ACV, 35.0, op=op)
    built = _built(monkeypatch, ie._Loop)
    copy = mm.SteadyOperatingPoint(params_m0, 8, op.stack.copy())
    assert ie.circulating_impedance_at(params_m0, ACV, 35.0,
                                       op=copy) == want
    assert built == {"_Loop": 0}


def test_modal_guard_bounds_lapack_estimate_on_mmc_legs(params, params_m0):
    # on the reference leg and its m = 0 variant, the modal bound of every
    # sweep frequency is no smaller than LAPACK's condition estimate of
    # M0 - j*omega*I, stays below the guard (these read up to ~1e8) and is
    # bit for bit the bound of that frequency's shift alone
    omegas = 2.0 * np.pi * np.arange(5.0, 500.5, 1.0)
    for leg in (params, params_m0):
        for h, parity in itertools.product((4, 8, 16), (mm.EVEN, mm.ODD)):
            solver = ie._loop(leg, OPEN, None, h, parity).solver
            eye = np.eye(len(solver.m0))
            scale = np.linalg.norm(solver.m0, 1)
            for w, bound in zip(omegas, solver.bounds(1j * omegas)):
                assert (ref.lapack_cond(solver.m0 - 1j * w * eye)
                        <= bound < hss_core.COND_LIMIT)
                gap = np.abs(solver.eigvals - 1j * w).min()
                assert bound == (scale + abs(w)) * solver.mode_cond / gap


def test_sweep_memory_stays_within_the_chunk_budget(params):
    # a repeated sweep reuses the cached factor and loop set-up, so what it
    # allocates is its chunks' work arrays: the per-point estimate that
    # sizes the chunks must cover the arrays a chunk actually keeps
    config = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                              sampling_period=1e-4)
    for h in (4, 8, 16):
        ie.sweep(params, config, order=h)
        loop = ie._loop(params, config, mm.steady_state(params, h), h,
                        mm.ODD)
        budget = max(ie._CHUNK_BYTES, loop.point_bytes)
        tracemalloc.start()
        try:
            ie.sweep(params, config, order=h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * budget


# ----------------------------------------------------------------- resonances


def _fake_sweep(freqs, mags):
    pts = tuple(
        ie.ImpedancePoint(f, m + 0j, "open", 4) for f, m in zip(freqs, mags)
    )
    return ie.SweepResult(4, pts)


def test_find_resonances_on_synthetic_data():
    res = _fake_sweep(
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        [5.0, 3.0, 2.0, 3.0, 5.0, 7.0, 6.0],
    )
    both = ie.find_resonances(res)
    assert [r.kind for r in both] == ["notch", "peak"]
    # symmetric neighbours: refinement keeps the grid point
    assert both[0].freq_hz == pytest.approx(3.0)
    assert both[0].magnitude == pytest.approx(2.0)
    assert both[1].freq_hz == pytest.approx(6.0, abs=0.5)


def test_open_loop_resonance_map(params):
    # the reference leg shows a large low-frequency peak plus mid-band
    # structure; pin where they sit on the default grid
    res = ie.sweep(params, OPEN)
    peaks = [r for r in ie.find_resonances(res) if r.kind == "peak"]
    freqs = [round(r.freq_hz, 1) for r in peaks]
    assert freqs == [21.1, 77.8, 99.3, 119.4]
    assert peaks[0].magnitude == pytest.approx(1896.0, rel=0.05)
    assert peaks[2].magnitude == pytest.approx(255.8, rel=0.05)


# ------------------------------------------- randomised operating points


def _dense_impedance(params, config, op, order, f):
    # the assembled perturbed system of the mode, solved densely
    wp = 2.0 * np.pi * f
    i_gp = np.linalg.solve(*ref.perturbed_system(params, config, op, order,
                                                  1j * wp))[4 * order + 3]
    return -(1.0 + params.load_impedance(wp) * i_gp) / i_gp


def test_modal_factor_of_random_legs():
    # the real form's spectrum is exactly closed under conjugation, the
    # modes invert to roundoff, and the modal bound exceeds the exact 1-norm
    # condition number of M0 - j*omega*I at sampled shifts
    rng = np.random.default_rng(20261019)
    for h in (4, 8, 16):
        for _ in range(3):
            leg = ref.random_leg(rng)
            omegas = 2.0 * np.pi * rng.uniform(5.0, 500.0, size=4)
            for parity in (mm.EVEN, mm.ODD):
                solver = ie._loop(leg, OPEN, None, h, parity).solver
                modes = np.sort_complex(solver.eigvals)
                np.testing.assert_array_equal(np.sort_complex(modes.conj()),
                                              modes)
                eye = np.eye(len(modes))
                np.testing.assert_allclose(solver.v_inv @ solver.v, eye,
                                           rtol=0.0, atol=1e-12)
                for w, bound in zip(omegas, solver.bounds(1j * omegas)):
                    assert bound >= np.linalg.cond(
                        solver.m0 - 1j * w * eye, 1)


def test_a_scan_point_solves_its_steady_state_and_loop_once(params,
                                                           monkeypatch):
    # a caller's operating point, a closed-loop sweep and a circulating
    # probe around that point share one steady-state solve, and close one
    # loop on each parity class: the sweep's ODD one, the probe's EVEN one
    built = _built(monkeypatch, hss_core.DenseFactor)
    parities = []
    real = ie._Loop.__init__

    def counting(self, solver, leg, config, op, order, parity):
        parities.append(parity)
        real(self, solver, leg, config, op, order, parity)

    monkeypatch.setattr(ie._Loop, "__init__", counting)
    mm.steady_state.cache_clear()
    ie._store.clear()
    op = mm.steady_state(params, 8)
    ie.sweep(params, ACV, [35.0, 80.0], order=8)
    ie.circulating_impedance_at(params, ACV, 35.0, op=op)
    assert built == {"DenseFactor": 1}
    assert parities == [mm.ODD, mm.EVEN]


def test_circulating_probe_matches_dense_solve_on_random_legs():
    # the circulating probe runs on the EVEN class, the series probe on the
    # ODD one: against a full-size dense solve of the assembled operator
    rng = np.random.default_rng(20261020)
    worst = 0.0
    for _ in range(6):
        params = ref.random_leg(rng)
        for mode in mm.CONTROL_MODES:
            config = ref.random_control(rng, mode)
            for h in (4, 8):
                op = mm.steady_state(params, h)
                for f in rng.uniform(5.0, 495.0, size=3):
                    z = ie.circulating_impedance_at(params, config, f, h,
                                                    op=op).impedance
                    z_dense = ref.dense_circulating_impedance(
                        params, config, op, h, f)
                    worst = max(worst, abs(z - z_dense) / abs(z_dense))
    assert worst <= 1e-9


def _solver_sizes(monkeypatch):
    """Matrix order of every ShiftedSolver built from now on, with the
    engine's store and the steady-state cache emptied."""
    sizes = []
    real = hss_core.ShiftedSolver.__init__

    def counting(self, m0, order):
        sizes.append(len(m0))
        real(self, m0, order)

    monkeypatch.setattr(hss_core.ShiftedSolver, "__init__", counting)
    ie._store.clear()
    mm.steady_state.cache_clear()
    return sizes


@pytest.mark.parametrize("config", [OPEN, ACV], ids=["open", "acv"])
def test_a_series_sweep_builds_one_half_size_solver(params, config,
                                                    monkeypatch):
    # the series probe lies in the ODD class: one solver of 2(2h + 1)
    sizes = _solver_sizes(monkeypatch)
    ie.sweep(params, config, np.arange(5.0, 500.0, 7.0), order=8)
    assert sizes == [2 * 17]


def test_a_scan_point_builds_one_solver_per_class(params, monkeypatch):
    # the steady state, a closed-loop sweep, spot points and circulating
    # probes around one operating point build the ODD and the EVEN
    # solver once each
    sizes = _solver_sizes(monkeypatch)
    config = mm.ControlConfig(mode="acv+ccc", kpv=1.0, krv=20.0, ra=20.0,
                              sampling_period=1e-4)
    op = mm.steady_state(params, 8)
    ie.find_resonances(ie.sweep(params, config, np.arange(5.0, 500.0, 10.0),
                                order=8))
    for f in (35.0, 80.0, 120.0):
        ie.impedance_at(params, config, f, order=8)
    for f in (30.0, 140.0):
        ie.circulating_impedance_at(params, config, f, order=8, op=op)
    assert sizes == [2 * 17, 2 * 17]


def test_resolvent_matches_dense_solve_on_random_legs():
    # the modal resolvent path against a dense solve of the assembled
    # operator, and sweep points against single-point calls: a point's
    # value must not depend on which chunk of a batched solve it was in
    rng = np.random.default_rng(20261018)
    worst_dense = worst_chunk = 0.0
    for _ in range(20):
        params = ref.random_leg(rng)
        for mode in mm.CONTROL_MODES:
            config = ref.random_control(rng, mode)
            for h in (4, 8):
                op = mm.steady_state(params, h)
                grid = np.sort(rng.uniform(5.0, 495.0, size=7))
                res = ie.sweep(params, config, grid, order=h,
                               guard_band_hz=0.0)
                assert res.failures == ()
                for p in res.points:
                    z = ie.impedance_at(params, config, p.freq_hz, h, op=op)
                    z_dense = _dense_impedance(params, config, op, h,
                                               p.freq_hz)
                    worst_dense = max(worst_dense, abs(z.impedance - z_dense)
                                      / abs(z_dense))
                    worst_chunk = max(worst_chunk,
                                      abs(p.impedance - z.impedance)
                                      / abs(z.impedance))
    assert worst_dense <= 1e-9
    assert worst_chunk <= 1e-12
