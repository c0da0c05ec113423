"""Input values are checked where they are taken: a non-finite or
out-of-range value raises InvalidValueError naming the argument before any
factor is built or any step is integrated."""

import numpy as np
import pytest

from mmc_hss import (hss_core, impedance_engine as ie, mmc_model as mm,
                     td_sim as td)
from mmc_hss.errors import InvalidValueError

LEG = dict(vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
           sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
           modulation_index=0.847, load_resistance=550.0)
PARAMS = mm.CircuitParams(**LEG)
OPEN = mm.ControlConfig()
ACV = mm.ControlConfig(mode="acv", kpv=1.0, krv=20.0)
SIM = td.SimConfig()
NAN, INF = float("nan"), float("inf")
FINITE, WHOLE = "must be finite", "must be a whole number"


def _series(n=2000, dt=1e-5):
    x = np.zeros(n)
    return td.TimeSeries(dt=dt, t=np.arange(n) * dt, i_c=x, v_cu=x, v_cl=x,
                         i_g=x, v_g=x, n_u=x, n_l=x)


# (call, field, reason)
PROBES = {
    "params vdc inf": (lambda: mm.CircuitParams(**dict(LEG, vdc=INF)),
                       "vdc", FINITE),
    "params R nan": (lambda: mm.CircuitParams(**dict(LEG,
                                                     arm_resistance=NAN)),
                     "arm_resistance", FINITE),
    "params N 20.5": (lambda: mm.CircuitParams(**dict(LEG, sm_per_arm=20.5)),
                      "sm_per_arm", WHOLE),
    "params phase nan": (lambda: mm.CircuitParams(
        **dict(LEG, modulation_phase=NAN)), "modulation_phase", FINITE),
    "control kpv nan": (lambda: mm.ControlConfig(mode="acv", kpv=NAN),
                        "kpv", FINITE),
    "control kf -1": (lambda: mm.ControlConfig(mode="acv", kf=-1.0),
                      "kf", "must not be negative"),
    "control ra inf": (lambda: mm.ControlConfig(mode="ccc", ra=INF),
                       "ra", FINITE),
    "sim dt nan": (lambda: td.SimConfig(dt=NAN), "dt", FINITE),
    "sim cycles 1.5": (lambda: td.SimConfig(measure_cycles=1.5),
                       "measure_cycles", WHOLE),
    "impedance_at nan": (lambda: ie.impedance_at(PARAMS, OPEN, NAN, order=4),
                         "freq_hz", FINITE),
    "impedance_at inf": (lambda: ie.impedance_at(PARAMS, ACV, INF),
                         "freq_hz", FINITE),
    "circulating nan": (lambda: ie.circulating_impedance_at(PARAMS, OPEN,
                                                            NAN, order=4),
                        "freq_hz", FINITE),
    "sweep nan": (lambda: ie.sweep(PARAMS, OPEN, [10.0, NAN], order=4),
                  "freqs", FINITE),
    "sweep order 4.5": (lambda: ie.sweep(PARAMS, OPEN, [10.0], order=4.5),
                        "order", WHOLE),
    "sweep guard nan": (lambda: ie.sweep(PARAMS, ACV, [10.0], order=4,
                                         guard_band_hz=NAN),
                        "guard_band_hz", FINITE),
    "measure inf": (lambda: td.measure_impedance(PARAMS, OPEN, SIM, INF),
                    "freq_hz", FINITE),
    "measure many nan": (lambda: td.measure_impedance_many(
        PARAMS, OPEN, SIM, [35.0, NAN]), "freq_hz", FINITE),
    "simulate f nan": (lambda: td.simulate(PARAMS, None, td.SimConfig(
        perturb_freq=NAN, perturb_amplitude=10.0)), "perturb_freq", FINITE),
    "simulate amp nan": (lambda: td.simulate(PARAMS, None, td.SimConfig(
        perturb_freq=35.0, perturb_amplitude=NAN)),
                         "perturb_amplitude", FINITE),
    "simulate amp -10": (lambda: td.simulate(PARAMS, None, td.SimConfig(
        perturb_freq=35.0, perturb_amplitude=-10.0)),
                         "perturb_amplitude", "must not be negative"),
    "phasor nan": (lambda: td.extract_phasor(_series(), "i_g", NAN),
                   "freq_hz", FINITE),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_bad_inputs_are_refused_before_any_work(name, monkeypatch):
    # with no factor to build (none stored, no solver or dense factor
    # class) and no step to take, any work at all ends in a TypeError or
    # AssertionError instead of the refusal
    def no_step(*args, **kwargs):
        raise AssertionError("integration started")

    ie._store.clear()
    monkeypatch.setattr(mm, "_last_steady", None)
    monkeypatch.setattr(hss_core, "ShiftedSolver", None)
    monkeypatch.setattr(hss_core, "DenseFactor", None)
    monkeypatch.setattr(td._Runner, "advance", no_step)
    call, field, reason = PROBES[name]
    with pytest.raises(InvalidValueError) as info:
        call()
    assert (info.value.field, info.value.reason) == (field, reason)
    assert str(info.value) == f"{field} {reason}"


def test_refusals_are_value_errors_and_keep_cross_field_messages():
    assert issubclass(InvalidValueError, ValueError)
    with pytest.raises(ValueError, match="combined modulation") as info:
        mm.CircuitParams(**dict(LEG, modulation_index=0.8,
                                modulation_index_2h=0.3))
    assert not isinstance(info.value, InvalidValueError)
    # a whole number of any integer type is accepted, a float one is not
    assert td.SimConfig(settle_cycles=np.int64(5)).settle_cycles == 5
    with pytest.raises(InvalidValueError, match="settle_cycles must be a "
                                                "whole number"):
        td.SimConfig(settle_cycles=5.0)
