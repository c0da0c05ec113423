"""The reference leg the test modules share."""

import dataclasses

import pytest

from mmc_hss import mmc_model as mm


@pytest.fixture(scope="module")
def params():
    # 320 kV bus, 0.36 H / 1 ohm arms, 140 uF * 20 submodules, 50 Hz,
    # modulation depth 0.847, 550 ohm resistive load (50 MW class)
    return mm.CircuitParams(
        vdc=320e3, arm_inductance=0.36, arm_resistance=1.0,
        sm_capacitance=140e-6, sm_per_arm=20, fundamental_freq=50.0,
        modulation_index=0.847, load_resistance=550.0,
    )


@pytest.fixture(scope="module")
def params_m0(params):
    # the same leg without modulation
    return dataclasses.replace(params, modulation_index=0.0)
