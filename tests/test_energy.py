import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wxkit.energy import (
    BSF32,
    LOPY4,
    EnergyModelError,
    EnergyProfile,
    battery_life_days,
    cycle_energy,
    daily_energy,
    fit_component_power,
)


def test_cycle_energy_bsf32_at_323s():
    # 449 + 532.8 uW * 280.8 s / 3600
    assert cycle_energy(BSF32, 323) == pytest.approx(490.5584, abs=1e-4)


def test_cycle_energy_lopy4_at_300s():
    # 1170 + 147.6 uW * 255.94 s / 3600
    assert cycle_energy(LOPY4, 300) == pytest.approx(1180.4935, abs=1e-3)


def test_cycle_energy_zero_sleep():
    assert cycle_energy(BSF32, BSF32.t_active_s) == BSF32.e_active_uwh


def test_cycle_energy_too_short():
    with pytest.raises(EnergyModelError):
        cycle_energy(BSF32, 30.0)
    # the sleep energy of a NaN or a 1e308 s cycle is not finite
    for t_cycle in (float("nan"), 1e308):
        with pytest.raises(EnergyModelError):
            cycle_energy(BSF32, t_cycle)


def test_daily_energy_bsf32():
    assert daily_energy(BSF32, 323) == pytest.approx(131_220.6, abs=0.5)


def test_daily_energy_lopy4():
    assert daily_energy(LOPY4, 300) == pytest.approx(339_982.1, abs=0.5)


def test_daily_energy_degenerate_one_cycle_per_day():
    assert daily_energy(BSF32, 86_400) == pytest.approx(cycle_energy(BSF32, 86_400))


def test_battery_life_values():
    assert battery_life_days(BSF32, 323) == pytest.approx(56.39, abs=0.01)
    assert battery_life_days(LOPY4, 300) == pytest.approx(141.18, abs=0.01)
    assert battery_life_days(LOPY4, 900) == pytest.approx(414.91, abs=0.01)
    assert battery_life_days(LOPY4, 3600) == pytest.approx(1520.0, abs=0.1)


@given(st.floats(50, 80_000), st.floats(1, 6000))
def test_battery_life_increases_with_interval(t_cycle, extra):
    assert battery_life_days(BSF32, t_cycle + extra) > battery_life_days(BSF32, t_cycle)


@given(st.floats(45, 80_000))
def test_cycle_energy_is_affine(t_cycle):
    slope = BSF32.sleep_power_uw / 3600.0
    base = cycle_energy(BSF32, BSF32.t_active_s)
    assert cycle_energy(BSF32, t_cycle) == pytest.approx(
        base + slope * (t_cycle - BSF32.t_active_s), rel=1e-12)


def test_fit_component_power_consistent_durations():
    # e_shr(41 s) = 417.175 uWh, e_tx(0.289 s) = 30.297 uWh
    residual = fit_component_power(BSF32)
    assert residual == pytest.approx((449 - 417.175 - 30.296833) * 3600 / 42.2, abs=1e-3)
    assert residual >= 0


def test_fit_component_power_inconsistent_raises():
    # the receiver and radio shares (417.175 + 30.297 uWh) cost more than a
    # smaller measured lump; the model refuses to invent negative MCU power
    with pytest.raises(EnergyModelError):
        dataclasses.replace(BSF32, e_active_uwh=447.0)
    with pytest.raises(EnergyModelError):
        dataclasses.replace(BSF32, e_active_uwh=25.0)      # below the radio share alone


def test_profile_validation():
    with pytest.raises(EnergyModelError):
        EnergyProfile("bad", 3.3, 0.0, 100.0, 50.0, 1e6)
    with pytest.raises(EnergyModelError):
        EnergyProfile("bad", 3.3, 10.0, 100.0, 50.0, 1e6)   # components exceed lump
    for supply_v, i_sleep_ua, battery_uwh in ((0.0, 50.0, 1e6), (3.3, -1.0, 1e6), (3.3, 50.0, 0.0)):
        with pytest.raises(EnergyModelError, match="supply, sleep current and battery"):
            EnergyProfile("bad", supply_v, 42.0, 449.0, i_sleep_ua, battery_uwh)


@pytest.mark.parametrize("supply_v,i_sleep_ua,battery_uwh",
                         [(0.5, 50.0, 1e6), (3.3, 0.5, 1e6), (3.3, 0.0, 1e6), (3.3, 50.0, 0.5)],
                         ids=["supply", "sleep_current", "zero_sleep_current", "battery"])
def test_profile_accepts_values_below_one(supply_v, i_sleep_ua, battery_uwh):
    # the bounds are > 0 (>= 0 for the sleep current), not >= 1
    p = EnergyProfile("small", supply_v, 42.0, 449.0, i_sleep_ua, battery_uwh)
    assert (p.supply_v, p.i_sleep_ua, p.battery_uwh) == (supply_v, i_sleep_ua, battery_uwh)


def test_builtin_profile_values():
    assert BSF32.supply_v == 3.7
    assert BSF32.t_active_s == 42.2
    assert BSF32.e_active_uwh == 449.0
    assert BSF32.i_sleep_ua == 144.0
    assert BSF32.battery_uwh == 7.4e6
    assert LOPY4.supply_v == 4.5
    assert LOPY4.t_active_s == 44.06
    assert LOPY4.e_active_uwh == 1170.0
    assert LOPY4.i_sleep_ua == 32.8
    assert LOPY4.battery_uwh == 48e6
