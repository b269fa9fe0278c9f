"""Closed-form cycle-energy and battery-life model for the two transponder
platforms.

The active phase is treated as a measured lump (``e_active_uwh``); the
component figures below split it into receiver, radio-TX and residual MCU
shares for the simulator's ledger, but never change the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HOUR_S = 3600.0
DAY_S = 86400.0


class EnergyModelError(ValueError):
    pass


# Measured component currents and nominal phase durations, the same on both
# platforms, used to attribute the active-phase lump across simulator states.
I_SHR_MA = 9.9      # average draw while the 433 MHz receiver is on
I_TX_MA = 102.0     # draw during the LoRa transmission
T_SHR_S = 41.0      # nominal receiver-on time per cycle
T_TX_S = 0.289      # nominal transmission time


@dataclass(frozen=True)
class EnergyProfile:
    name: str
    supply_v: float
    t_active_s: float
    e_active_uwh: float
    i_sleep_ua: float
    battery_uwh: float

    def __post_init__(self):
        if self.t_active_s <= 0 or self.e_active_uwh <= 0:
            raise EnergyModelError("active phase duration and energy must be positive")
        if self.supply_v <= 0 or self.i_sleep_ua < 0 or self.battery_uwh <= 0:
            raise EnergyModelError("supply, sleep current and battery must be positive")
        fit_component_power(self)    # raises if the components exceed the active lump

    @property
    def sleep_power_uw(self) -> float:
        return self.i_sleep_ua * self.supply_v

    @property
    def shr_power_uw(self) -> float:
        """Receiver draw in uW."""
        return I_SHR_MA * 1000.0 * self.supply_v

    @property
    def tx_power_uw(self) -> float:
        """Radio-TX draw in uW."""
        return I_TX_MA * 1000.0 * self.supply_v


def cycle_energy(profile: EnergyProfile, t_cycle_s: float) -> float:
    """Energy per cycle in uWh: the active lump plus sleep for the rest."""
    if t_cycle_s < profile.t_active_s:
        raise EnergyModelError(
            f"cycle of {t_cycle_s} s is shorter than the {profile.t_active_s} s active phase"
        )
    energy = profile.e_active_uwh + profile.sleep_power_uw * (t_cycle_s - profile.t_active_s) / HOUR_S
    if not math.isfinite(energy):
        raise EnergyModelError(f"cycle of {t_cycle_s} s has no finite energy")
    return energy


def daily_energy(profile: EnergyProfile, t_cycle_s: float) -> float:
    """Consumption per day in uWh."""
    return cycle_energy(profile, t_cycle_s) * (DAY_S / t_cycle_s)


def battery_life_days(profile: EnergyProfile, t_cycle_s: float) -> float:
    return profile.battery_uwh / daily_energy(profile, t_cycle_s)


def fit_component_power(profile: EnergyProfile) -> float:
    """Residual MCU power in uW after the receiver and radio-TX shares are
    taken out of the measured active-phase energy.

    The durations are the nominal ``T_SHR_S`` and ``T_TX_S``. A profile
    whose component energies exceed its measured total is inconsistent and
    raises; the caller is expected to fix the figures, not clamp.
    """
    e_shr = profile.shr_power_uw * T_SHR_S / HOUR_S
    e_tx = profile.tx_power_uw * T_TX_S / HOUR_S
    residual = profile.e_active_uwh - e_shr - e_tx
    if residual < 0:
        raise EnergyModelError(
            f"component energies ({e_shr:.1f} + {e_tx:.1f} uWh) exceed the "
            f"measured active total ({profile.e_active_uwh:.1f} uWh)"
        )
    return residual * HOUR_S / profile.t_active_s


BSF32 = EnergyProfile(
    name="bsf32",
    supply_v=3.7,
    t_active_s=42.2,
    e_active_uwh=449.0,
    i_sleep_ua=144.0,
    battery_uwh=7.4e6,      # 3.7 V, 2000 mAh Li-ion
)

LOPY4 = EnergyProfile(
    name="lopy4",
    supply_v=4.5,
    t_active_s=44.06,
    e_active_uwh=1170.0,
    i_sleep_ua=32.8,
    battery_uwh=48e6,       # 3 type D alkaline cells
)

PROFILES = {p.name: p for p in (BSF32, LOPY4)}
