"""Weather-station RF decoding, compact LoRaWAN repacking, and transponder
duty-cycle/energy simulation."""

from .core import (
    Protocol,
    StationId,
    WeatherRecord,
    merge_partial,
    quantize_roundtrip_bounds,
)
from .rfdecode import (
    PulseTrain,
    decode_a5n1,
    decode_lcw,
    frame_pulses,
)
from .lorawan import (
    AbpSession,
    DutyCycleGovernor,
    RadioParams,
    airtime,
    duty_cycle_wait,
    frame_build,
    frame_parse,
    payload_decode,
    payload_encode,
)
from .energy import (
    BSF32,
    LOPY4,
    EnergyProfile,
    battery_life_days,
    cycle_energy,
    daily_energy,
    fit_component_power,
)
from .simkit import SimConfig, SimTrace, channel_apply, run

__version__ = "0.1.0"
