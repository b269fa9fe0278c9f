"""The simulator's per-cycle rates against the exact distribution of
``cycle_oracle``: each figure within four standard errors."""

import math

import pytest

from cycle_oracle import (
    active_energy_uwh,
    cycle_outcomes,
    frame_success,
    mean_and_sd,
    observed_cycles,
    windows,
)
from wxkit.energy import PROFILES
from wxkit.lorawan import RadioParams, airtime
from wxkit.simkit import INIT_S, RESET_S, ChannelSpec, SimConfig, TransponderSpec, run

DEFAULT_LOSSY = SimConfig(channel=ChannelSpec(frame_loss_p=0.3))


def test_default_windows_and_exact_figures():
    rx1, rx2 = windows(DEFAULT_LOSSY)
    assert rx1 == [9.0, 27.0, 45.0]
    assert rx2 == {9.0: [27.0, 45.0, 63.0], 27.0: [45.0, 63.0, 81.0],
                   45.0: [63.0, 81.0, 99.0], 60.6: [81.0, 99.0, 117.0]}
    outcomes = cycle_outcomes(DEFAULT_LOSSY, frame_success(DEFAULT_LOSSY))
    assert sum(o.p for o in outcomes) == pytest.approx(1.0, abs=1e-12)
    # (1 - p^3) for RX1, then RX2's first catch at an odd offset
    assert mean_and_sd(outcomes, lambda o: o.complete)[0] == pytest.approx(
        (1 - 0.3**3) * (0.7 + 0.3**2 * 0.7), abs=1e-12)    # 0.7424
    assert mean_and_sd(outcomes, lambda o: o.rx_on_s)[0] == pytest.approx(31.356, abs=5e-4)


# Seeds and lengths are fixed; 30 days is 2880 cycles.
CASES = {
    "q0": SimConfig(duration_s=30 * 86_400.0, seed=4, channel=ChannelSpec(frame_loss_p=0.3)),
    "q1e-3": SimConfig(duration_s=15 * 86_400.0, seed=5,
                       channel=ChannelSpec(frame_loss_p=0.3, bit_flip_q=1e-3)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    cfg = CASES[request.param]
    trace = run(cfg)
    # the oracle holds only while every cycle keeps its phase
    assert not any(ev["ev"] == "governor_wait" for ev in trace.events)
    return cycle_outcomes(cfg, frame_success(cfg)), observed_cycles(trace.events)


def _within_4_sigma(outcomes, observed, value):
    mean, sd = mean_and_sd(outcomes, value)
    got = sum(value(o) for o in observed) / len(observed)
    assert abs(got - mean) <= 4 * sd / math.sqrt(len(observed)), (got, mean, sd)


def test_complete_record_rate(case):
    _within_4_sigma(*case, lambda o: o.complete)


def test_mean_receiver_on_time(case):
    _within_4_sigma(*case, lambda o: o.rx_on_s)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_frames_received_frequencies(case, n):
    _within_4_sigma(*case, lambda o: o.frames_received == n)


# An A5N1 uplink is 42 bytes on air: 13 of frame structure and a 29-byte payload.
A5N1_PHY_LEN = 42


@pytest.mark.parametrize("seed", [4, 6])
@pytest.mark.parametrize("profile", ["bsf32", "lopy4"])
def test_mean_active_phase_energy(profile, seed):
    """The mean of the whole cycles' ``cycle_energy`` totals, against the
    exact mean of ``active_energy_uwh`` over the cycle's outcomes."""
    cfg = SimConfig(duration_s=30 * 86_400.0, seed=seed, channel=ChannelSpec(frame_loss_p=0.3),
                    transponder=TransponderSpec(profile=profile))
    kept = []
    run(cfg, sink=lambda events: kept.extend(
        ev for ev in events if ev["ev"] in ("cycle_energy", "governor_wait")))
    assert not any(ev["ev"] == "governor_wait" for ev in kept)
    tr = cfg.transponder
    t_air = airtime(RadioParams(sf=tr.sf), A5N1_PHY_LEN)
    totals = [sum(ev["by_state"].values()) for ev in kept if "partial" not in ev]
    assert len(totals) == 2880
    outcomes = cycle_outcomes(cfg, frame_success(cfg))
    mean, sd = mean_and_sd(outcomes, lambda o: active_energy_uwh(o, PROFILES[profile], t_air))
    got = sum(totals) / len(totals)
    assert abs(got - mean) <= 4 * sd / math.sqrt(len(totals)), (got, mean, sd)


@pytest.mark.parametrize("profile", ["bsf32", "lopy4"])
def test_sleep_share_fills_each_cycle(profile):
    """Each whole cycle's deep sleep is charged at sleep power, and it lasts
    what the active phase before it left of ``t_cycle_s``; the first cycle
    also carries the boot (``RESET_S + INIT_S``)."""
    cfg = SimConfig(duration_s=5 * 86_400.0, seed=4, channel=ChannelSpec(frame_loss_p=0.3),
                    transponder=TransponderSpec(profile=profile, t_cycle_s=900.0))
    kept = []
    run(cfg, sink=lambda events: kept.extend(
        ev for ev in events if ev["ev"] in ("cycle_energy", "sleep_energy", "governor_wait")))
    assert not any(ev["ev"] == "governor_wait" for ev in kept)
    sleep_uw = PROFILES[profile].sleep_power_uw
    checked = 0
    for before, ev in zip(kept, kept[1:]):
        if ev["ev"] != "sleep_energy" or "cycle" in ev:
            continue
        assert before["ev"] == "cycle_energy" and "partial" not in before
        assert ev["uwh"] == sleep_uw * ev["sleep_s"] / 3600
        boot_s = RESET_S + INIT_S if before["cycle"] == 1 else 0.0
        assert before["active_s"] + ev["sleep_s"] == pytest.approx(900.0 + boot_s, abs=1e-9)
        checked += 1
    assert checked == 5 * 96 - 1    # the last cycle's sleep is cut off by the run's end
