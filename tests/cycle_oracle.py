"""Exact per-cycle outcome distribution of an A5N1 run, for checking the
simulator's rates against.

When ``t_cycle_s`` is a multiple of ``emission_period_s`` and the duty-cycle
governor never delays, every cycle starts at the same phase against the
emissions, so RX1 and RX2 each hear a fixed, short list of emission times.
Each emission reaches the transponder intact with probability ``s``
(s = (1 - p)(1 - q)^64 for frame loss p and bit-flip rate q); a window
closes on its first intact frame, else on its timeout. From those lists a
cycle's receiver-on time, its ``frames_received`` and whether its record is
complete have a finite distribution. A record is complete when RX1 and RX2
catch messages of opposite parity, because an A5N1 station alternates its
0x31 and 0x38 messages.

Shares no code with the simulator beyond its state durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wxkit.core import FIELD_FLAGS, Protocol
from wxkit.simkit import INIT_S, INTER_SLEEP_S, RESET_S


@dataclass(frozen=True)
class Outcome:
    p: float
    rx_on_s: float
    frames_received: int
    complete: bool


def heard(cfg, open_t: float, close_t: float) -> list[float]:
    """The emission times in a receive window open over (open_t, close_t]:
    an emission that ties with a wake goes first, so one at the opening
    falls in the state before and one at the timeout is still heard."""
    period = cfg.station.emission_period_s
    times, t = [], period / 2
    while t <= close_t:
        if t > open_t:
            times.append(t)
        t += period
    return times


def windows(cfg) -> tuple[list[float], dict[float, list[float]]]:
    """The emission times heard in RX1 of a cycle, and for each time RX1 can
    close (on one of those emissions, or on its timeout) the times heard in
    RX2. Times are of the first cycle, which opens RX1 at RESET_S + INIT_S."""
    tr, period = cfg.transponder, cfg.station.emission_period_s
    assert cfg.station.protocol is Protocol.A5N1
    assert (tr.t_cycle_s / period).is_integer(), "cycles must keep their phase"
    start = RESET_S + INIT_S
    rx1 = heard(cfg, start, start + tr.rx_timeout_s)
    rx2 = {}
    for closed in (*rx1, start + tr.rx_timeout_s):
        rx2_open = closed + INTER_SLEEP_S
        rx2[closed] = heard(cfg, rx2_open, rx2_open + tr.rx_timeout_s)
    return rx1, rx2


def _closings(times: list[float], close_t: float, s: float):
    """(time the window closes, emission caught or None, probability)."""
    for i, t in enumerate(times):
        yield t, t, (1 - s) ** i * s
    yield close_t, None, (1 - s) ** len(times)


def cycle_outcomes(cfg, s: float) -> list[Outcome]:
    """Every outcome of one cycle with its probability; they sum to 1."""
    timeout, period = cfg.transponder.rx_timeout_s, cfg.station.emission_period_s
    start = RESET_S + INIT_S
    rx1, rx2 = windows(cfg)
    parity = lambda t: round((t - period / 2) / period) % 2  # noqa: E731
    outcomes = []
    for t1, caught1, p1 in _closings(rx1, start + timeout, s):
        rx2_open = t1 + INTER_SLEEP_S
        for t2, caught2, p2 in _closings(rx2[t1], rx2_open + timeout, s):
            caught = [t for t in (caught1, caught2) if t is not None]
            outcomes.append(Outcome(
                p=p1 * p2,
                rx_on_s=(t1 - start) + (t2 - rx2_open),
                frames_received=len(caught),
                complete=len(caught) == 2 and parity(caught1) != parity(caught2)))
    return outcomes


def active_energy_uwh(o: Outcome, profile, t_air: float) -> float:
    """The active-phase energy of a cycle with outcome ``o``: the measured
    lump, unless the receiver (on in RX1, INTER_SLEEP and RX2) and the
    transmission of ``t_air`` seconds alone draw more."""
    e_tx = profile.tx_power_uw * t_air / 3600.0
    return max(profile.e_active_uwh,
               profile.shr_power_uw * (o.rx_on_s + INTER_SLEEP_S) / 3600.0 + e_tx)


def frame_success(cfg) -> float:
    """Probability that one emission reaches the transponder intact."""
    return (1 - cfg.channel.frame_loss_p) * (1 - cfg.channel.bit_flip_q) ** 64


def mean_and_sd(outcomes: list[Outcome], value) -> tuple[float, float]:
    """Mean and standard deviation of ``value(outcome)`` over one cycle."""
    mean = sum(o.p * value(o) for o in outcomes)
    var = sum(o.p * (value(o) - mean) ** 2 for o in outcomes)
    return mean, math.sqrt(var)


def observed_cycles(events: list[dict]) -> list[Outcome]:
    """The outcome of each cycle of a trace that ended in a decoded record,
    each with weight 1: receiver-on time from the state events, the count
    and completeness from the record."""
    cycles, rx_on, entered = [], 0.0, 0.0
    for ev in events:
        if ev["ev"] == "state":
            if ev["from"] in ("rx1", "rx2"):
                rx_on += ev["t"] - entered
            if ev["to"] == "rx1":
                rx_on = 0.0
            entered = ev["t"]
        elif ev["ev"] == "record":
            r = ev["record"]
            cycles.append(Outcome(1.0, rx_on, ev["frames_received"],
                                  all(r[f] is not None for f in FIELD_FLAGS)))
    return cycles
