#!/usr/bin/env python3
"""Run a 24-hour simulation for each platform/interval pairing and compare
the event-driven energy ledger against the closed-form model."""

import argparse

from wxkit import energy, simkit


def one_run(profile: str, t_cycle_s: float, seed: int, loss_p: float) -> None:
    config = simkit.SimConfig(
        seed=seed,
        transponder=simkit.TransponderSpec(profile=profile, t_cycle_s=t_cycle_s),
        channel=simkit.ChannelSpec(frame_loss_p=loss_p),
    )
    trace = simkit.run(config, sink=lambda events: None)   # only the summary is read
    s = trace.summary
    closed = energy.daily_energy(energy.PROFILES[profile], t_cycle_s)
    gap = (s["energy_uwh_total"] - closed) / closed * 100
    print(f"{profile:<6} @{t_cycle_s:>6.0f}s  p={loss_p:<4}  "
          f"uplinks {s['uplinks_delivered']:>3}/{s['uplinks_attempted']:<3}  "
          f"complete {s['complete_records']:>3}  "
          f"ledger {s['energy_uwh_total']:>9.1f} uWh  "
          f"closed-form {closed:>9.1f}  ({gap:+.2f}%)  "
          f"duty {s['duty_cycle_utilization'] * 100:.4f}%")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--loss-p", type=float, default=0.0)
    args = parser.parse_args()
    for profile in ("bsf32", "lopy4"):
        for t_cycle in (300.0, 900.0, 1800.0, 3600.0):
            one_run(profile, t_cycle, args.seed, args.loss_p)
