#!/usr/bin/env python3
"""Print a sweep of model-only battery-life predictions for both transponder
platforms at finer intervals than ``wxkit battery --table``, which prints the
comparison with the reference figures."""

from wxkit import energy


def sweep():
    print("model sweep (days):")
    header = "  ".join(f"{m:>6}m" for m in (5, 10, 15, 20, 30, 45, 60, 120))
    print(f"{'platform':<8}  {header}")
    for name, profile in sorted(energy.PROFILES.items()):
        cells = []
        for minutes in (5, 10, 15, 20, 30, 45, 60, 120):
            cells.append(f"{energy.battery_life_days(profile, minutes * 60):>7.1f}")
        print(f"{name:<8}  {'  '.join(cells)}")


if __name__ == "__main__":
    sweep()
