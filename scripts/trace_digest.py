#!/usr/bin/env python3
"""Print the sha256 of the JSON-lines trace of each of N seeded random valid
simulator configs, one line each, then one digest over them all. Each trace
is hashed as ``simkit.write_trace`` hands it out, the writer behind ``wxkit
simulate --out``, so two commits that print the same combined digest write
the same trace bytes for every config.

    PYTHONPATH=src python3 scripts/trace_digest.py --configs 320 --seed 20261019

The configs cover both protocols and both profiles, durations of 1 to
20 000 s (most runs end inside a cycle), frame loss, bit flips, gateway loss,
cycle times of 50 to 1800 s, duty limits of 0.001 to 1 (governor waits),
spreading factors 7, 9 and 12, and barometer noise.
"""

import argparse
import hashlib
import random

from wxkit import simkit


def random_config(rng: random.Random) -> simkit.SimConfig:
    lcw = rng.random() < 0.5
    return simkit.SimConfig.from_dict({
        "duration_s": rng.uniform(1.0, 20_000.0),
        "seed": rng.randrange(2**32),
        "station": {"protocol": "lcw" if lcw else "a5n1",
                    "id": rng.randrange(0x80 if lcw else 0x4000),
                    "channel": 0 if lcw else rng.randrange(4)},
        "channel": {"frame_loss_p": rng.choice((0.0, rng.uniform(0.0, 0.5))),
                    "bit_flip_q": rng.choice((0.0, rng.uniform(0.0, 0.02)))},
        "transponder": {"profile": rng.choice(("bsf32", "lopy4")),
                        "t_cycle_s": rng.uniform(50.0, 1800.0),
                        "duty_limit": rng.choice((0.001, 0.01, rng.uniform(0.001, 1.0), 1.0)),
                        "sf": rng.choice((7, 9, 12))},
        "gateway": {"uplink_loss_p": rng.choice((0.0, rng.uniform(0.0, 0.9)))},
        "barometer": {"pressure_noise_pa": rng.choice((0.0, rng.uniform(0.0, 500.0))),
                      "temp_noise_c": rng.choice((0.0, rng.uniform(0.0, 5.0)))},
    })


def trace_sha256(config: simkit.SimConfig) -> str:
    """The sha256 of the trace file ``wxkit simulate --out`` writes."""
    digest = hashlib.sha256()
    simkit.write_trace(config, lambda text: digest.update(text.encode("ascii")))
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", type=int, default=320)
    parser.add_argument("--seed", type=int, default=20261019)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    combined = hashlib.sha256()
    for i in range(args.configs):
        sha = trace_sha256(random_config(rng))
        combined.update(sha.encode("ascii"))
        print(f"{i:>4} {sha}")
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
