"""Rewrite perfbench/pinned.json: the transcript digest and verdict counts of
each workload's first `prefix` sessions at the pinned seeds.

    python3 perfbench/pin.py

Run it only when the transcript format is changed on purpose; a performance
change must leave these bytes as they are.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = tuple(range(11)) + (run.HELD_OUT_SEED,)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    pins = {}
    for name in workloads.WORKLOADS:
        pins[name] = {}
        for seed in SEEDS:
            bench = run.setup(name, seed)
            try:
                loop = run.closed_loop(bench, 0)
            finally:
                shutil.rmtree(bench.workdir)
            if loop.failed:
                print(f"{name} seed {seed}: {loop.failures}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = {
                "sha256": loop.prefix_sha256,
                "verdicts": dict(sorted(loop.prefix_verdicts.items())),
            }
            print(name, seed, loop.prefix_sha256)
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
