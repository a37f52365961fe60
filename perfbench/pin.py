"""Regenerate ``perfbench/pins.json``: the digest of every pinned output.

Run from the repository root::

    python3 perfbench/pin.py

For each program seed it runs the cold pass of every scenario kind and
one live ward at the benchmark's sizes and records the result-payload
and event-log digests (about five minutes on a 2-core host).  Pins
change only when a result payload is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run as bench


def seed_digests(seed: int) -> dict:
    h = bench.Harness(bench.WORK_ROOT / f"pin-{seed}", {})
    try:
        bench.cold_pass(h, bench.FULL, seed, traced=False)
        bench.live_ward_once(h, bench.FULL, seed, traced=False)
    finally:
        shutil.rmtree(h.work, ignore_errors=True)
    if h.failed:
        raise SystemExit(f"seed {seed}: " + "; ".join(h.errors))
    return h.digests


def main() -> int:
    pins: dict = {}
    # Two seeds at a time: one child process per core.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for digests in pool.map(seed_digests, range(bench.PROGRAM_SEEDS)):
            pins.update(digests)
    bench.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {bench.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
