#!/usr/bin/env python3
"""Per-block arithmetic cost of the three warp variants.

Prints the closed-form operation counts next to a tally from an
instrumented run of the actual kernel, so any drift between the table
and the code shows up immediately.  A second table puts each model's
16x16 op total next to the measured time of one 16x16 block mapping over
the 81 candidates of a +-4 search (median of repeated calls on this
machine).
"""

import argparse
import math
import statistics
import time

import numpy as np

from geo360 import motion_model as mm

VARIANTS = [
    ("original", "global", "orig"),
    ("gc", "global", "gcg"),
    ("gc", "local", "gcl"),
]
TIMED_BLOCK = 16
TIMED_OFFSETS = np.arange(-4.0, 5.0)  # 9 x 9 = 81 candidates
TIMED_REPEATS = 51


def map_microseconds(variant: str, scaling: str) -> float:
    """Median wall time of one map_block_geometry_batch call, in us."""
    width, height = 256, 128
    q = np.array([0.3, -0.5, 0.8])
    block = mm.BlockSpec(x0=96, y0=48, width=TIMED_BLOCK, height=TIMED_BLOCK)
    geom = mm.prepare_block_geometry(block, q / np.linalg.norm(q), width, height)
    cfg = mm.GeodesicModelConfig(variant, scaling, delta=math.pi / height)
    times = []
    for _ in range(TIMED_REPEATS):
        start = time.perf_counter()
        mm.map_block_geometry_batch(geom, TIMED_OFFSETS, TIMED_OFFSETS, cfg)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="4,8,16,32,64",
                    help="comma-separated square block sizes")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print("| block | model | trig | mul | div | add | total | instrumented |")
    print("|------:|:------|-----:|----:|----:|----:|------:|:-------------|")
    for n in sizes:
        for variant, scaling, label in VARIANTS:
            table = mm.op_count(variant, scaling, n, n)
            ran = mm.count_block_ops(variant, scaling, n, n)
            status = "match" if ran == table else f"MISMATCH {ran}"
            print(f"| {n}x{n} | {label} | {table.trig} | {table.mul} "
                  f"| {table.div} | {table.add} | {table.total} | {status} |")

    print()
    print("per-pixel totals: orig 6/px + 5, gcg 4/px, gcl 5/px + 1")

    n = TIMED_BLOCK
    print()
    print(f"| model | {n}x{n} ops | mapping, {len(TIMED_OFFSETS) ** 2} candidates (us) |")
    print("|:------|------:|------:|")
    for variant, scaling, label in VARIANTS:
        ops = mm.op_count(variant, scaling, n, n).total
        print(f"| {label} | {ops} | {map_microseconds(variant, scaling):.0f} |")


if __name__ == "__main__":
    main()
