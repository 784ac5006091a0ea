#!/usr/bin/env python3
"""Per-block arithmetic cost of the three models of `motion_model.MODELS`.

Prints the closed-form operation counts of `motion_model.op_count`.  A
second table puts each model's 16x16 op total next to measured times for
one 16x16 block over the 81 candidates of a +-4 search: the polar law
alone, which is all that the op count covers, and the whole mapping.  Both
are timed as compare runs them, through one reused workspace after a
warm-up call, on a block geometry whose shared trig is not computed yet
(median of repeated calls on this machine).
"""

import argparse
import dataclasses
import statistics
import sys
import time

import numpy as np

from geo360 import motion_model as mm

TIMED_BLOCK = 16
TIMED_OFFSETS = np.arange(-4.0, 5.0)  # 9 x 9 = 81 candidates
TIMED_REPEATS = 51


def map_microseconds(variant: str, scaling: str) -> tuple[float, float]:
    """Median wall times, in us, of the polar law and of one whole
    map_block_geometry_batch call."""
    width, height = 256, 128
    q = np.array([0.3, -0.5, 0.8])
    block = mm.BlockSpec(x0=96, y0=48, width=TIMED_BLOCK, height=TIMED_BLOCK)
    (geom,) = mm.prepare_block_geometry([block], q / np.linalg.norm(q), width, height)
    cfg = mm.GeodesicModelConfig(variant, scaling, delta=mm.default_delta(height))
    workspace = mm.Workspace()
    mm.map_block_geometry_batch(geom, TIMED_OFFSETS, TIMED_OFFSETS, cfg, workspace)
    law, mapping = [], []
    for _ in range(TIMED_REPEATS):
        # replace() copies the geometry without the trig its mappings share.
        cold = dataclasses.replace(geom)
        start = time.perf_counter()
        mm._model_theta(cold, TIMED_OFFSETS, cfg)
        law.append(time.perf_counter() - start)
        cold = dataclasses.replace(geom)
        start = time.perf_counter()
        mm.map_block_geometry_batch(cold, TIMED_OFFSETS, TIMED_OFFSETS, cfg, workspace)
        mapping.append(time.perf_counter() - start)
    return 1e6 * statistics.median(law), 1e6 * statistics.median(mapping)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="4,8,16,32,64",
                    help="comma-separated square block sizes")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    print("| block | model | trig | mul | div | add | total |")
    print("|------:|:------|-----:|----:|----:|----:|------:|")
    for n in sizes:
        for label, (variant, scaling) in mm.MODELS.items():
            table = mm.op_count(variant, scaling, n, n)
            print(f"| {n}x{n} | {label} | {table.trig} | {table.mul} "
                  f"| {table.div} | {table.add} | {table.total} |")

    print()
    print("per-pixel totals: orig 6/px + 5, gcg 4/px, gcl 5/px + 1")

    n = TIMED_BLOCK
    print()
    print(f"| model | {n}x{n} ops | polar law (us) "
          f"| mapping, {len(TIMED_OFFSETS) ** 2} candidates (us) | law share |")
    print("|:------|------:|------:|------:|------:|")
    for label, (variant, scaling) in mm.MODELS.items():
        ops = mm.op_count(variant, scaling, n, n).total
        law, mapping = map_microseconds(variant, scaling)
        print(f"| {label} | {ops} | {law:.0f} | {mapping:.0f} | {law / mapping:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
