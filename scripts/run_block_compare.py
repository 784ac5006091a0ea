#!/usr/bin/env python3
"""Three-way block compensation shootout on a synthetic dolly sequence.

Renders a camera translating through a textured world, then competes a
translational block search against the two geodesic warp models on every
block of every frame pair.  Prints aggregate SAD per model and win shares
split by latitude band.
"""

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

from geo360 import cli


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--width", type=int, default=512)
    ap.add_argument("--height", type=int, default=256)
    ap.add_argument("--frames", type=int, default=16)
    ap.add_argument("--step", type=float, default=None,
                    help="camera advance per frame (default: one-pixel dolly)")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--block", default="32x32")
    ap.add_argument("--range", dest="srange", type=int, default=4)
    ap.add_argument("--variants", default="orig,gcg")
    ap.add_argument("--out-dir", default=None,
                    help="keep intermediate files here instead of a temp dir")
    return ap.parse_args()


def main():
    args = parse_args()
    step = args.step
    if step is None:
        # one texel of axial motion per frame at the equator
        step = 2.0 * math.tan(math.pi / args.height)

    if args.out_dir:
        work = Path(args.out_dir)
        work.mkdir(parents=True, exist_ok=True)
    else:
        tmp = tempfile.TemporaryDirectory(prefix="blockcmp_")
        work = Path(tmp.name)

    t0 = time.perf_counter()
    rc = cli.main([
        "synth", "--out", str(work / "seq.yuv"),
        "--camera-out", str(work / "cam.csv"),
        "--width", str(args.width), "--height", str(args.height),
        "--frames", str(args.frames), "--step", repr(step),
        "--depth-model", "cylinder", "--seed", str(args.seed),
    ])
    if rc:
        return rc
    t_synth = time.perf_counter() - t0
    print(f"synthesized {args.frames} frames {args.width}x{args.height} "
          f"(step {step:.6f}) in {t_synth:.1f}s", file=sys.stderr)

    t0 = time.perf_counter()
    rc = cli.main([
        "compare", "--input", str(work / "seq.yuv"),
        "--width", str(args.width), "--height", str(args.height),
        "--pixfmt", "yuv400", "--camera", str(work / "cam.csv"),
        "--block", args.block, "--range", str(args.srange), "--step", "1",
        "--variants", args.variants, "--out", str(work / "cmp.csv"),
    ])
    if rc:
        return rc
    print(f"search finished in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)

    rows = [line.split(",") for line in (work / "cmp.csv").read_text().splitlines()[1:]]
    # the model labels as compare wrote them, translational first
    agg = {cells[5]: float(cells[8]) for cells in rows if cells[0] == "aggregate"}
    labels = list(agg)
    bands = {"polar": {}, "mid": {}, "equator": {}}
    for cells in rows:
        if cells[0] != "block" or cells[5] != labels[0]:
            continue  # one row per block is enough for the winner column
        colat = abs(float(cells[4]) - math.pi / 2)
        band = ("equator" if colat < math.pi / 6
                else "mid" if colat < math.pi / 3 else "polar")
        tally = bands[band]
        tally[cells[9]] = tally.get(cells[9], 0) + 1

    print("\naggregate SAD (lower is better)")
    best = min(agg.values())
    for label in labels:
        mark = "  <-- best" if agg[label] == best else ""
        print(f"  {label:>14}: {agg[label]:>14.0f}{mark}")

    print("\nstrict block wins by latitude band")
    names = labels + ["tie"]
    print("  " + " ".join(f"{n:>14}" for n in ["band"] + names))
    for band in ("polar", "mid", "equator"):
        tally = bands[band]
        total = sum(tally.values())
        cells = [f"{band:>14}"]
        for n in names:
            share = f"{tally.get(n, 0) / total:.1%}" if total else "-"
            cells.append(f"{share:>14}")
        print("  " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
