#!/usr/bin/env python3
"""Camera-motion pipeline end to end on synthetic data.

Ground-truth dolly flow -> sparse eight-point estimate -> dense flow
refinement -> direction bitstream round trip.  Reports angular error at
each stage and the coded size.
"""

import argparse
import math
import sys

import numpy as np

from geo360 import cam_code, camera_est, geometry, video_io


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--width", type=int, default=256)
    ap.add_argument("--height", type=int, default=128)
    ap.add_argument("--frames", type=int, default=8)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--perturb-deg", type=float, default=3.0,
                    help="tilt applied to the refinement start point")
    args = ap.parse_args()

    res = video_io.synth_dolly(video_io.SynthConfig(
        width=args.width, height=args.height, frames=args.frames,
        step=args.step, depth_model="cylinder", seed=args.seed,
    ))
    pocs, truth = res.camera
    rng = np.random.default_rng(args.seed)

    refined = []
    print("frame  sparse_err_deg  refined_err_deg  objective")
    for poc, q_true, flow in zip(pocs.tolist(), truth, res.flows):
        s, s_m = camera_est.flow_to_pairs(flow, 4)
        q_sparse = camera_est.estimate_camera_motion(s, s_m)
        sparse_err = math.degrees(geometry.angle_between(q_sparse, q_true))

        # start refinement from a deliberately wrong direction
        e1, e2 = geometry.tangent_basis(q_sparse)
        a = rng.uniform(0.0, 2.0 * math.pi)
        tilt = math.radians(args.perturb_deg)
        q_init = (math.cos(tilt) * q_sparse
                  + math.sin(tilt) * (math.cos(a) * e1 + math.sin(a) * e2))
        q_fine = camera_est.flow_finetune(q_init, flow)
        fine_err = math.degrees(geometry.angle_between(q_fine, q_true))
        obj = camera_est.flow_alignment_objective(q_fine, flow)

        refined.append(q_fine)
        print(f"{poc:>5}  {sparse_err:>14.6f}  {fine_err:>15.6f}  {obj:.6f}")

    enc = cam_code.encode_stream(pocs, refined)
    dec = cam_code.decode_stream(enc.data)
    worst = max(
        geometry.angle_between(q, q_hat) for q, q_hat in zip(refined, dec.directions)
    )
    bits = 8 * len(enc.data)
    print(f"\ncoded {len(refined)} directions in {len(enc.data)} bytes "
          f"({bits / len(refined):.1f} bits/frame, "
          f"{enc.payload_bits} payload bits)")
    print(f"worst decode error {worst:.3e} rad")
    return 0


if __name__ == "__main__":
    sys.exit(main())
