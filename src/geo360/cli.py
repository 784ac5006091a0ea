"""Command line front end.

Subcommands:

    synth             render a synthetic dolly sequence (+ flow, camera CSV)
    warp              predict one frame from another with fixed q, t
    compare           per-block motion search shoot-out over a sequence
    camest            per-frame camera direction from flow or correspondences
    camcode encode    camera CSV -> coded stream, with a bit report
    camcode decode    coded stream -> reconstructed camera CSV
    metrics wspsnr    sphere-weighted PSNR between two YUV files
    metrics bdrate    BD-rate between two rate/quality CSVs
    metrics opcount   per-block arithmetic cost of a model

All numeric CSV output uses fixed 6-decimal formatting so runs diff cleanly.
Errors from the library, and files that cannot be opened or written, are
reported on stderr as `error: <module>: ...` and turn into exit code 1;
argparse usage problems keep its conventional exit code 2.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Iterator

import numpy as np

from . import cam_code, camera_est, geometry, metrics, mocomp, motion_model, video_io
from .errors import Geo360Error
from .motion_model import BlockSpec, GeodesicModelConfig, MotionVector2D

# The one CLI name of each geodesic model: GeodesicModelConfig's (variant,
# scaling).
_VARIANTS = {
    "orig": ("original", "global"),
    "gcg": ("gc", "global"),
    "gcl": ("gc", "local"),
}

# The longest file name (one path component) a file system accepts.
_NAME_MAX = 255


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{text!r} is not x,y,z")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not x,y,z") from exc
    if not (np.isfinite(v).all() and v.any()):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and non-zero")
    # Scaled by the power of two of the largest component, the norm can
    # neither overflow nor underflow, and the quotient keeps its bits.
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
    return v / np.linalg.norm(v)


def _parse_vec2(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not tu,tv")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not tu,tv") from exc


def _parse_size(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not WxH") from exc


def _model_config(variant: str, height: int) -> GeodesicModelConfig:
    """The model named `variant` with one ERP row per motion-vector unit."""
    name, scaling = _VARIANTS[variant]
    return GeodesicModelConfig(name, scaling, motion_model.default_delta(height))


def _add_yuv_flags(p: argparse.ArgumentParser):
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--bitdepth", type=int, default=8, choices=(8, 10))
    p.add_argument(
        "--pixfmt", default="yuv420p", choices=("yuv420p", "yuv400"),
        help="planar 4:2:0 (default) or luma-only",
    )


def _spec_from_args(args) -> video_io.SequenceSpec:
    return video_io.SequenceSpec(
        width=args.width,
        height=args.height,
        bit_depth=args.bitdepth,
        chroma=(args.pixfmt == "yuv420p"),
    )


def _write_or_print(path: str | None, text: str, note: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(note)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="geo360")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic dolly sequence")
    p.add_argument("--out", required=True, help="output YUV path (luma-only)")
    p.add_argument("--camera-out", help="camera direction CSV path")
    p.add_argument(
        "--flow-out",
        help="printf-style .flo pattern with one %%d, e.g. flow_%%03d.flo",
    )
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--frames", type=int, default=2)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--depth", type=float, default=1.0)
    p.add_argument("--depth-model", default="sphere", choices=("sphere", "cylinder"))
    p.add_argument("--q", type=_parse_vec3, default="0,0,1")
    p.add_argument("--bitdepth", type=int, default=8, choices=(8, 10))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("warp", help="predict a frame with fixed q and t")
    p.add_argument("--input", required=True, help="YUV holding both frames")
    p.add_argument("--out", required=True, help="predicted frame (YUV)")
    p.add_argument("--stats", help="per-block SAD CSV (default stdout)")
    _add_yuv_flags(p)
    p.add_argument("--ref-index", type=int, default=0)
    p.add_argument("--cur-index", type=int, help="default ref-index + 1")
    p.add_argument("--q", type=_parse_vec3, required=True)
    p.add_argument("--t", type=_parse_vec2, required=True)
    p.add_argument("--block", type=_parse_size, default="16x16")
    p.add_argument("--variant", default="gcg", choices=tuple(_VARIANTS))
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("compare", help="per-block model comparison over a sequence")
    p.add_argument("--input", required=True)
    _add_yuv_flags(p)
    p.add_argument("--camera", required=True, help="camera CSV, poc = current frame")
    p.add_argument("--max-frames", type=int)
    p.add_argument("--block", type=_parse_size, default="16x16")
    p.add_argument("--range", type=float, default=4.0, dest="search_range")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument(
        "--variants", default="orig,gcg",
        help="comma list out of orig,gcg,gcl (baseline always included)",
    )
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("camest", help="per-frame camera direction estimates")
    p.add_argument(
        "--flow",
        help=".flo file, or printf-style pattern with one %%d plus --count",
    )
    p.add_argument("--count", type=int, help="number of flow files in the pattern")
    p.add_argument("--pairs", help="correspondence text file (u1 v1 u2 v2)")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--finetune", action="store_true")
    p.add_argument("--poc", type=int, default=1, help="frame index for single inputs")
    p.add_argument("--truth", help="camera CSV; adds an angular_error_deg column")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_camest)

    p = sub.add_parser("camcode", help="camera direction codec")
    csub = p.add_subparsers(dest="camcode_command", required=True)
    pe = csub.add_parser("encode")
    pe.add_argument("--camera", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--eg-order", type=int, default=cam_code.DEFAULT_EG_ORDER)
    pe.add_argument("--frac-bits", type=int, default=cam_code.DEFAULT_FRAC_BITS)
    pe.set_defaults(func=_cmd_camcode_encode)
    pd = csub.add_parser("decode")
    pd.add_argument("--input", required=True)
    pd.add_argument("--out", required=True)
    pd.add_argument("--eg-order", type=int, default=cam_code.DEFAULT_EG_ORDER)
    pd.add_argument("--frac-bits", type=int, default=cam_code.DEFAULT_FRAC_BITS)
    pd.set_defaults(func=_cmd_camcode_decode)

    p = sub.add_parser("metrics", help="quality / rate / complexity numbers")
    msub = p.add_subparsers(dest="metrics_command", required=True)
    pw = msub.add_parser("wspsnr")
    pw.add_argument("--ref", required=True)
    pw.add_argument("--test", required=True)
    _add_yuv_flags(pw)
    pw.add_argument("--chroma", action="store_true", help="6:1:1 YUV mix")
    pw.add_argument("--max-frames", type=int)
    pw.set_defaults(func=_cmd_wspsnr)
    pb = msub.add_parser("bdrate")
    pb.add_argument("--anchor", required=True, help="CSV with [label,]rate,quality rows")
    pb.add_argument("--test", required=True)
    pb.add_argument(
        "--camera-rate", type=float, default=0.0,
        help="side-channel rate buried in every test point",
    )
    pb.set_defaults(func=_cmd_bdrate)
    po = msub.add_parser("opcount")
    po.add_argument("--variant", default="gcg", choices=tuple(_VARIANTS))
    po.add_argument("--block", type=_parse_size, required=True, help="M x N")
    po.set_defaults(func=_cmd_opcount)

    return top


def _pattern_names(pattern: str, count: int, flag: str) -> Iterator[str]:
    """File names of frames 0 .. count-1 from a printf-style pattern, made
    one at a time.

    The pattern must hold exactly one integer conversion (d, i, u, o, x or
    X, with optional flags, width and precision) and no other `%` but `%%`,
    so every index formats to a different name.  A width or precision
    above _NAME_MAX is refused before any name is made: it could only give
    a name no file system accepts, and its text grows with the number.
    """
    rest = pattern.replace("%%", "")
    # width and precision without their leading zeros: the flags take the
    # width's, and 0* the precision's
    field = re.search(r"%[-+ #0]*([0-9]*)(?:\.0*([0-9]*))?[diouxX]", rest)
    if rest.count("%") != 1 or not field:
        raise Geo360Error(f"cli: {flag} needs one integer placeholder such as %03d")
    if any(len(d) > 3 or int(d or 0) > _NAME_MAX for d in field.groups("")):
        raise Geo360Error(
            f"cli: {flag} width or precision is above {_NAME_MAX}, the longest file name"
        )
    return map(pattern.__mod__, range(count))


def _cmd_synth(args) -> int:
    flow_names = (
        _pattern_names(args.flow_out, args.frames, "--flow-out")
        if args.flow_out else []
    )
    cfg = video_io.SynthConfig(
        width=args.width,
        height=args.height,
        frames=args.frames,
        step=args.step,
        depth=args.depth,
        depth_model=args.depth_model,
        direction=tuple(np.asarray(args.q, dtype=float)),
        bit_depth=args.bitdepth,
        seed=args.seed,
    )
    result = video_io.synth_dolly(cfg)
    video_io.write_yuv(args.out, result.frames)
    print(f"wrote {len(result.frames)} frames to {args.out} (luma-only)")
    if args.camera_out:
        video_io.write_camera_csv(
            args.camera_out,
            [poc for poc, _ in result.camera], [q for _, q in result.camera],
        )
        print(f"wrote {len(result.camera)} camera rows to {args.camera_out}")
    if args.flow_out:
        for name, flow in zip(flow_names, result.flows):
            video_io.write_flo(name, flow)
        print(f"wrote {len(result.flows)} flow fields")
    return 0


def _cmd_warp(args) -> int:
    spec = _spec_from_args(args)
    cur_index = args.cur_index if args.cur_index is not None else args.ref_index + 1
    last = max(args.ref_index, cur_index)
    if min(args.ref_index, cur_index) < 0:
        raise Geo360Error("cli: frame index outside the sequence")
    frames = video_io.read_yuv(args.input, spec, max_frames=last + 1)
    if last >= len(frames):
        raise Geo360Error("cli: frame index outside the sequence")
    ref, cur = frames[args.ref_index], frames[cur_index]
    cfg = _model_config(args.variant, args.height)
    bw, bh = args.block
    blocks = mocomp.tile_blocks(args.width, args.height, bw, bh)
    t = MotionVector2D(*args.t)

    peak = cur.max_value
    y = np.zeros_like(cur.y)
    cb = np.zeros_like(cur.cb) if cur.cb is not None else None
    cr = np.zeros_like(cur.cr) if cur.cr is not None else None
    lines = ["block_x0,block_y0,center_theta,sad,clamped"]
    total = 0.0
    preds = mocomp._predict_blocks(ref, cur, blocks, args.q, t, cfg)
    for block, pred in zip(blocks, preds):
        sl = (slice(block.y0, block.y0 + bh), slice(block.x0, block.x0 + bw))
        y[sl] = np.clip(np.rint(pred.block), 0, peak).astype(cur.y.dtype)
        if cb is not None and pred.cb is not None:
            csl = (
                slice(block.y0 // 2, (block.y0 + bh) // 2),
                slice(block.x0 // 2, (block.x0 + bw) // 2),
            )
            cb[csl] = np.clip(np.rint(pred.cb), 0, peak).astype(cur.y.dtype)
            cr[csl] = np.clip(np.rint(pred.cr), 0, peak).astype(cur.y.dtype)
        _, vc = block.center()
        theta_c = np.pi * (vc + 0.5) / args.height
        lines.append(
            f"{block.x0},{block.y0},{theta_c:.6f},{pred.sad:.6f},{pred.degenerate}"
        )
        total += pred.sad
    out_frame = mocomp.ErpFrame(
        width=cur.width, height=cur.height, bit_depth=cur.bit_depth,
        y=y, cb=cb, cr=cr,
    )
    video_io.write_yuv(args.out, [out_frame])
    _write_or_print(
        args.stats, "\n".join(lines) + "\n",
        f"wrote {len(blocks)} block rows to {args.stats}",
    )
    print(f"total sad: {total:.6f}")
    return 0


def _cmd_compare(args) -> int:
    spec = _spec_from_args(args)
    frames = video_io.read_yuv(args.input, spec, max_frames=args.max_frames)
    if len(frames) < 2:
        raise Geo360Error("cli: compare needs at least two frames")
    camera = dict(zip(*video_io.read_camera_csv(args.camera)))
    q_per_pair = []
    for m in range(len(frames) - 1):
        poc = m + 1
        if poc not in camera:
            raise Geo360Error(f"cli: camera CSV has no row for frame {poc}")
        q_per_pair.append(camera[poc])

    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    bad = sorted(set(names) - set(_VARIANTS))
    if bad:
        raise Geo360Error(f"cli: unknown variants {bad}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise Geo360Error(f"cli: variant {name} listed twice")
    configs = {name: _model_config(name, args.height) for name in names}

    bw, bh = args.block
    blocks = mocomp.tile_blocks(args.width, args.height, bw, bh)
    results = mocomp.compare_sequence(
        frames, blocks, q_per_pair, configs, args.search_range, args.step
    )

    labels = ["translational"] + names
    aggregate = {label: 0.0 for label in labels}
    lines = ["kind,poc,block_x0,block_y0,center_theta,model,t_u,t_v,sad,winner"]
    for m, rows in enumerate(results):
        poc = m + 1
        for row in rows:
            winner = mocomp.strict_winner(row) or "tie"
            for label in labels:
                outcome = row.outcomes[label]
                aggregate[label] += outcome.sad
                lines.append(
                    f"block,{poc},{row.block.x0},{row.block.y0},"
                    f"{row.center_theta:.6f},{label},{outcome.t.t_u:.6f},"
                    f"{outcome.t.t_v:.6f},{outcome.sad:.6f},{winner}"
                )
    for label in labels:
        lines.append(f"aggregate,,,,,{label},,,{aggregate[label]:.6f},")
    _write_or_print(
        args.out, "\n".join(lines) + "\n",
        f"wrote {len(frames) - 1} pairs x {len(blocks)} blocks to {args.out}",
    )
    for label in labels:
        print(f"aggregate sad {label}: {aggregate[label]:.6f}")
    return 0


def _cmd_camest(args) -> int:
    if not args.flow and not args.pairs:
        raise Geo360Error("cli: camest needs --flow or --pairs")

    estimates: list[tuple[int, np.ndarray]] = []
    if args.pairs:
        if args.width is None or args.height is None:
            raise Geo360Error("cli: --pairs needs --width and --height")
        quads = video_io.read_correspondences(args.pairs)
        s, s_m = camera_est.pixel_pairs_to_bearings(quads, args.width, args.height)
        estimates.append((args.poc, camera_est.estimate_camera_motion(s, s_m)))
        frames = []
    elif args.count is not None:
        if args.count < 1:
            raise Geo360Error(f"cli: --count {args.count} is below 1")
        frames = enumerate(_pattern_names(args.flow, args.count, "--flow"), start=1)
    elif "%" in args.flow:
        raise Geo360Error("cli: a --flow pattern needs --count")
    else:
        frames = [(args.poc, args.flow)]
    for poc, path in frames:
        try:
            flow = video_io.read_flo(path)
            s, s_m = camera_est.flow_to_pairs(flow, args.stride)
            q = camera_est.estimate_camera_motion(s, s_m)
            if args.finetune:
                q = camera_est.flow_finetune(q, flow, args.stride)
        except Geo360Error as exc:
            raise Geo360Error(f"cli: frame {poc}: {exc}") from exc
        estimates.append((poc, q))

    truth = dict(zip(*video_io.read_camera_csv(args.truth))) if args.truth else None
    lines = [video_io.CAMERA_CSV_HEADER + (",angular_error_deg" if truth else "")]
    for poc, q in estimates:
        row = f"{poc},{q[0]:.10f},{q[1]:.10f},{q[2]:.10f}"
        if truth is not None:
            if poc not in truth:
                raise Geo360Error(f"cli: truth CSV has no row for frame {poc}")
            err = np.degrees(geometry.angle_between(q, truth[poc]))
            row += f",{err:.6f}"
        lines.append(row)
        print(f"frame {poc}: " + row.split(",", 1)[1])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_camcode_encode(args) -> int:
    pocs, directions = video_io.read_camera_csv(args.camera)
    result = cam_code.encode_stream(
        pocs, directions, k=args.eg_order, frac_bits=args.frac_bits
    )
    with open(args.out, "wb") as fh:
        fh.write(result.data)
    sys.stdout.writelines(
        f"frame {poc}: {bits} bits\n"
        for poc, bits in video_io.text_rows(result.records["poc"], result.record_bits)
    )
    print(
        f"total: {8 * len(result.data)} bits ({len(result.data)} bytes), "
        f"{result.payload_bits} payload bits"
    )
    return 0


def _cmd_camcode_decode(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    result = cam_code.decode_stream(data, k=args.eg_order, frac_bits=args.frac_bits)
    video_io.write_camera_csv(args.out, result.records["poc"], result.directions)
    print(f"decoded {len(result.records)} records to {args.out}")
    return 0


def _cmd_wspsnr(args) -> int:
    spec = _spec_from_args(args)
    ref = video_io.read_yuv(args.ref, spec, max_frames=args.max_frames)
    test = video_io.read_yuv(args.test, spec, max_frames=args.max_frames)
    if len(ref) != len(test):
        raise Geo360Error(
            f"cli: {len(ref)} reference frames vs {len(test)} test frames"
        )
    values = [
        metrics.ws_psnr(r, t, chroma=args.chroma) for r, t in zip(ref, test)
    ]
    capped = [min(v, metrics.PSNR_CAP) for v in values]
    for i, v in enumerate(capped):
        print(f"frame {i}: {v:.6f} dB")
    print(f"average: {sum(capped) / len(capped):.6f} dB")
    return 0


def _read_rd_csv(path: str) -> metrics.RDCurve:
    """RD points, one per line: `label,rate,quality` or just `rate,quality`.

    Only the first non-empty row may be a header: a later row whose numbers
    do not parse is refused, so no point is dropped silently.
    """
    points = []
    rows = filter(None, (ln.strip() for ln in video_io.read_text_lines(path)))
    for i, ln in enumerate(rows):
        cells = ln.split(",")
        if len(cells) == 3:
            cells = cells[1:]
        if len(cells) != 2:
            raise Geo360Error(f"cli: malformed RD row {ln!r} in {path}")
        try:
            rate, quality = float(cells[0]), float(cells[1])
        except ValueError:
            if i:
                raise Geo360Error(f"cli: malformed RD row {ln!r} in {path}") from None
            continue  # header row
        points.append(metrics.RDPoint(rate=rate, quality=quality))
    return metrics.RDCurve(points=tuple(points))


def _cmd_bdrate(args) -> int:
    if not args.camera_rate >= 0.0:
        raise Geo360Error(f"cli: --camera-rate {args.camera_rate} is not a rate >= 0")
    anchor = _read_rd_csv(args.anchor)
    test = _read_rd_csv(args.test)
    value = metrics.bd_rate(anchor, test)
    print(f"bd-rate: {value:.6f} %")
    if args.camera_rate:
        adjusted = metrics.bd_rate(anchor, test.shifted(-args.camera_rate))
        print(f"bd-rate w/o camera bits: {adjusted:.6f} %")
    return 0


def _cmd_opcount(args) -> int:
    name, scaling = _VARIANTS[args.variant]
    bw, bh = args.block
    counts = motion_model.op_count(name, scaling, bw, bh)
    print(
        f"{args.variant} {bw}x{bh}: "
        f"trig={counts.trig} mul={counts.mul} div={counts.div} "
        f"add={counts.add} total={counts.total}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Geo360Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cli: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
