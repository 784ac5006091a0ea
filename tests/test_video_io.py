import hashlib
import math
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geo360 import camera_est, cli, geometry, video_io
from geo360.camera_est import FlowField
from geo360.errors import DomainError, FormatError, Geo360Error, TruncationError
from geo360.mocomp import ErpFrame
from geo360.video_io import SequenceSpec, SynthConfig
from oracles import (
    ErpCoord,
    cart_to_sphere,
    erp_to_sphere,
    sphere_to_cart,
    sphere_to_erp,
    synth_direct,
)


# --- raw YUV -----------------------------------------------------------------


def test_yuv_8bit_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    spec = SequenceSpec(width=8, height=4, bit_depth=8, chroma=True)
    frames = [
        ErpFrame(
            width=8, height=4, bit_depth=8,
            y=rng.integers(0, 256, size=(4, 8), dtype=np.int64),
            cb=rng.integers(0, 256, size=(2, 4), dtype=np.int64),
            cr=rng.integers(0, 256, size=(2, 4), dtype=np.int64),
        )
        for _ in range(3)
    ]
    path = tmp_path / "seq.yuv"
    video_io.write_yuv(path, frames)
    assert path.stat().st_size == 3 * spec.frame_bytes
    back = video_io.read_yuv(path, spec)
    assert len(back) == 3
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.cb, b.cb)
        np.testing.assert_array_equal(a.cr, b.cr)


def test_yuv_10bit_little_endian(tmp_path):
    # a 10-bit sample is two bytes, low byte first: 0x22 0x01 -> 290
    path = tmp_path / "one.yuv"
    payload = struct.pack("<HHHH", 290, 0, 1023, 7)
    path.write_bytes(payload * 2)  # 2x2 luma + 1+1 chroma samples... no:
    # keep it luma-only to stay exact: 2x2 frame = 4 samples
    spec = SequenceSpec(width=2, height=2, bit_depth=10, chroma=False)
    frames = video_io.read_yuv(path, spec)
    assert len(frames) == 2
    assert frames[0].y[0, 0] == 290
    assert frames[0].y[1, 0] == 1023


def test_yuv_luma_only_round_trip(tmp_path):
    spec = SequenceSpec(width=16, height=8, bit_depth=8, chroma=False)
    y = np.arange(128, dtype=np.int32).reshape(8, 16)
    f = ErpFrame(width=16, height=8, bit_depth=8, y=y)
    path = tmp_path / "l.yuv"
    video_io.write_yuv(path, [f])
    back = video_io.read_yuv(path, spec)
    np.testing.assert_array_equal(back[0].y, y)
    assert back[0].cb is None


def test_yuv_bad_sizes(tmp_path):
    spec = SequenceSpec(width=8, height=4, bit_depth=8, chroma=False)
    empty = tmp_path / "empty.yuv"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        video_io.read_yuv(empty, spec)
    ragged = tmp_path / "ragged.yuv"
    ragged.write_bytes(b"\x00" * 33)
    with pytest.raises(FormatError):
        video_io.read_yuv(ragged, spec)


def test_yuv_max_frames(tmp_path):
    spec = SequenceSpec(width=8, height=4, bit_depth=8, chroma=False)
    path = tmp_path / "s.yuv"
    path.write_bytes(b"\x01" * (4 * spec.frame_bytes))
    assert len(video_io.read_yuv(path, spec, max_frames=2)) == 2


def test_sequence_spec_validation():
    with pytest.raises(DomainError):
        SequenceSpec(width=9, height=4, chroma=True)
    with pytest.raises(DomainError):
        SequenceSpec(width=8, height=4, bit_depth=12)


# --- .flo --------------------------------------------------------------------


def test_flo_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    flow = FlowField(du=rng.normal(size=(6, 9)), dv=rng.normal(size=(6, 9)))
    path = tmp_path / "f.flo"
    video_io.write_flo(path, flow)
    back = video_io.read_flo(path)
    np.testing.assert_allclose(back.du, flow.du, atol=1e-6)
    np.testing.assert_allclose(back.dv, flow.dv, atol=1e-6)


def test_flo_crafted_single_pixel(tmp_path):
    path = tmp_path / "one.flo"
    path.write_bytes(
        struct.pack("<fii", 202021.25, 1, 1) + struct.pack("<ff", 0.5, -1.25)
    )
    flow = video_io.read_flo(path)
    assert flow.du[0, 0] == 0.5
    assert flow.dv[0, 0] == -1.25


def test_flo_unknown_flow_becomes_nan(tmp_path):
    # Middlebury convention: |du| or |dv| above 1e9 means unknown flow
    du = np.arange(12, dtype=np.float64).reshape(3, 4) - 5.5
    dv = -0.25 * du
    du[0, 1], dv[1, 2] = 1e10, -1e10
    du[2, 3] = dv[2, 3] = np.inf
    du[2, 0] = 1e9  # at the threshold: still known
    path = tmp_path / "unknown.flo"
    video_io.write_flo(path, FlowField(du=du, dv=dv))
    back = video_io.read_flo(path)
    unknown = np.zeros((3, 4), dtype=bool)
    unknown[0, 1] = unknown[1, 2] = unknown[2, 3] = True
    assert np.array_equal(np.isnan(back.du), unknown)
    assert np.array_equal(np.isnan(back.dv), unknown)
    assert np.array_equal(back.du[~unknown], du.astype(np.float32)[~unknown])
    assert np.array_equal(back.dv[~unknown], dv.astype(np.float32)[~unknown])


def test_flo_signalling_nan_reads_as_nan_quietly(tmp_path):
    path = tmp_path / "snan.flo"
    snan = struct.pack("<I", 0x7F800001)
    path.write_bytes(struct.pack("<fii", video_io.FLO_MAGIC, 1, 1) + snan + snan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = video_io.read_flo(path)
    assert np.isnan(flow.du[0, 0]) and np.isnan(flow.dv[0, 0])


def test_flo_bad_magic(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\x00" * 8)
    with pytest.raises(FormatError):
        video_io.read_flo(path)


def test_flo_truncated(tmp_path):
    path = tmp_path / "short.flo"
    path.write_bytes(struct.pack("<fii", 202021.25, 4, 4) + b"\x00" * 10)
    with pytest.raises(TruncationError):
        video_io.read_flo(path)
    header_only = tmp_path / "h.flo"
    header_only.write_bytes(b"\x00\x00")
    with pytest.raises(TruncationError):
        video_io.read_flo(header_only)


# --- camera CSV / correspondences -----------------------------------------------


def test_camera_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    entries = []
    for poc in range(5):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        entries.append((poc, q))
    path = tmp_path / "cam.csv"
    video_io.write_camera_csv(path, [p for p, _ in entries], [q for _, q in entries])
    pocs, back = video_io.read_camera_csv(path)
    assert pocs.dtype == np.int64 and pocs.tolist() == list(range(5))
    assert back.dtype == np.float64 and back.shape == (5, 3)
    for (_, a), b in zip(entries, back):
        assert np.max(np.abs(a - b)) < 1e-9  # ten decimals kept


def test_camera_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("poc,x,y,z\n0,0,0,1\n")
    with pytest.raises(FormatError):
        video_io.read_camera_csv(path)
    for text in ("0,0,0,1\n", "", "\n \n"):
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            video_io.read_camera_csv(str(path))
        assert str(err.value) == f"video_io: {path} lacks the 'frame_index,qx,qy,qz' header"


def test_camera_csv_bad_rows(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("frame_index,qx,qy,qz\n0,0,0\n")
    with pytest.raises(FormatError):
        video_io.read_camera_csv(path)
    path.write_text("frame_index,qx,qy,qz\n0,0,0,inf\n")
    with pytest.raises(FormatError):
        video_io.read_camera_csv(path)
    path.write_text("frame_index,qx,qy,qz\n0,0,0,1\n1,0,nan,1\n2,0,0,-inf\n")
    with pytest.raises(FormatError, match="'1,0,nan,1'"):
        video_io.read_camera_csv(path)
    path.write_text("frame_index,qx,qy,qz\n99999999999999999999,0,0,1\n")
    with pytest.raises(FormatError, match="frame index outside int64"):
        video_io.read_camera_csv(path)
    # the whole text of each error, with the row stripped of the
    # whitespace around it
    for body, message in [
        ("0,0,0,1\n1,0,nan,1\n", "non-finite camera row '1,0,nan,1'"),
        ("0,x,0,1\n", "bad camera row '0,x,0,1'"),
        ("0,0,0,1,5\n", "bad camera row '0,0,0,1,5'"),
        ("0,0,0,1,\n", "bad camera row '0,0,0,1,'"),
        ("1.5,0,0,1\n", "bad camera row '1.5,0,0,1'"),
        ("  0,x,0,1 \n", "bad camera row '0,x,0,1'"),
        (" \n2,0,0,1\n\t\n2,1,0,0\n", f"{path} lists frame 2 twice"),
        ("99999999999999999999,0,0,1\n", f"{path} has a frame index outside int64"),
    ]:
        path.write_text("frame_index,qx,qy,qz\n" + body)
        with pytest.raises(FormatError) as err:
            video_io.read_camera_csv(str(path))
        assert str(err.value) == "video_io: " + message, body


def test_camera_csv_repeated_frame(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("frame_index,qx,qy,qz\n3,0,0,1\n1,0,0,1\n\n3,1,0,0\n")
    with pytest.raises(FormatError, match="lists frame 3 twice"):
        video_io.read_camera_csv(path)


def test_camera_csv_empty_and_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n  frame_index,qx,qy,qz \n\n")
    pocs, q = video_io.read_camera_csv(path)
    assert pocs.shape == (0,) and q.shape == (0, 3)
    video_io.write_camera_csv(tmp_path / "none.csv", [], np.empty((0, 3)))
    assert (tmp_path / "none.csv").read_text() == "frame_index,qx,qy,qz\n"


def test_correspondences(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("# header comment\n1 2 3 4\n5 6 7 8  # trailing\n")
    quads = video_io.read_correspondences(path)
    assert quads.shape == (2, 4)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    assert video_io.read_correspondences(empty).shape == (0, 4)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(FormatError):
        video_io.read_correspondences(bad)


def _text_file(header: str, sep: str):
    """File contents for a text reader: arbitrary bytes, rows of short and
    long length with numbers, nan/inf and junk, and such rows with a byte
    that is not UTF-8."""
    cell = st.sampled_from(
        ["0", "1", "-0.5", "1e-3", "nan", "inf", "-inf", "1e999", "", "x", "#", ","]
    ) | st.text(max_size=5)
    rows = st.lists(st.lists(cell, max_size=7).map(sep.join), max_size=8)
    text = rows.map(lambda rs: "\n".join([header] + rs).encode())
    return st.one_of(
        st.binary(max_size=200),
        text,
        st.tuples(text, st.integers(0, 200)).map(
            lambda a: a[0][: a[1]] + b"\xff" + a[0][a[1] :]
        ),
    )


_READERS = {
    "camera_csv": (video_io.read_camera_csv, _text_file(video_io.CAMERA_CSV_HEADER, ",")),
    "correspondences": (video_io.read_correspondences, _text_file("# u1 v1 u2 v2", " ")),
    "rd_csv": (cli._read_rd_csv, _text_file("label,rate,quality", ",")),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_text_readers_raise_only_geo360_or_os_errors(reader, tmp_path_factory):
    read, contents = _READERS[reader]
    path = tmp_path_factory.mktemp(reader) / "input.txt"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(contents)
    def fuzz(data):
        path.write_bytes(data)
        try:
            read(str(path))
        except (Geo360Error, OSError):
            pass

    fuzz()


def _flo_file():
    """.flo contents: arbitrary bytes, and headers with the .flo magic (or
    not) and any int32 width and height, followed by arbitrary bytes or by
    exactly the declared planes."""
    magic = st.sampled_from([video_io.FLO_MAGIC, 0.0, -video_io.FLO_MAGIC])
    side = st.integers(-(2**31), 2**31 - 1) | st.integers(-1, 5)
    header = st.tuples(magic, side, side).map(lambda h: struct.pack("<fii", *h))
    exact = st.tuples(magic, st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda h: st.binary(min_size=8 * h[1] * h[2], max_size=8 * h[1] * h[2]).map(
            lambda body: struct.pack("<fii", *h) + body
        )
    )
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(header, st.binary(max_size=64)).map(lambda hb: hb[0] + hb[1]),
        exact,
    )


_SPECS = st.builds(
    SequenceSpec,
    width=st.sampled_from([2, 4, 6]),
    height=st.sampled_from([2, 4]),
    bit_depth=st.sampled_from([8, 10]),
    chroma=st.booleans(),
)


def test_flo_reader_raises_only_geo360_or_os_errors(tmp_path_factory):
    path = tmp_path_factory.mktemp("flo") / "input.flo"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_flo_file())
    def fuzz(data):
        path.write_bytes(data)
        try:
            video_io.read_flo(str(path))
        except (Geo360Error, OSError):
            pass

    fuzz()


def test_yuv_reader_raises_only_geo360_or_os_errors(tmp_path_factory):
    path = tmp_path_factory.mktemp("yuv") / "input.yuv"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(max_size=160), _SPECS, st.none() | st.integers(-1, 3))
    def fuzz(data, spec, max_frames):
        path.write_bytes(data)
        try:
            video_io.read_yuv(str(path), spec, max_frames)
        except (Geo360Error, OSError):
            pass

    fuzz()


def test_flo_forged_size_is_rejected_before_reading(tmp_path):
    # a header declaring 4096x4096 flow (128 MiB of planes) on a 20-byte file
    path = tmp_path / "forged.flo"
    path.write_bytes(struct.pack("<fii", video_io.FLO_MAGIC, 4096, 4096) + b"\x00" * 8)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            video_io.read_flo(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20



def _fifo_fed_with(tmp_path, data: bytes):
    """A named pipe that a thread fills with data once a reader opens it."""
    fifo = tmp_path / "pipe.flo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return fifo, thread


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_flo_reads_through_a_pipe(tmp_path):
    # a pipe's size reads 0; its body spans more than one read chunk
    rng = np.random.default_rng(3)
    flow = FlowField(du=rng.normal(size=(300, 500)), dv=rng.normal(size=(300, 500)))
    regular = tmp_path / "f.flo"
    video_io.write_flo(regular, flow)
    assert regular.stat().st_size > video_io._FLO_CHUNK
    fifo, thread = _fifo_fed_with(tmp_path, regular.read_bytes())
    back = video_io.read_flo(str(fifo))
    thread.join(5.0)
    expect = video_io.read_flo(regular)
    assert np.array_equal(back.du, expect.du) and np.array_equal(back.dv, expect.dv)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_flo_forged_size_through_a_pipe_reads_only_what_arrives(tmp_path):
    head = struct.pack("<fii", video_io.FLO_MAGIC, 4096, 4096)
    fifo, thread = _fifo_fed_with(tmp_path, head + b"\x00" * 8)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError):
            video_io.read_flo(str(fifo))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    thread.join(5.0)
    assert peak < 4 << 20


# --- synthetic sequences ------------------------------------------------------------


def test_synth_lengths_and_seed_are_bounded():
    for kw in (dict(seed=-1), dict(depth_model="cylinder", frames=3, step=6e99)):
        with pytest.raises(DomainError):
            SynthConfig(**kw)
    # at the bound the ray geometry stays finite and warns of nothing
    bounds = [dict(depth_model="cylinder", frames=3, step=5e99)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kw in bounds:
            out = video_io.synth_dolly(SynthConfig(width=32, height=16, **kw))
            assert all(np.isfinite(f.du).all() and np.isfinite(f.dv).all() for f in out.flows)


def test_synth_config_validation():
    with pytest.raises(DomainError):
        SynthConfig(depth_model="torus")
    with pytest.raises(DomainError):
        SynthConfig(step=-0.1)
    with pytest.raises(DomainError):
        # camera path would pierce the sphere shell
        SynthConfig(frames=200, step=0.01)
    with pytest.raises(DomainError):
        video_io.synth_dolly(SynthConfig(direction=(0.0, 0.0, 0.0)))


def test_synth_deterministic():
    cfg = SynthConfig(width=64, height=32, frames=3, step=0.01, seed=12)
    a = video_io.synth_dolly(cfg)
    b = video_io.synth_dolly(cfg)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.y, fb.y)
    for xa, xb in zip(a.flows, b.flows):
        np.testing.assert_array_equal(xa.du, xb.du)
    c = video_io.synth_dolly(SynthConfig(width=64, height=32, frames=3, step=0.01, seed=13))
    assert not np.array_equal(a.frames[0].y, c.frames[0].y)


def test_synth_zero_step_is_static():
    cfg = SynthConfig(width=64, height=32, frames=3, step=0.0, seed=3)
    out = video_io.synth_dolly(cfg)
    np.testing.assert_array_equal(out.frames[0].y, out.frames[1].y)
    for flow in out.flows:
        # projection round trip leaves ~1e-14 of float residue
        assert np.max(np.abs(flow.du)) < 1e-9
        assert np.max(np.abs(flow.dv)) < 1e-9


def test_synth_camera_rows():
    cfg = SynthConfig(width=64, height=32, frames=4, step=0.02, seed=0,
                      direction=(0.0, 0.0, 1.0))
    out = video_io.synth_dolly(cfg)
    pocs, directions = out.camera
    assert pocs.dtype == np.int64 and pocs.tolist() == [1, 2, 3]
    assert directions.dtype == np.float64 and directions.shape == (3, 3)
    assert np.allclose(directions, [0.0, 0.0, 1.0])


def test_synth_flow_matches_projection_geometry():
    # independent oracle: re-derive the flow of a few pixels from the world
    # model (static unit sphere shell, camera moved along +z by `step`)
    cfg = SynthConfig(width=128, height=64, frames=2, step=0.03, seed=5)
    out = video_io.synth_dolly(cfg)
    flow = out.flows[0]
    for (u, v) in ((10, 20), (64, 32), (100, 40), (30, 50)):
        s = sphere_to_cart(
            erp_to_sphere(
                ErpCoord(u=float(u), v=float(v), width=128, height=64)
            )
        )
        # ray from the origin camera hits the unit shell at s; the
        # second camera sits at step * z
        x = s - np.array([0.0, 0.0, cfg.step])
        s2 = x / np.linalg.norm(x)
        p2 = cart_to_sphere(s2)
        c2 = sphere_to_erp(p2, 128, 64)
        du = c2.u - u
        dv = c2.v - v
        du -= 128.0 * round(du / 128.0)
        assert abs(flow.du[v, u] - du) < 1e-6
        assert abs(flow.dv[v, u] - dv) < 1e-6


def test_synth_flow_feeds_camera_estimation():
    cfg = SynthConfig(width=128, height=64, frames=2, step=0.02, seed=6,
                      direction=(0.2, -0.3, 0.93))
    out = video_io.synth_dolly(cfg)
    q_true = np.asarray(cfg.direction, dtype=float)
    q_true /= np.linalg.norm(q_true)
    s, s_m = camera_est.flow_to_pairs(out.flows[0], 4)
    est = camera_est.estimate_camera_motion(s, s_m)
    assert math.degrees(geometry.angle_between(est, q_true)) < 0.2


# --- synth in row bands -------------------------------------------------------------


def _synth_cfg(**kw):
    base = dict(width=120, height=60, frames=3, step=0.02, seed=4,
                direction=(0.3, -0.2, 0.9))
    return SynthConfig(**{**base, **kw})


def _synth_digest(result):
    h = hashlib.sha256()
    for f in result.frames:
        h.update(np.ascontiguousarray(f.y).tobytes())
    for flow in result.flows:
        h.update(flow.du.tobytes())
        h.update(flow.dv.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("components", [1, 40])
@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("world", ["cylinder", "sphere"])
def test_synth_output_does_not_depend_on_band_height(monkeypatch, world, bit_depth, components):
    monkeypatch.setattr(video_io, "_TEXTURE_COMPONENTS", components)
    cfg = _synth_cfg(depth_model=world, bit_depth=bit_depth)
    runs = []
    # one row per band; the whole frame in one band; the default bands
    for budget in (1, 1 << 40, video_io._BAND_BYTES):
        monkeypatch.setattr(video_io, "_BAND_BYTES", budget)
        runs.append(video_io.synth_dolly(cfg))
    rows, whole, default = runs
    for other in (whole, default):
        for fa, fb in zip(rows.frames, other.frames):
            assert fa.y.dtype == fb.y.dtype
            np.testing.assert_array_equal(fa.y, fb.y)
        for xa, xb in zip(rows.flows, other.flows):
            np.testing.assert_array_equal(xa.du, xb.du)
            np.testing.assert_array_equal(xa.dv, xb.dv)


@pytest.mark.parametrize("components", [40, 160])
@pytest.mark.parametrize("world", ["cylinder", "sphere"])
def test_synth_memory_does_not_grow_with_texture(monkeypatch, world, components):
    # Whole-frame texture terms would peak at 28-128 MB here; the band
    # buffers take 0.9-1.8 MB.  A first render in the process also traces
    # numpy's one-time set-up.
    monkeypatch.setattr(video_io, "_TEXTURE_COMPONENTS", components)
    video_io.synth_dolly(SynthConfig(width=16, height=8, depth_model=world))
    cfg = SynthConfig(width=256, height=128, frames=3, step=0.02, depth_model=world,
                      direction=(0.3, -0.2, 0.9))
    tracemalloc.start()
    try:
        result = video_io.synth_dolly(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(f.y.nbytes for f in result.frames)
    kept += sum(flow.du.nbytes + flow.dv.nbytes for flow in result.flows)
    assert peak - kept < 3e6


def test_synth_golden_digest():
    # frames and flows as rendered before synth worked in row bands
    result = video_io.synth_dolly(_synth_cfg(depth_model="cylinder"))
    assert _synth_digest(result) == (
        "c4fd53c779e66bea06642056ed156fee3fe471c57bececfb508ea5294fa5fbcd"
    )


# --- band-outer synth against the frame-outer renderer ------------------------------


def _benchmark_cfg(seed, bit_depth):
    """The benchmark's dolly: 256x128, 6 frames of 0.0245 through the unit
    cylinder along an axis 40 to 140 degrees from +z."""
    rng = np.random.default_rng(seed)
    theta, phi = math.radians(rng.uniform(40.0, 140.0)), rng.uniform(-math.pi, math.pi)
    axis = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    return SynthConfig(width=256, height=128, frames=6, step=0.0245, depth_model="cylinder",
                       direction=axis, bit_depth=bit_depth, seed=seed)


def _assert_same_synth(a, b):
    assert len(a.frames) == len(b.frames) and len(a.flows) == len(b.flows)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.y.dtype == fb.y.dtype
        assert fa.y.tobytes() == fb.y.tobytes()
    for xa, xb in zip(a.flows, b.flows):
        assert xa.du.tobytes() == xb.du.tobytes()
        assert xa.dv.tobytes() == xb.dv.tobytes()


def _log_results(monkeypatch, name, log):
    """Append a copy of each result of _CylinderTexture.<name> to log."""
    method = getattr(video_io._CylinderTexture, name)

    def logged(self, *args):
        out = method(self, *args)
        log.append(np.array(out))
        return out

    monkeypatch.setattr(video_io._CylinderTexture, name, logged)


def _render_both(monkeypatch, cfg):
    """synth_dolly and synth_direct of a cylinder dolly, and the largest
    gap between an angle-addition texture value and the direct sum, over
    its band's tolerance."""
    tols, fast, direct = [], [], []
    _log_results(monkeypatch, "tolerance", tols)
    _log_results(monkeypatch, "shifted", fast)
    new = video_io.synth_dolly(cfg)
    monkeypatch.undo()
    _log_results(monkeypatch, "sample", direct)
    old = synth_direct(cfg)
    monkeypatch.undo()
    bands, frames = len(tols), cfg.frames
    # every band of every frame took the angle-addition path
    assert len(fast) == len(direct) == bands * frames
    # synth_dolly renders band by band, synth_direct frame by frame
    worst = max(
        np.abs(fast[b * frames + m] - direct[m * bands + b]).max() / tols[b]
        for b in range(bands) for m in range(frames)
    )
    return new, old, worst


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_synth_matches_frame_outer_renderer(monkeypatch, bit_depth):
    worst = 0.0
    for seed in range(20):
        new, old, gap = _render_both(monkeypatch, _benchmark_cfg(seed, bit_depth))
        _assert_same_synth(new, old)
        worst = max(worst, gap)
    # Rounding stays far inside the tolerance, so it is not the guard
    # that keeps the bytes.
    assert worst < 0.1


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_synth_long_travel_matches_frame_outer_renderer(monkeypatch, bit_depth):
    # 64 frames at the showdown's step: phases grow with the camera travel
    cfg = SynthConfig(width=128, height=64, frames=64, step=2.0 * math.tan(math.pi / 256),
                      depth_model="cylinder", direction=(0.3, -0.2, 0.9),
                      bit_depth=bit_depth, seed=11)
    new, old, gap = _render_both(monkeypatch, cfg)
    _assert_same_synth(new, old)
    assert gap < 0.1


def test_synth_guard_takes_the_direct_sum_past_half(monkeypatch):
    # A step of 1e97 radii shifts phases by ~1e98 rad, where the
    # angle-addition value carries no digits; the tolerance passes 0.5 and
    # every pixel takes the direct sum.
    cfg = SynthConfig(width=64, height=32, frames=3, step=1e97,
                      depth_model="cylinder", direction=(0.3, -0.2, 0.9))
    want = synth_direct(cfg)
    tols = []
    _log_results(monkeypatch, "tolerance", tols)
    _assert_same_synth(video_io.synth_dolly(cfg), want)
    assert min(tols) >= 0.5
    monkeypatch.setattr(video_io._CylinderTexture, "tolerance", lambda self, dz, reach: 0.0)
    unguarded = video_io.synth_dolly(cfg)
    assert any(a.y.tobytes() != b.y.tobytes() for a, b in zip(unguarded.frames, want.frames))


def test_synth_guard_absorbs_any_error_below_the_tolerance(monkeypatch):
    # Push every angle-addition value 9e-4 up and claim a 1e-3 tolerance:
    # the pixels this could round the other way lie within 1e-3 of a
    # half-integer, so their rows must take the direct sum.
    cfg = _benchmark_cfg(0, 8)
    want = synth_direct(cfg)
    shifted = video_io._CylinderTexture.shifted
    monkeypatch.setattr(video_io._CylinderTexture, "shifted",
                        lambda self, *args: shifted(self, *args) + 9e-4)
    monkeypatch.setattr(video_io._CylinderTexture, "tolerance", lambda self, dz, reach: 1e-3)
    direct = []
    _log_results(monkeypatch, "sample", direct)
    _assert_same_synth(video_io.synth_dolly(cfg), want)
    # some rows, not all, took the direct sum
    assert 0 < sum(len(rows) for rows in direct) < cfg.height * cfg.frames


def test_trig_within_the_ulps_the_tolerance_assumes():
    # The tolerance takes np.tan, np.sin and np.cos within 4 ulp of exact.
    # libm's math.* is within 1 ulp, so numpy must stay within 3 ulp of it:
    # tan on fill_basis's half phases, up to and just past pi/2, and sine
    # and cosine on the reduced range and on the direct sum's phases.
    rng = np.random.default_rng(27)
    half = math.pi / 2
    cases = [
        (np.tan, math.tan, np.concatenate([
            rng.uniform(-half, half, 20000),
            half - rng.uniform(0.0, 1e-6, 5000),
            rng.uniform(-1e-3, 1e-3, 5000),
            np.nextafter(half, 2.0) + rng.uniform(0.0, 1e-12, 2000),
        ])),
        (np.sin, math.sin, rng.uniform(-math.pi, math.pi, 20000)),
        (np.cos, math.cos, rng.uniform(-math.pi, math.pi, 20000)),
        (np.sin, math.sin, rng.uniform(-1e4, 1e4, 20000)),
        (np.cos, math.cos, rng.uniform(-1e4, 1e4, 20000)),
    ]
    for fast, exact, x in cases:
        for sign in (1.0, -1.0):
            want = [exact(a) for a in (sign * x).tolist()]
            gap = np.abs(fast(sign * x) - want) / [math.ulp(w) for w in want]
            assert gap.max() <= 3.0, fast.__name__


def _basis_gaps(monkeypatch, cfg):
    """For each band of cfg's render: the largest per-element gap, hypot of
    sine and cosine, between fill_basis and np.sin, np.cos of the same
    phase, over the (M + 18) eps that tolerance charges for it; and the
    band's largest |D|."""
    reach, out = (cfg.frames - 1) * cfg.step, []
    fill_basis = video_io._CylinderTexture.fill_basis

    def logged(self, phi, dz, sin_x, cos_x):
        fill_basis(self, phi, dz, sin_x, cos_x)
        x = phi[..., None] * self.harm
        x += dz[..., None] * self.omega
        x += self.phase
        gap = np.hypot(sin_x - np.sin(x), cos_x - np.cos(x)).max()
        charged = (self.phase_bound(dz, reach) + 18.0) * np.finfo(np.float64).eps
        out.append((gap / charged, np.abs(dz).max()))

    monkeypatch.setattr(video_io._CylinderTexture, "fill_basis", logged)
    video_io.synth_dolly(cfg)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("cfg", [
    # dolly along +z: the pole rows' rays run nearly along the axis, |D| ~ 81
    SynthConfig(width=256, height=128, frames=6, step=0.0245, depth_model="cylinder"),
    # 64 frames at the showdown's step: the reach adds to every phase bound
    SynthConfig(width=128, height=64, frames=64, step=2.0 * math.tan(math.pi / 256),
                depth_model="cylinder", direction=(0.3, -0.2, 0.9), seed=11),
], ids=["pole-rows", "long-travel"])
def test_fill_basis_within_its_tolerance_term(monkeypatch, cfg):
    gaps = _basis_gaps(monkeypatch, cfg)
    assert max(gap for gap, _ in gaps) < 1.0
    if cfg.frames == 6:
        assert max(d for _, d in gaps) > 80.0


def test_fill_basis_allocates_no_band_sized_temporary():
    # A default band at 256 wide.  numpy's broadcast products take iterator
    # buffers of a fixed 8192 elements, 128 KiB at most; a temporary the
    # size of a band term would take the band's 480 KiB.
    width = 256
    rows = video_io._BAND_BYTES // (8 * width * 40)
    texture = video_io._CylinderTexture(np.random.default_rng(0), 40, 255)
    rng = np.random.default_rng(1)
    phi = rng.uniform(-math.pi, math.pi, (rows, width))
    dz = rng.uniform(-80.0, 80.0, (rows, width))
    sin_x, cos_x = np.empty((2, rows, width, 40))
    texture.fill_basis(phi, dz, sin_x, cos_x)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        texture.fill_basis(phi, dz, sin_x, cos_x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sin_x.nbytes / 2


def test_synth_memory_does_not_grow_with_frames():
    # The band buffers serve every frame of their band; none is kept per frame.
    # A first render in the process also traces numpy's one-time set-up.
    video_io.synth_dolly(SynthConfig(width=16, height=8, depth_model="cylinder"))
    extra = []
    for frames in (3, 6, 12):
        cfg = SynthConfig(width=256, height=128, frames=frames, step=0.02,
                          depth_model="cylinder", direction=(0.3, -0.2, 0.9))
        tracemalloc.start()
        try:
            result = video_io.synth_dolly(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(f.y.nbytes for f in result.frames)
        kept += sum(flow.du.nbytes + flow.dv.nbytes for flow in result.flows)
        extra.append(peak - kept)
    assert max(extra) - min(extra) < 64 * 1024
