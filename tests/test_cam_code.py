import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import cam_code, geometry
from geo360.errors import DomainError, FormatError, Geo360Error, TruncationError
import oracles
from oracles import (
    SphericalPoint,
    dequantize_angle,
    eg_encode,
    pack_bits,
    record_string,
    signed_code,
    sphere_to_cart,
    write_bit,
    write_string,
)

Z = np.array([0.0, 0.0, 1.0])


# --- quantization ----------------------------------------------------------


def test_quantize_pi_at_24_bits():
    assert cam_code.quantize_angle(math.pi, 24) == 52707179


def test_quantize_ties_away_from_zero():
    scale = 2.0**-24
    assert cam_code.quantize_angle(1.5 * scale, 24) == 2
    assert cam_code.quantize_angle(-1.5 * scale, 24) == -2
    assert cam_code.quantize_angle(2.5 * scale, 24) == 3


def test_dequantize_inverts_on_grid():
    for raw in (-100000, -1, 0, 1, 31337):
        x = dequantize_angle(raw, 24)
        assert cam_code.quantize_angle(x, 24) == raw


def test_wrap_residual_range():
    assert cam_code.wrap_residual(math.pi) == math.pi
    assert math.isclose(cam_code.wrap_residual(-math.pi), math.pi)
    assert math.isclose(cam_code.wrap_residual(1.5 * math.pi), -0.5 * math.pi)
    assert cam_code.wrap_residual(0.0) == 0.0


# --- record parser ---------------------------------------------------------------


def test_bitstream_round_trip():
    # bits built as strings pack most significant first, zero padded, and
    # the record parser reads a record back from them, with the next
    # record's bits after it
    out = []
    write_string(out, "1011")
    write_bit(out, 1)
    write_string(out, "001101")
    assert pack_bits(out) == bytes([0b10111001, 0b10100000])
    out = []
    write_string(out, format(0xCAFE0001, "032b"))
    write_string(out, eg_encode(5, 3))
    write_bit(out, 1)  # the sign bit: -5
    write_string(out, eg_encode(0, 3))
    used = len("".join(out))
    assert used == 32 + 5 + 4
    write_string(out, "0" * (-used % 8) + "1011")
    data = pack_bits(out)
    assert cam_code._read_record(data, 0, 3) == (0xCAFE0001, -5, 0, 6)


def test_bitstream_truncation():
    # fewer than 4 bytes hold no poc, and a poc alone holds no code; a
    # record that starts after another fails the same way
    record = pack_bits(record_string(9, 0, 0, 18))
    for head in (b"", record):
        for tail in (b"", b"\xff", b"\xff" * 3):
            with pytest.raises(TruncationError, match="before a poc field"):
                cam_code._read_record(head + tail, len(head), 18)
        with pytest.raises(TruncationError, match="past end"):
            cam_code._read_record(head + b"\xff" * 4, len(head), 18)
        assert cam_code._read_record(head + record, len(head), 18) == (
            9, 0, 0, len(head) + len(record)
        )


@pytest.mark.parametrize("bad", ["1x2 ", "0_1", " 01", "01\n", "2", "0b1", "\u0661"])
def test_write_string_accepts_only_0_and_1(bad):
    out = []
    with pytest.raises(DomainError):
        write_string(out, bad)
    assert out == []
    with pytest.raises(DomainError):
        pack_bits(bad)


_write_op = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 1)),
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just("write_bits"), st.integers(0, (1 << n) - 1), st.just(n))
    ),
    st.tuples(st.just("write_string"), st.text(alphabet="01", max_size=40)),
    st.tuples(st.just("signed"), st.integers(-(1 << 30), 1 << 30)),
)


def _parsed(data, k, read):
    """Each record read(data, pos, k) gives from the start of data on,
    until the data ends or a record is truncated, which ends the list as
    "truncated"."""
    out, pos = [], 0
    while pos < len(data):
        try:
            record = read(data, pos, k)
        except TruncationError:
            return out + ["truncated"]
        out.append(record)
        pos = record[3]
    return out


def _oracle_read(data, pos, k):
    oracle = oracles.BitOracle(data)
    oracle.pos = 8 * pos
    return oracle.read_record(k)


@settings(max_examples=150, deadline=None)
@given(st.lists(_write_op, max_size=16), st.sampled_from([0, 1, 3, 18, 64]))
def test_bitstream_matches_bit_at_a_time_oracle(writes, k):
    # the package's record parser against records read one bit at a time:
    # bits as they come and signed codes, on the bytes and on every byte
    # prefix of them
    oracle = oracles.BitOracle()
    for op, *args in writes:
        if op == "signed":
            oracle.write_string(signed_code(args[0], k))
        else:
            getattr(oracle, op)(*args)
    raw = bytes(oracle.buf)
    for n in range(len(raw) + 1):
        assert _parsed(raw[:n], k, cam_code._read_record) == _parsed(raw[:n], k, _oracle_read)


# --- exp-golomb -----------------------------------------------------------------


def test_eg_order0_table():
    table = {0: "1", 1: "010", 2: "011", 3: "00100", 4: "00101"}
    for n, word in table.items():
        assert eg_encode(n, 0) == word


def test_eg_order1_table():
    table = {0: "10", 1: "11", 2: "0100", 3: "0101", 4: "0110"}
    for n, word in table.items():
        assert eg_encode(n, 1) == word


def test_eg18_zero_is_19_bits():
    assert len(eg_encode(0, 18)) == 19


def _parsed_residuals(raw_t, raw_p, k):
    """The residuals the record parser reads from a record built as a bit
    string: the oracle's EG codes with their sign bits."""
    data = pack_bits(record_string(3, raw_t, raw_p, k))
    poc, got_t, got_p, end = cam_code._read_record(data, 0, k)
    assert (poc, end) == (3, len(data))
    return got_t, got_p


def test_eg_round_trip_sample():
    for k in (0, 1, 18, 24):
        for n in (0, 1, 2, 255, 1 << 17, (1 << 20) - 1):
            assert _parsed_residuals(n, -n, k) == (n, -n)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=(1 << 26) - 1), st.integers(min_value=0, max_value=24))
def test_eg_round_trip_property(n, k):
    assert _parsed_residuals(-n, n, k) == (-n, n)


def test_eg_length_formula_k18():
    for n in (0, 1, 1000, (1 << 18) - 1, 1 << 18, (1 << 25) - 1):
        expect = 2 * int(math.floor(math.log2(n + (1 << 18)))) - 17
        assert len(eg_encode(n, 18)) == expect


def test_eg_length_monotone():
    for k in (0, 5, 18):
        lengths = [len(eg_encode(n, k)) for n in range(4096)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))


@pytest.mark.parametrize("k", [0, 1, 18])
def test_signed_code_round_trip_at_the_boundaries(k):
    # below 2**k the zero run is empty, from 2**k on it is not; each code
    # is read as a record's theta and as its phi, with and without bits
    # after the record, and some records end exactly at the end of the data
    mags = {0, 1, 2**k - 1, 2**k, 2 ** (k + 1) + 3}
    raws = sorted(mags | {-m for m in mags})
    exact = 0
    for raw_t in raws:
        for raw_p in raws:
            bits = record_string(7, raw_t, raw_p, k)
            pad = -len(bits) % 8
            exact += not pad
            end = (len(bits) + pad) // 8
            for tail in ("", "1", "1011"):
                data = pack_bits(bits + "0" * pad + tail)
                assert cam_code._read_record(data, 0, k) == (7, raw_t, raw_p, end)
    assert exact


@pytest.mark.parametrize("k", [0, 3, 18])
def test_signed_code_without_its_sign_bit_is_truncated(k):
    # after the 32-bit poc and a zero code, a phi code whose EG word is
    # m + 1 bits long ends on a byte boundary when m is 3 mod 4: with the
    # smallest and the largest magnitude of each such m, the data ends
    # there, before the sign bit.  At k=3, m=3 is below 2**k, an empty
    # zero run; every other case has a non-empty one.
    for m in [m for m in range(k, k + 8) if m % 4 == 3]:
        for mag in (2**m - 2**k + 1, 2 ** (m + 1) - 1 - 2**k):
            bits = format(9, "032b") + signed_code(0, k) + eg_encode(mag, k)
            assert len(bits) % 8 == 0
            with pytest.raises(TruncationError):
                cam_code._read_record(pack_bits(bits), 0, k)
            assert cam_code._read_record(pack_bits(bits + "1"), 0, k)[:3] == (9, 0, -mag)


def test_zero_code_at_the_end_of_the_stream():
    # at k=3 two zero codes fill the record's one payload byte, so the
    # second ends exactly at the end of the stream
    enc = encode([(0, Z)], k=3)
    assert enc.record_bits.tolist() == [40]
    assert cam_code._read_record(enc.data, 10, 3) == (0, 0, 0, len(enc.data))
    dec = cam_code.decode_stream(enc.data, k=3)
    assert np.array_equal(dec.records, enc.records)


class _CountedSlices(bytes):
    """Bytes that count the slices taken of them."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append(key)
        return super().__getitem__(key)


def test_one_window_per_record():
    # the decoder converts each record with one int.from_bytes of one slice
    # of the data; only a record longer than the first window takes more
    enc = encode(random_trajectory(np.random.default_rng(6), n=40))
    data = _CountedSlices(enc.data)
    data.slices = []
    dec = cam_code.decode_stream(data)
    assert np.array_equal(dec.records, enc.records)
    assert len(data.slices) == 1 + 40  # the magic, then one per record
    long = _CountedSlices(cam_code.encode_stream([0], [Z], k=64).data)
    long.slices = []
    cam_code.decode_stream(long, k=64)  # a 162-bit record
    assert len(long.slices) == 1 + 2


# --- record coding ----------------------------------------------------------------


def test_zero_residual_record_is_5_bytes():
    # a one-record stream at poc 1 is coded against the +z prediction
    enc = cam_code.encode_stream([1], [Z])
    bits = record_string(1, 0, 0, cam_code.DEFAULT_EG_ORDER)
    assert len(bits) == 32 + 38  # two 19-bit zero codes, no sign flags
    assert enc.data[10:] == pack_bits(bits)
    assert len(enc.data[14:]) == 5
    assert enc.record_bits.tolist() == [32 + 40]
    assert enc.records["theta"][0] == 0.0


def test_one_lsb_residual_is_39_bits():
    theta = 2.0**-24
    q = sphere_to_cart(SphericalPoint(theta=theta, phi=0.0))
    enc = cam_code.encode_stream([1], [q])
    bits = record_string(1, 1, 0, cam_code.DEFAULT_EG_ORDER)
    assert len(bits) == 32 + 39  # 19 + sign flag + 19
    assert enc.data[10:] == pack_bits(bits)


def test_direction_angles_match_the_oracle():
    # the encoder's block-wise angles against oracles.unit_angles, a numpy
    # dot and the math functions per row, bit for bit: random directions
    # over more than one block, the poles and directions whose z rounds to
    # +-1, the azimuth +-pi with y = +-0, and norms off 1 by up to 1e-10
    rng = np.random.default_rng(35)
    q = rng.normal(size=(cam_code._BLOCK + 300, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[:300] *= 1.0 + rng.uniform(-1e-10, 1e-10, size=(300, 1))
    edges = [Z, -Z, (0.0, 1e-9, 1.0), (-1e-9, 2e-9, -1.0), (-1.0, 0.0, 0.0),
             (-1.0, -0.0, 0.0), (-0.6, 0.0, 0.8), (0.0, -0.0, 1.0), (0.6, 0.0, -0.8)]
    q = np.vstack([q, edges])
    got = list(cam_code._direction_angles(np.arange(len(q)), q))
    assert [p for p, _, _ in got] == list(range(len(q)))
    want = [oracles.unit_angles(row) for row in q]
    assert _bits([g[1:] for g in got]) == _bits(want)
    for bad in ((1.0, 1.0, 0.0), (np.nan, 0.0, 1.0), (0.0, 0.0, np.inf)):
        with pytest.raises(DomainError, match="norm"):
            list(cam_code._direction_angles(np.arange(2), np.array([Z, bad])))


def test_record_round_trip_random():
    # the stream [pred, q] codes q against the reconstruction of pred
    rng = np.random.default_rng(0)
    bound = 2.0**-24 * math.sqrt(2.0) + 1e-12
    for _ in range(200):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        pred = rng.normal(size=3)
        pred /= np.linalg.norm(pred)
        enc = cam_code.encode_stream([0, 1], [pred, q])
        rec = enc.records[1]
        direction = sphere_to_cart(SphericalPoint(float(rec["theta"]), float(rec["phi"])))
        assert geometry.angle_between(direction, q) <= bound


# --- prediction ----------------------------------------------------------------------


# oracles.predict_direction is the rule the codec's step must follow:
# test_record_step_matches_the_oracle holds the package to it bit for bit.


def test_predictor_defaults_to_forward():
    assert np.allclose(oracles.predict_direction([], 5), Z)


def test_predictor_picks_nearest_poc():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    hist = [(0, a), (10, b)]
    assert np.allclose(oracles.predict_direction(hist, 2), a)
    assert np.allclose(oracles.predict_direction(hist, 9), b)


def test_predictor_tie_averages_and_renormalizes():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    out = oracles.predict_direction([(0, a), (2, b)], 1)
    assert math.isclose(np.linalg.norm(out), 1.0, abs_tol=1e-12)
    assert np.allclose(out, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))


def test_predictor_antipodal_tie_takes_lower_poc():
    a = np.array([1.0, 0.0, 0.0])
    out = oracles.predict_direction([(0, a), (2, -a)], 1)
    assert np.allclose(out, a)


def encoder_steps(history, motions, frac_bits):
    """The encoder's closed loop over (poc, direction) entries: it yields
    (poc, raw_t, raw_p) as each record enters history."""
    inputs = cam_code._direction_angles(
        np.array([p for p, _ in motions]), np.array([q for _, q in motions])
    )
    return cam_code._closed_loop(history, inputs, frac_bits, quantize=True)


def test_history_refuses_a_repeated_poc():
    # below and at the highest poc; the encoder's error, or a stream's
    for error in (DomainError, FormatError):
        for poc in (4, 7):
            history = cam_code._History(3, error)
            motions = [(4, Z), (7, Z), (poc, Z)]
            with pytest.raises(error, match=f"frame {poc} appears twice"):
                list(encoder_steps(history, motions, 24))
            assert len(history.pocs) == len(history.rows) == 2


def test_ascending_step_predicts_from_the_top(monkeypatch):
    # above the highest poc so far the step predicts from the last row it
    # appended, without a bisect, and appends to the end of rows; its
    # residuals are the oracle's, whose step predicts over the whole
    # history
    motions = _ascending_walk()[:8]
    oracle_history = []
    want = [oracles.closed_loop_step(oracle_history, p, 24, q=q)[2] for p, q in motions]

    def refuse(*args, **kwargs):
        raise AssertionError("an ascending poc was looked up")

    monkeypatch.setattr(cam_code, "bisect_right", refuse)
    history = cam_code._History(len(motions))
    got = list(encoder_steps(history, motions, 24))
    assert [g[1:] for g in got] == want
    assert history.pocs.tolist() == [p for p, _ in motions]
    assert history.rows.tolist() == list(range(len(motions)))


# --- streams ----------------------------------------------------------------------------


def encode(motions, **kw):
    """encode_stream of a list of (poc, direction) entries."""
    return cam_code.encode_stream([p for p, _ in motions], [q for _, q in motions], **kw)


def random_trajectory(rng, n=32):
    qs = []
    q = Z.copy()
    for poc in range(n):
        step = rng.normal(size=3) * 0.05
        q = q + step
        q /= np.linalg.norm(q)
        qs.append((poc, q.copy()))
    return qs


def test_constant_stream_sizes():
    enc = cam_code.encode_stream(range(32), np.tile(Z, (32, 1)))
    # 10-byte header, then 32 records of (4-byte poc + 5-byte payload)
    assert len(enc.data) == 10 + 32 * 9
    assert enc.record_bits.tolist() == [72] * 32
    assert enc.payload_bits == 32 * 40


def test_second_frame_same_q_codes_to_zero_residual():
    rng = np.random.default_rng(1)
    q = rng.normal(size=3)
    q /= np.linalg.norm(q)
    enc = cam_code.encode_stream([0, 1], [q, q])
    assert enc.record_bits[1] == 72  # 32-bit poc + minimal 5-byte payload


def test_stream_round_trip_and_reencode():
    rng = np.random.default_rng(2)
    bound = 2.0**-24 * math.sqrt(2.0) + 1e-12
    for _ in range(5):
        motions = random_trajectory(rng)
        enc = encode(motions)
        dec = cam_code.decode_stream(enc.data)
        assert dec.records["poc"].tolist() == [p for p, _ in motions]
        for (_, q), q_hat in zip(motions, dec.directions):
            assert geometry.angle_between(q, q_hat) <= bound
        again = cam_code.encode_stream(dec.records["poc"], dec.directions)
        assert again.data == enc.data


def _coding_peaks(n: int) -> tuple[int, int]:
    """Peak bytes traced while encode_stream codes an n-frame walk, and
    while decode_stream decodes it, each above what was held before."""
    rng = np.random.default_rng(8)
    q = Z + np.cumsum(rng.normal(scale=1e-3, size=(n, 3)), axis=0)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pocs = np.arange(n)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        enc = cam_code.encode_stream(pocs, q)
        encode_peak = tracemalloc.get_traced_memory()[1] - held
        data = enc.data
        del enc
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        dec = cam_code.decode_stream(data)
        decode_peak = tracemalloc.get_traced_memory()[1] - held
        del dec
    finally:
        tracemalloc.stop()
    return encode_peak, decode_peak


def test_memory_per_record():
    # the records, the history and the stream are flat arrays and bytes:
    # with one Python object per record each took over 500 B.  The first
    # call pays one-time costs of about 1 MB, which would hide in a peak.
    _coding_peaks(10)
    small, large = _coding_peaks(2000), _coding_peaks(20000)
    for name, lo, hi in zip(("encode", "decode"), small, large):
        assert (hi - lo) / 18000 <= 150, (name, (hi - lo) / 18000)


def test_closed_loop_under_coarse_quantization():
    # with 8 fractional bits the quantization error is huge; encoder and
    # decoder still agree exactly because prediction runs on dequantized q
    rng = np.random.default_rng(3)
    motions = random_trajectory(rng, n=16)
    enc = encode(motions, frac_bits=8)
    dec = cam_code.decode_stream(enc.data, frac_bits=8)
    assert np.array_equal(enc.records, dec.records)


def hierarchical_order(n):
    """Pocs 0..n-1 in a hierarchical coding order: each group of eight
    after the frame that ends it, halving the gaps.  It codes pocs out of
    order and meets two-sided poc ties."""
    order = []
    for base in range(0, n, 8):
        order += [base + d for d in (0, 8, 4, 2, 6, 1, 3, 5, 7)
                  if base + d < n and base + d not in order]
    return order


def oracle_motions(n=48):
    """A seeded walk from +z, coded in hierarchical_order.

    Big steps cross both poles, and the coarse steps clamp theta; records 5
    and 21 sit exactly on the poles.  Pocs 100 and 102 are antipodal around
    101.
    """
    rng = np.random.default_rng(0)
    walk, q = [], Z.copy()
    for i in range(n):
        q = q + rng.normal(size=3) * (0.4 if i % 16 < 8 else 0.03)
        q /= np.linalg.norm(q)
        walk.append(q)
    walk[5], walk[21] = Z.copy(), -Z
    x = np.array([1.0, 0.0, 0.0])
    return [(p, walk[p]) for p in hierarchical_order(n)] + [(100, x), (102, -x), (101, walk[0])]


def decoded_digest(dec):
    h = hashlib.sha256()
    for poc, theta, phi in dec.records.tolist():
        h.update(struct.pack(">qdd", poc, theta, phi))
    for p, q in zip(dec.records["poc"].tolist(), dec.directions):
        h.update(struct.pack(">q", p) + np.asarray(q, dtype=">f8").tobytes())
    return h.hexdigest()


# sha256 of encode_stream(oracle_motions()).data per (frac_bits, k), and of
# the decoded records and motion per frac_bits.  They pin every bit of the
# record path: angles, quantization, EG words, prediction and reconstruction.
ORACLE_STREAMS = {
    (0, 0): "7ece4789065edf3ebc9267653500d3b5f469155c591225e867634379d8bedddf",
    (0, 18): "d956414d4bd6b993ffe0fffb9c9eb41dc9ff1e03a0d5c4249393bae30c4c94c9",
    (0, 64): "2c16c512d022378d2457338fddd450999ff92af27b16df240265c9bd82ee13f3",
    (8, 0): "63b56e709af18726b24cdb5e03493807a64bea3b5f5ed8d3aba1442104fdb24a",
    (8, 18): "6836602f4568c4d2c98da02aa2776183fcfef975e6e5ad338cd8f39e86e8fa01",
    (8, 64): "cca816356c8e26086f64e52b945744c558c2436154afa892847925231f3baf92",
    (24, 0): "c35b2ed46414ca06ae79a4d62d1ed026ac6d36aa9e67043b13d429a8d68ea4ea",
    (24, 18): "9b63f4beba39597691c90d394a1197f02d5d43960f057c8a4be9b964d9c9e602",
    (24, 64): "1e76ad410b108222c2945e1e1c0c4627431e5c6d7fa2f745c85622ef7b18b4bf",
    (52, 0): "fbf1e8658a468cadaf04f48afdd987eb133ef55c5441d1c927815dd35fe6ba4d",
    (52, 18): "545c5c5d9cdc63ce4d086f21571e8bc09eaa5a1198b9a69e4963815ecde7937e",
    (52, 64): "f07f77dae676ac10c22c915ca582691913f018aa1c8ea7b4e7fafcc5e1ce3a8d",
}
ORACLE_DECODED = {
    0: "bbd43838aee9c720db9b44648b94f58c92a9053e0fc8ddf27b81119c40382478",
    8: "42092555c48a48dc406d89246811c57c8c92f9bf4776896872701a74d554f074",
    24: "3fa6bcf46850e6d0e2f59025f93c07a70eaab7d91788492c4a0a9d1f78ca89ec",
    52: "f97505c19a9baa9df4b51a93ea17b4fa73b99ab795a5ec6318133153916b7da2",
}


@pytest.mark.parametrize("frac_bits, k", sorted(ORACLE_STREAMS))
def test_streams_match_pinned_digests(frac_bits, k):
    motions = oracle_motions()
    enc = encode(motions, k=k, frac_bits=frac_bits)
    assert hashlib.sha256(enc.data).hexdigest() == ORACLE_STREAMS[frac_bits, k]
    dec = cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)
    assert np.array_equal(dec.records, enc.records)
    assert decoded_digest(dec) == ORACLE_DECODED[frac_bits]


def test_oracle_covers_the_prediction_branches(monkeypatch):
    # the averaging branch, the antipodal fallback and the pole clamp
    seen = []
    real = oracles.predict_direction

    def spy(reconstructed, poc):
        dists = [abs(p - poc) for p, _ in reconstructed]
        hits = sorted(e for e, d in zip(reconstructed, dists) if d == min(dists))
        if len(hits) > 1:
            mean = hits[0][1] + hits[1][1]
            seen.append("antipodal" if np.linalg.norm(mean) < 2e-6 else "average")
        return real(reconstructed, poc)

    monkeypatch.setattr(oracles, "predict_direction", spy)
    coarse = oracles.code_stream(oracle_motions(), 18, 0)[1]
    fine = oracles.code_stream(oracle_motions(), 18, 24)[1]
    assert {"average", "antipodal"} <= set(seen)
    assert any(theta in (0.0, math.pi) for _, theta, _ in coarse)
    assert any(b[0] < a[0] for a, b in zip(fine, fine[1:]))


POLE_MARGIN = 0.01


def pole_walk(t0, phi0, steps):
    """Directions near the great circle through both poles at azimuth phi0.

    Each (dt, offset) step moves the angle t along the circle and sets the
    offset across it, so the walk crosses a pole whenever t passes a
    multiple of pi.  A direction within POLE_MARGIN of a pole is moved onto
    it.
    """
    motions, t = [], t0
    for dt, offset in steps:
        t += dt
        q = np.array([
            math.sin(t) * math.cos(phi0) - offset * math.sin(phi0),
            math.sin(t) * math.sin(phi0) + offset * math.cos(phi0),
            math.cos(t),
        ])
        q /= np.linalg.norm(q)
        theta = math.acos(min(1.0, max(-1.0, q[2])))
        if min(theta, math.pi - theta) < POLE_MARGIN:
            q = np.array([0.0, 0.0, math.copysign(1.0, q[2])])
        motions.append((len(motions), q))
    return motions


_walk_steps = st.lists(
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)), min_size=1, max_size=48
)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(-4.0, 4.0), st.floats(-math.pi, math.pi), _walk_steps,
    st.integers(8, 40), st.integers(0, 64),
)
def test_reencode_reproduces_the_stream(t0, phi0, steps, frac_bits, k):
    # The README's re-encode contract: frac_bits 8..40, any order, and no
    # direction within POLE_MARGIN of a pole.  Outside it a reconstructed
    # theta can land on the other side of the pole clamp, or a round trip
    # through a unit vector can move it by more than half a quantization
    # step.
    motions = pole_walk(t0, phi0, steps)
    enc = encode(motions, k=k, frac_bits=frac_bits)
    dec = cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)
    assert np.array_equal(dec.records, enc.records)
    again = cam_code.encode_stream(dec.records["poc"], dec.directions, k=k, frac_bits=frac_bits)
    assert again.data == enc.data


@pytest.mark.parametrize(
    "q",
    [(math.sin(-1.0), 0.0, math.cos(-1.0)), (-1.0, 0.0, 0.0), (-0.6, 0.0, -0.8)],
    ids=["sin-1,0,cos-1", "-1,0,0", "-0.6,0,-0.8"],
)
def test_reencode_at_a_half_turn(q):
    # a first frame at azimuth -pi is a residual of exactly a half turn from
    # the +z prediction; unclamped, it rounds past pi and its decoded
    # direction codes with the opposite sign
    for frac_bits in (8, 16, 24, 32, 40):
        enc = cam_code.encode_stream([0], [q], frac_bits=frac_bits)
        dec = cam_code.decode_stream(enc.data, frac_bits=frac_bits)
        assert np.array_equal(dec.records, enc.records)
        again = cam_code.encode_stream(dec.records["poc"], dec.directions, frac_bits=frac_bits)
        assert again.data == enc.data, frac_bits


def _ascending_walk():
    """Pocs rising by 1 to 3, a walk with a large jump every eighth frame."""
    rng = np.random.default_rng(31)
    q, poc, motions = Z.copy(), 0, []
    for i in range(64):
        q = q + rng.normal(size=3) * (0.5 if i % 8 == 7 else 0.02)
        q /= np.linalg.norm(q)
        poc += int(rng.integers(1, 4))
        motions.append((poc, q.copy()))
    return motions


def _pole_walk():
    """A seeded walk across both poles, directions near a pole moved onto
    it, then the poles themselves, and directions whose z rounds to +-1
    though x or y is not 0."""
    rng = np.random.default_rng(32)
    steps = [(rng.uniform(-0.3, 0.3), rng.uniform(-0.05, 0.05)) for _ in range(60)]
    motions = pole_walk(0.1, 0.7, steps)
    ends = [Z, -Z, Z, (0.0, 1e-9, 1.0), (-1e-9, 2e-9, -1.0), (3e-9, 0.0, 1.0)]
    return motions + [(len(motions) + i, np.array(q)) for i, q in enumerate(ends)]


def _half_turns():
    """Each direction half a turn in azimuth from the one before it, the
    first at azimuth -pi from the +z prediction."""
    motions = [(0, np.array([math.sin(-1.0), 0.0, math.cos(-1.0)]))]
    for i in range(1, 24):
        theta, phi = 0.3 + 0.1 * i, 0.4 + math.pi * i
        motions.append((i, np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )))
    return motions


def _benchmark_walk(n=400):
    """A walk like the benchmark's trajectory: steps of 1e-3 rad in theta
    and phi, 2% of them jumps of 0.3 rad, theta kept 0.3 rad from the
    poles."""
    rng = np.random.default_rng(34)
    jump = rng.random(n) < 0.02
    steps = rng.normal(size=(n, 2)) * np.where(jump, 0.3, 1e-3)[:, None]
    theta, phi, motions = 1.1, -2.9, []
    for i in range(n):
        theta = min(max(theta + steps[i, 0], 0.3), math.pi - 0.3)
        phi = (phi + steps[i, 1] + math.pi) % (2.0 * math.pi) - math.pi
        motions.append((i, np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )))
    return motions


def _benchmark_walk_out_of_order():
    """_benchmark_walk coded in hierarchical_order."""
    motions = _benchmark_walk()
    return [motions[p] for p in hierarchical_order(len(motions))]


def _shuffled_axes():
    """45 of the pocs 0..59 in a shuffled order, each direction a signed
    axis, so two-sided ties both average and cancel."""
    rng = np.random.default_rng(21)
    axes = np.eye(3)
    pocs = rng.permutation(60)[:45].tolist()
    return [(poc, axes[rng.integers(3)] * rng.choice([-1.0, 1.0])) for poc in pocs]


STEP_TRAJECTORIES = {
    "ascending": _ascending_walk,
    "shuffled_axes": _shuffled_axes,
    "out_of_order": oracle_motions,
    "pole": _pole_walk,
    "half_turn": _half_turns,
    "walk": _benchmark_walk,
    "walk_out_of_order": _benchmark_walk_out_of_order,
}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("frac_bits", [0, 8, 24, 52])
@pytest.mark.parametrize("name", sorted(STEP_TRAJECTORIES))
def test_record_step_matches_the_oracle(name, frac_bits):
    # the codec's record step against oracles.closed_loop_step, the step
    # written plainly over the whole history: every angle, residual and
    # direction bit for bit, then the streams and what decodes from them
    motions = STEP_TRAJECTORIES[name]()
    pocs = [p for p, _ in motions]
    oracle_history, history = [], cam_code._History(len(motions))
    steps = encoder_steps(history, motions, frac_bits)
    for i, ((poc, q), got) in enumerate(zip(motions, steps)):
        want = oracles.closed_loop_step(oracle_history, poc, frac_bits, q=q)
        assert got == (poc, *want[2]), (i, poc)
        assert _bits((history.thetas[i], history.phis[i])) == _bits(want[:2]), (i, poc)
        assert _bits(history.directions[i]) == _bits(oracle_history[-1][1]), (i, poc)
    assert len(history.pocs) == len(motions)
    for k in (0, 18, 64):
        data, records, directions, raws = oracles.code_stream(motions, k, frac_bits)
        enc = encode(motions, k=k, frac_bits=frac_bits)
        assert enc.data == data, k
        assert enc.records.tolist() == records
        assert _bits(enc.records["theta"]) == _bits([r[1] for r in records])
        assert _bits(enc.records["phi"]) == _bits([r[2] for r in records])
        dec = cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)
        want_records, want_directions = oracles.decode_raws(pocs, raws, frac_bits)
        assert dec.records.tobytes() == enc.records.tobytes()
        assert dec.records.tolist() == want_records
        assert _bits(dec.directions) == _bits(want_directions) == _bits(directions)


def test_stream_input_validation():
    for pocs in ([0, 0], [-1], [1 << 32], [1 << 64], [1 << 70], [0.5], [[0]]):
        with pytest.raises(DomainError):
            cam_code.encode_stream(pocs, np.tile(Z, (len(pocs), 1)))
    with pytest.raises(DomainError):
        cam_code.encode_stream([0, 1], [Z])
    enc = cam_code.encode_stream([], np.empty((0, 3)))
    assert enc.data == _header(0) and len(enc.records) == 0
    assert len(cam_code.decode_stream(enc.data).records) == 0


def test_codec_parameter_range():
    # the ends of 0..64 (order) and 0..52 (fractional bits) code and decode
    motions = random_trajectory(np.random.default_rng(5), n=6)
    for k, frac_bits in ((0, 0), (64, 52)):
        enc = encode(motions, k=k, frac_bits=frac_bits)
        dec = cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)
        assert np.array_equal(dec.records, enc.records)
    for k, frac_bits in ((-1, 24), (65, 24), (18, -1), (18, 53), (18, 2000)):
        with pytest.raises(DomainError):
            encode(motions, k=k, frac_bits=frac_bits)
        with pytest.raises(DomainError):
            cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)


def test_decode_rejects_short_data():
    with pytest.raises(TruncationError):
        cam_code.decode_stream(b"GCMH\x00\x01")


def test_decode_rejects_bad_magic():
    enc = cam_code.encode_stream([0], [Z])
    with pytest.raises(FormatError):
        cam_code.decode_stream(b"XXXX" + enc.data[4:])


def test_decode_rejects_bad_version():
    enc = cam_code.encode_stream([0], [Z])
    bad = enc.data[:4] + b"\x00\x07" + enc.data[6:]
    with pytest.raises(FormatError):
        cam_code.decode_stream(bad)


def test_decode_rejects_trailing_bytes():
    enc = cam_code.encode_stream([0], [Z])
    with pytest.raises(FormatError):
        cam_code.decode_stream(enc.data + b"\x00")


def test_decode_rejects_truncated_record():
    enc = cam_code.encode_stream([0, 1], [Z, Z])
    with pytest.raises(TruncationError):
        cam_code.decode_stream(enc.data[:-3])


# --- malformed streams ------------------------------------------------------------


def _header(count):
    return cam_code.MAGIC + struct.pack(">HI", cam_code.VERSION, count)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.binary(max_size=400))
def test_decode_arbitrary_payload_raises_only_geo360_errors(count, body):
    try:
        cam_code.decode_stream(_header(count) + body)
    except Geo360Error:
        pass


def test_decode_every_truncation_of_a_valid_stream():
    data = encode(random_trajectory(np.random.default_rng(4))).data
    cam_code.decode_stream(data)
    for n in range(len(data)):
        with pytest.raises(TruncationError):
            cam_code.decode_stream(data[:n])


def test_decode_zero_prefix_past_the_end():
    with pytest.raises(TruncationError):
        cam_code.decode_stream(_header(1) + b"\x00\x00\x00\x07" + b"\x00" * 12)


def test_decode_rejects_residual_beyond_any_encoder():
    # a 130-byte zero prefix announces a magnitude of over 1000 bits, far
    # past pi and past the float range
    body = b"\x00" * 4 + b"\x00" * 130 + b"\xff" * 140
    with pytest.raises(FormatError):
        cam_code.decode_stream(_header(1) + body)
