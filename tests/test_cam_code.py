import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geo360 import cam_code, geometry
from geo360.cam_code import Bitstream
from geo360.errors import DomainError, FormatError, Geo360Error, TruncationError
from oracles import (
    SphericalPoint,
    dequantize_angle,
    eg_decode,
    eg_encode,
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


# --- bitstream ----------------------------------------------------------------


def test_bitstream_round_trip():
    bs = Bitstream()
    bs.write_bits(0b1011, 4)
    write_bit(bs, 1)
    write_string(bs, "001")
    raw = bs.to_bytes()
    rd = Bitstream(raw)
    assert rd.read_bits(4) == 0b1011
    assert rd.read_bit() == 1
    assert rd.read_bits(3) == 0b001


def test_bitstream_truncation():
    rd = Bitstream(b"\xff")
    rd.read_bits(8)
    with pytest.raises(TruncationError):
        rd.read_bit()


def test_bitstream_pads_to_bytes():
    bs = Bitstream()
    bs.write_bits(0b101, 3)
    raw = bs.to_bytes()
    assert len(raw) == 1
    assert raw[0] == 0b10100000  # MSB first, zero padded


def test_write_bits_rejects_value_wider_than_count():
    bs = Bitstream()
    for value, count in ((5, 0), (1, 0), (8, 3), (-1, 4)):
        with pytest.raises(DomainError):
            bs.write_bits(value, count)
    assert bs.bit_length == 0
    bs.write_bits(0, 0)
    assert bs.bit_length == 0


@pytest.mark.parametrize("bad", ["1x2 ", "0_1", " 01", "01\n", "2", "0b1", "\u0661"])
def test_write_string_accepts_only_0_and_1(bad):
    bs = Bitstream()
    with pytest.raises(DomainError):
        write_string(bs, bad)
    assert bs.bit_length == 0


class BitOracle:
    """Bit-at-a-time MSB-first buffer: the reference Bitstream must match."""

    def __init__(self, data=b""):
        self.buf = bytearray(data)
        self.nbits = 8 * len(self.buf)
        self.pos = 0

    def write_bit(self, bit):
        if self.nbits % 8 == 0:
            self.buf.append(0)
        if bit:
            self.buf[-1] |= 0x80 >> (self.nbits % 8)
        self.nbits += 1

    def write_bits(self, value, count):
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_string(self, bits):
        for ch in bits:
            self.write_bit(int(ch))

    def read_bit(self):
        if self.pos >= self.nbits:
            raise TruncationError("oracle: read past end")
        bit = (self.buf[self.pos // 8] >> (7 - self.pos % 8)) & 1
        self.pos += 1
        return bit

    def read_bits(self, count):
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def align_read(self):
        self.pos += (-self.pos) % 8

    @property
    def read_position(self):
        return self.pos

    def eg_decode(self, k):
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        m = zeros + k
        return (1 << m) - (1 << k) + self.read_bits(m)


_write_op = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 1)),
    st.integers(0, 70).flatmap(
        lambda n: st.tuples(st.just("write_bits"), st.integers(0, (1 << n) - 1), st.just(n))
    ),
    st.tuples(st.just("write_string"), st.text(alphabet="01", max_size=40)),
)
_read_op = st.one_of(
    st.tuples(st.just("read_bit")),
    st.tuples(st.just("read_bits"), st.integers(0, 70)),
    st.tuples(st.just("align_read")),
    st.tuples(st.just("eg"), st.sampled_from([0, 1, 3, 18])),
)


def _apply_reads(stream, reads):
    """(value, cursor) after each read until the first truncation, which
    ends the list as "truncated"."""
    out = []
    for op, *args in reads:
        try:
            if op == "eg":
                if isinstance(stream, BitOracle):
                    value = stream.eg_decode(*args)
                else:
                    value = eg_decode(stream, *args)
            else:
                value = getattr(stream, op)(*args)
        except TruncationError:
            out.append("truncated")
            break
        out.append((value, stream.read_position))
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(_write_op, max_size=24), st.lists(_read_op, max_size=24))
# a 0-bit read with the cursor aligned past a partial last byte
@example([("write_bit", 0)], [("read_bit",), ("align_read",), ("read_bits", 0)])
def test_bitstream_matches_bit_at_a_time_oracle(writes, reads):
    bs, oracle = Bitstream(), BitOracle()
    for op, *args in writes:
        if op == "write_string":
            write_string(bs, *args)
        elif op == "write_bit":
            write_bit(bs, *args)
        else:
            getattr(bs, op)(*args)
        getattr(oracle, op)(*args)
        assert bs.bit_length == oracle.nbits
    raw = bs.to_bytes()
    assert raw == bytes(oracle.buf)
    # reads on the written object itself (partial last byte), then on every
    # byte prefix of its contents
    assert _apply_reads(bs, reads) == _apply_reads(oracle, reads)
    for n in range(len(raw) + 1):
        assert _apply_reads(Bitstream(raw[:n]), reads) == _apply_reads(
            BitOracle(raw[:n]), reads
        )


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


def test_eg_round_trip_sample():
    for k in (0, 1, 18, 24):
        for n in (0, 1, 2, 255, 1 << 17, (1 << 20) - 1):
            bs = Bitstream()
            write_string(bs, eg_encode(n, k))
            assert eg_decode(Bitstream(bs.to_bytes()), k) == n


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=(1 << 26) - 1), st.integers(min_value=0, max_value=24))
def test_eg_round_trip_property(n, k):
    bs = Bitstream()
    write_string(bs, eg_encode(n, k))
    assert eg_decode(Bitstream(bs.to_bytes()), k) == n


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
    # below 2**k the zero run is empty, from 2**k on it is not; either way
    # the sign bit is read in one word with the EG code, and a zero code
    # gives back the bit after it, also when the stream ends there
    mags = {0, 1, 2**k - 1, 2**k, 2 ** (k + 1) + 3}
    for raw in sorted(mags | {-m for m in mags}):
        word, used = cam_code._signed_word(raw, k)
        for tail, tail_bits in ((0, 0), (1, 1), (0b1011, 4)):
            bs = Bitstream()
            bs.write_bits(word, used)
            bs.write_bits(tail, tail_bits)
            assert cam_code._read_signed(bs, k) == raw
            assert bs.read_position == used


@pytest.mark.parametrize("k", [0, 3, 18])
def test_signed_code_without_its_sign_bit_is_truncated(k):
    for mag in (1, 2**k):
        word, used = cam_code._signed_word(mag, k)
        bs = Bitstream()
        bs.write_bits(word >> 1, used - 1)
        with pytest.raises(TruncationError):
            cam_code._read_signed(bs, k)


def test_zero_code_at_the_end_of_the_stream():
    # at k=3 two zero codes fill the record's one payload byte, so the
    # second ends exactly at the end of the stream
    enc = encode([(0, Z)], k=3)
    assert enc.record_bits.tolist() == [40]
    dec = cam_code.decode_stream(enc.data, k=3)
    assert np.array_equal(dec.records, enc.records)


def test_one_read_per_signed_code(monkeypatch):
    enc = encode(random_trajectory(np.random.default_rng(6), n=40))
    calls = []
    real = Bitstream.read_bits

    def counted(self, count):
        calls.append(count)
        return real(self, count)

    monkeypatch.setattr(Bitstream, "read_bits", counted)
    dec = cam_code.decode_stream(enc.data)
    assert len(calls) == 3 * 40  # the poc, then one word per signed code
    assert np.array_equal(dec.records, enc.records)


# --- record coding ----------------------------------------------------------------


def test_zero_residual_record_is_5_bytes():
    # a one-record stream at poc 1 is coded against the +z prediction
    enc = cam_code.encode_stream([1], [Z])
    payload, used = cam_code._payload(0, 0, cam_code.DEFAULT_EG_ORDER)
    assert used == 38  # two 19-bit zero codes, no sign flags
    assert len(payload) == 5
    assert enc.data[14:] == payload
    assert enc.record_bits.tolist() == [32 + 40]
    assert enc.records["theta"][0] == 0.0


def test_one_lsb_residual_is_39_bits():
    theta = 2.0**-24
    q = sphere_to_cart(SphericalPoint(theta=theta, phi=0.0))
    enc = cam_code.encode_stream([1], [q])
    payload, used = cam_code._payload(1, 0, cam_code.DEFAULT_EG_ORDER)
    assert used == 39  # 19 + sign flag + 19
    assert enc.data[14:] == payload


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


def test_predictor_defaults_to_forward():
    assert np.allclose(cam_code.predict_direction([], 5), Z)


def test_predictor_picks_nearest_poc():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    hist = [(0, a), (10, b)]
    assert np.allclose(cam_code.predict_direction(hist, 2), a)
    assert np.allclose(cam_code.predict_direction(hist, 9), b)


def test_predictor_tie_averages_and_renormalizes():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    out = cam_code.predict_direction([(0, a), (2, b)], 1)
    assert math.isclose(np.linalg.norm(out), 1.0, abs_tol=1e-12)
    assert np.allclose(out, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))


def test_predictor_antipodal_tie_takes_lower_poc():
    a = np.array([1.0, 0.0, 0.0])
    out = cam_code.predict_direction([(0, a), (2, -a)], 1)
    assert np.allclose(out, a)


def test_predictor_neighbours_match_full_history():
    # shuffled distinct pocs, and antipodal directions so two-sided ties
    # also hit the cancellation fallback
    rng = np.random.default_rng(21)
    axes = np.eye(3)
    history, entries = cam_code._History(45), []
    for poc in rng.permutation(60)[:45]:
        for target in range(-2, 63):
            full = cam_code.predict_direction(entries, target)
            near = cam_code.predict_direction(history.neighbours(target), target)
            assert np.array_equal(full, near)
        entries.append((int(poc), axes[rng.integers(3)] * rng.choice([-1.0, 1.0])))
        history.append(*entries[-1])
    pocs, directions = zip(*entries)
    rows = np.argsort(pocs)
    assert history.rows[: history.size].tolist() == rows.tolist()
    assert history.pocs[: history.size].tolist() == np.array(pocs)[rows].tolist()
    assert np.array_equal(history.directions[: history.size], directions)


def test_history_refuses_a_repeated_poc():
    # below and at the highest poc; the encoder's error, or a stream's
    for error in (DomainError, FormatError):
        history = cam_code._History(3, error)
        history.append(4, Z)
        history.append(7, Z)
        for poc in (4, 7):
            with pytest.raises(error, match=f"frame {poc} appears twice"):
                history.append(poc, Z)
        assert history.size == 2


def test_ascending_lookup_returns_the_cached_entry():
    history = cam_code._History(5)
    for poc in range(5):
        q = np.array([0.0, 0.0, 1.0])
        history.append(poc, q)
        assert history.neighbours(poc + 1) is history.neighbours(poc)
        assert history.neighbours(poc)[0][1] is q


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
    small, large = _coding_peaks(1000), _coding_peaks(6000)
    for name, lo, hi in zip(("encode", "decode"), small, large):
        assert (hi - lo) / 5000 <= 150, (name, (hi - lo) / 5000)


def test_closed_loop_under_coarse_quantization():
    # with 8 fractional bits the quantization error is huge; encoder and
    # decoder still agree exactly because prediction runs on dequantized q
    rng = np.random.default_rng(3)
    motions = random_trajectory(rng, n=16)
    enc = encode(motions, frac_bits=8)
    dec = cam_code.decode_stream(enc.data, frac_bits=8)
    assert np.array_equal(enc.records, dec.records)


def oracle_motions(n=48):
    """A seeded walk from +z, coded in a hierarchical poc order.

    Big steps cross both poles, and the coarse steps clamp theta; records 5
    and 21 sit exactly on the poles.  The order codes pocs out of order and
    meets two-sided poc ties, and pocs 100 and 102 are antipodal around 101.
    """
    rng = np.random.default_rng(0)
    walk, q = [], Z.copy()
    for i in range(n):
        q = q + rng.normal(size=3) * (0.4 if i % 16 < 8 else 0.03)
        q /= np.linalg.norm(q)
        walk.append(q)
    walk[5], walk[21] = Z.copy(), -Z
    order = []
    for base in range(0, n, 8):
        order += [base + d for d in (0, 8, 4, 2, 6, 1, 3, 5, 7)
                  if base + d < n and base + d not in order]
    x = np.array([1.0, 0.0, 0.0])
    return [(p, walk[p]) for p in order] + [(100, x), (102, -x), (101, walk[0])]


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
    real = cam_code.predict_direction

    def spy(reconstructed, poc):
        dists = [abs(p - poc) for p, _ in reconstructed]
        hits = sorted(e for e, d in zip(reconstructed, dists) if d == min(dists))
        if len(hits) > 1:
            mean = hits[0][1] + hits[1][1]
            seen.append("antipodal" if np.linalg.norm(mean) < 2e-6 else "average")
        return real(reconstructed, poc)

    monkeypatch.setattr(cam_code, "predict_direction", spy)
    coarse = encode(oracle_motions(), frac_bits=0)
    fine = encode(oracle_motions(), frac_bits=24)
    assert {"average", "antipodal"} <= set(seen)
    assert np.isin(coarse.records["theta"], (0.0, math.pi)).any()
    assert (np.diff(fine.records["poc"]) < 0).any()


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
