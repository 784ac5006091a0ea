import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import cam_code, geometry
from geo360.cam_code import Bitstream, CamMotionRecord
from geo360.errors import DomainError, FormatError, Geo360Error, TruncationError

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
        x = cam_code.dequantize_angle(raw, 24)
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
    bs.write_bit(1)
    bs.write_string("001")
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
        bs.write_string(bad)
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
                    value = cam_code.eg_decode(stream, *args)
            else:
                value = getattr(stream, op)(*args)
        except TruncationError:
            out.append("truncated")
            break
        out.append((value, stream.read_position))
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(_write_op, max_size=24), st.lists(_read_op, max_size=24))
def test_bitstream_matches_bit_at_a_time_oracle(writes, reads):
    bs, oracle = Bitstream(), BitOracle()
    for op, *args in writes:
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
        assert cam_code.eg_encode(n, 0) == word


def test_eg_order1_table():
    table = {0: "10", 1: "11", 2: "0100", 3: "0101", 4: "0110"}
    for n, word in table.items():
        assert cam_code.eg_encode(n, 1) == word


def test_eg18_zero_is_19_bits():
    assert len(cam_code.eg_encode(0, 18)) == 19


def test_eg_round_trip_sample():
    for k in (0, 1, 18, 24):
        for n in (0, 1, 2, 255, 1 << 17, (1 << 20) - 1):
            bs = Bitstream()
            bs.write_string(cam_code.eg_encode(n, k))
            assert cam_code.eg_decode(Bitstream(bs.to_bytes()), k) == n


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=(1 << 26) - 1), st.integers(min_value=0, max_value=24))
def test_eg_round_trip_property(n, k):
    bs = Bitstream()
    bs.write_string(cam_code.eg_encode(n, k))
    assert cam_code.eg_decode(Bitstream(bs.to_bytes()), k) == n


def test_eg_length_formula_k18():
    for n in (0, 1, 1000, (1 << 18) - 1, 1 << 18, (1 << 25) - 1):
        expect = 2 * int(math.floor(math.log2(n + (1 << 18)))) - 17
        assert len(cam_code.eg_encode(n, 18)) == expect


def test_eg_length_monotone():
    for k in (0, 5, 18):
        lengths = [len(cam_code.eg_encode(n, k)) for n in range(4096)]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))


# --- record coding ----------------------------------------------------------------


def test_zero_residual_record_is_5_bytes():
    payload, rec, used = cam_code.encode_record(Z, Z)
    assert used == 38  # two 19-bit zero codes, no sign flags
    assert len(payload) == 5
    assert rec.theta == 0.0


def test_one_lsb_residual_is_39_bits():
    theta = 2.0**-24
    q = geometry.sphere_to_cart(geometry.SphericalPoint(theta=theta, phi=0.0))
    _, _, used = cam_code.encode_record(q, Z)
    assert used == 39  # 19 + sign flag + 19


def test_record_round_trip_random():
    rng = np.random.default_rng(0)
    bound = 2.0**-24 * math.sqrt(2.0) + 1e-12
    for _ in range(200):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        pred = rng.normal(size=3)
        pred /= np.linalg.norm(pred)
        _, rec, _ = cam_code.encode_record(q, pred)
        assert geometry.angle_between(rec.direction(), q) <= bound


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
    # shuffled pocs with repeats (a decoder can meet both), and antipodal
    # directions so two-sided ties also hit the cancellation fallback
    rng = np.random.default_rng(21)
    axes = np.eye(3)
    history = cam_code._History()
    for poc in rng.permutation(np.repeat(np.arange(30), 2))[:45]:
        for target in range(-2, 33):
            full = cam_code.predict_direction(history.entries, target)
            near = cam_code.predict_direction(history.neighbours(target), target)
            assert np.array_equal(full, near)
        history.append(int(poc), axes[rng.integers(3)] * rng.choice([-1.0, 1.0]))


# --- streams ----------------------------------------------------------------------------


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
    motions = [(poc, Z) for poc in range(32)]
    enc = cam_code.encode_stream(motions)
    # 10-byte header, then 32 records of (4-byte poc + 5-byte payload)
    assert len(enc.data) == 10 + 32 * 9
    assert enc.record_bits == (72,) * 32
    assert enc.payload_bits == 32 * 40


def test_second_frame_same_q_codes_to_zero_residual():
    rng = np.random.default_rng(1)
    q = rng.normal(size=3)
    q /= np.linalg.norm(q)
    enc = cam_code.encode_stream([(0, q), (1, q)])
    assert enc.record_bits[1] == 72  # 32-bit poc + minimal 5-byte payload


def test_stream_round_trip_and_reencode():
    rng = np.random.default_rng(2)
    bound = 2.0**-24 * math.sqrt(2.0) + 1e-12
    for _ in range(5):
        motions = random_trajectory(rng)
        enc = cam_code.encode_stream(motions)
        dec = cam_code.decode_stream(enc.data)
        assert [p for p, _ in dec.motion] == [p for p, _ in motions]
        for (_, q), (_, q_hat) in zip(motions, dec.motion):
            assert geometry.angle_between(q, q_hat) <= bound
        again = cam_code.encode_stream(dec.motion)
        assert again.data == enc.data


def test_closed_loop_under_coarse_quantization():
    # with 8 fractional bits the quantization error is huge; encoder and
    # decoder still agree exactly because prediction runs on dequantized q
    rng = np.random.default_rng(3)
    motions = random_trajectory(rng, n=16)
    enc = cam_code.encode_stream(motions, frac_bits=8)
    dec = cam_code.decode_stream(enc.data, frac_bits=8)
    for a, b in zip(enc.records, dec.records):
        assert a == b


def test_stream_input_validation():
    with pytest.raises(DomainError):
        cam_code.encode_stream([(0, Z), (0, Z)])
    with pytest.raises(DomainError):
        cam_code.encode_stream([(-1, Z)])
    with pytest.raises(DomainError):
        cam_code.encode_stream([(1 << 32, Z)])


def test_codec_parameter_range():
    # the ends of 0..64 (order) and 0..52 (fractional bits) code and decode
    motions = random_trajectory(np.random.default_rng(5), n=6)
    for k, frac_bits in ((0, 0), (64, 52)):
        enc = cam_code.encode_stream(motions, k=k, frac_bits=frac_bits)
        dec = cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)
        assert dec.records == enc.records
    for k, frac_bits in ((-1, 24), (65, 24), (18, -1), (18, 53), (18, 2000)):
        with pytest.raises(DomainError):
            cam_code.encode_stream(motions, k=k, frac_bits=frac_bits)
        with pytest.raises(DomainError):
            cam_code.decode_stream(enc.data, k=k, frac_bits=frac_bits)


def test_decode_rejects_short_data():
    with pytest.raises(TruncationError):
        cam_code.decode_stream(b"GCMH\x00\x01")


def test_decode_rejects_bad_magic():
    enc = cam_code.encode_stream([(0, Z)])
    with pytest.raises(FormatError):
        cam_code.decode_stream(b"XXXX" + enc.data[4:])


def test_decode_rejects_bad_version():
    enc = cam_code.encode_stream([(0, Z)])
    bad = enc.data[:4] + b"\x00\x07" + enc.data[6:]
    with pytest.raises(FormatError):
        cam_code.decode_stream(bad)


def test_decode_rejects_trailing_bytes():
    enc = cam_code.encode_stream([(0, Z)])
    with pytest.raises(FormatError):
        cam_code.decode_stream(enc.data + b"\x00")


def test_decode_rejects_truncated_record():
    enc = cam_code.encode_stream([(0, Z), (1, Z)])
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
    data = cam_code.encode_stream(random_trajectory(np.random.default_rng(4))).data
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
