import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geo360 import cam_code, geometry
from geo360.cam_code import Bitstream, CamMotionRecord
from geo360.errors import DomainError, FormatError, TruncationError

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
