"""Lossy-but-closed-loop codec for per-frame camera translation directions.

Each frame carries one unit vector, coded as spherical angles (theta, phi).
The coder predicts the direction from already *reconstructed* frames,
quantizes the angle residuals to fixed point, and writes them as signed
exponential-Golomb codes.  Because prediction runs on reconstructed values
on both sides, decoding a stream and re-encoding the decoded directions
reproduces the original bytes.

Stream layout (big endian throughout):

    "GCMH"  u16 version=1  u32 record_count
    repeat: u32 poc, payload (two signed EG codes, zero-padded to a byte)

The EG order k and the fixed-point precision are codec parameters agreed
out of band; both sides default to k=18 and 24 fractional bits.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .errors import DomainError, FormatError, TruncationError

MAGIC = b"GCMH"
VERSION = 1
DEFAULT_EG_ORDER = 18
DEFAULT_FRAC_BITS = 24


def quantize_angle(x: float, frac_bits: int = DEFAULT_FRAC_BITS) -> int:
    """Fixed-point with half-way cases rounded away from zero."""
    scale = 1 << frac_bits
    return int(math.copysign(math.floor(abs(x) * scale + 0.5), x))


def dequantize_angle(raw: int, frac_bits: int = DEFAULT_FRAC_BITS) -> float:
    return raw / (1 << frac_bits)


def wrap_residual(x: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    return x - 2.0 * math.pi * math.ceil((x - math.pi) / (2.0 * math.pi))


class Bitstream:
    """MSB-first bit buffer with an independent read cursor."""

    def __init__(self, data: bytes | None = None):
        self._buf = bytearray(data or b"")
        self._nbits = 8 * len(self._buf)
        self._pos = 0

    @property
    def bit_length(self) -> int:
        return self._nbits

    @property
    def read_position(self) -> int:
        return self._pos

    def write_bit(self, bit: int):
        if bit not in (0, 1):
            raise DomainError(f"cam_code: bit value {bit!r} is not 0 or 1")
        if self._nbits % 8 == 0:
            self._buf.append(0)
        if bit:
            self._buf[-1] |= 0x80 >> (self._nbits % 8)
        self._nbits += 1

    def write_bits(self, value: int, count: int):
        if count < 0 or (count and value >> count):
            raise DomainError(f"cam_code: {value} does not fit in {count} bits")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_string(self, bits: str):
        for ch in bits:
            self.write_bit(1 if ch == "1" else 0)

    def read_bit(self) -> int:
        if self._pos >= self._nbits:
            raise TruncationError("cam_code: read past end of bitstream")
        byte = self._buf[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def align_read(self):
        """Skip forward to the next byte boundary."""
        self._pos += (-self._pos) % 8

    def to_bytes(self) -> bytes:
        """Buffer contents, final partial byte zero-padded."""
        return bytes(self._buf)


def eg_encode(n: int, k: int = DEFAULT_EG_ORDER) -> str:
    """Order-k exponential-Golomb code of a non-negative integer, as a
    bit string.  Code length is 2*m - k + 1 where m is the bit position of
    the leading one of n + 2**k."""
    if n < 0:
        raise DomainError(f"cam_code: EG input {n} is negative")
    if k < 0:
        raise DomainError(f"cam_code: EG order {k} is negative")
    v = n + (1 << k)
    m = v.bit_length() - 1
    return "0" * (m - k) + format(v, f"0{m + 1}b")


def eg_decode(bits: Bitstream, k: int = DEFAULT_EG_ORDER) -> int:
    zeros = 0
    while bits.read_bit() == 0:
        zeros += 1
    m = zeros + k
    v = (1 << m) | bits.read_bits(m)
    return v - (1 << k)


def _write_signed(bits: Bitstream, raw: int, k: int):
    bits.write_string(eg_encode(abs(raw), k))
    if raw != 0:
        bits.write_bit(1 if raw < 0 else 0)


def _read_signed(bits: Bitstream, k: int) -> int:
    mag = eg_decode(bits, k)
    if mag == 0:
        return 0
    return -mag if bits.read_bit() else mag


@dataclass(frozen=True)
class CamMotionRecord:
    """Reconstructed translation direction of one frame, in angles."""

    poc: int
    theta: float
    phi: float

    def direction(self) -> np.ndarray:
        return geometry.sphere_to_cart(
            geometry.SphericalPoint(theta=self.theta, phi=self.phi)
        )


@dataclass(frozen=True)
class StreamEncodeResult:
    data: bytes
    records: list[CamMotionRecord]
    payload_bits: int
    # Per record: bits spent in the container (u32 poc + padded payload).
    record_bits: tuple[int, ...] = ()


@dataclass(frozen=True)
class StreamDecodeResult:
    records: list[CamMotionRecord]
    motion: list[tuple[int, np.ndarray]]
    payload_bits: int


def predict_direction(
    reconstructed: Sequence[tuple[int, np.ndarray]], poc: int
) -> np.ndarray:
    """Predictor for the direction of frame `poc`.

    No history yet predicts straight ahead, +z.  Otherwise the
    reconstructed direction with the nearest poc wins; a two-sided distance
    tie averages the two and renormalizes, falling back to the lower-poc
    neighbor when the average cancels out.
    """
    if not reconstructed:
        return np.array([0.0, 0.0, 1.0])
    dists = [abs(p - poc) for p, _ in reconstructed]
    best = min(dists)
    hits = [entry for entry, d in zip(reconstructed, dists) if d == best]
    if len(hits) == 1:
        return hits[0][1]
    hits.sort(key=lambda entry: entry[0])
    mean = (hits[0][1] + hits[1][1]) / 2.0
    norm = np.linalg.norm(mean)
    if norm < 1e-6:
        return hits[0][1]
    return mean / norm


class _History:
    """Reconstructed (poc, direction) entries in coding order, indexed by poc.

    predict_direction only looks at the entries nearest in poc, so each
    prediction is handed those alone instead of the whole history.
    """

    def __init__(self):
        self.entries: list[tuple[int, np.ndarray]] = []
        self._pocs: list[int] = []  # distinct pocs, ascending
        self._at: dict[int, list[tuple[int, np.ndarray]]] = {}

    def append(self, poc: int, q: np.ndarray):
        if poc not in self._at:
            bisect.insort(self._pocs, poc)
            self._at[poc] = []
        self.entries.append((poc, q))
        self._at[poc].append(self.entries[-1])

    def neighbours(self, poc: int) -> list[tuple[int, np.ndarray]]:
        """Entries at the nearest poc <= poc, then at the nearest poc > poc,
        each in coding order.  predict_direction sorts candidates by poc with
        a stable sort, so it picks from these what it picks from all."""
        i = bisect.bisect_right(self._pocs, poc)
        return [e for p in self._pocs[max(i - 1, 0) : i + 1] for e in self._at[p]]


def _direction_angles(q: np.ndarray) -> tuple[float, float]:
    p = geometry.cart_to_sphere(geometry.as_unit_vector(q))
    return p.theta, p.phi


def encode_record(
    q: np.ndarray,
    predicted: np.ndarray,
    k: int = DEFAULT_EG_ORDER,
    frac_bits: int = DEFAULT_FRAC_BITS,
) -> tuple[bytes, CamMotionRecord, int]:
    """Code one direction against its prediction.

    Returns the byte-padded payload, the record rebuilt from the coded
    residuals (what a decoder will see), and the unpadded bit count.
    """
    theta, phi = _direction_angles(q)
    theta_hat, phi_hat = _direction_angles(predicted)
    raw_t = quantize_angle(theta - theta_hat, frac_bits)
    raw_p = quantize_angle(wrap_residual(phi - phi_hat), frac_bits)

    bits = Bitstream()
    _write_signed(bits, raw_t, k)
    _write_signed(bits, raw_p, k)
    used = bits.bit_length

    theta_rec = min(max(theta_hat + dequantize_angle(raw_t, frac_bits), 0.0), math.pi)
    phi_rec = geometry.wrap_angle(phi_hat + dequantize_angle(raw_p, frac_bits))
    record = CamMotionRecord(poc=-1, theta=theta_rec, phi=float(phi_rec))
    return bits.to_bytes(), record, used


def encode_stream(
    motions: Sequence[tuple[int, np.ndarray]],
    k: int = DEFAULT_EG_ORDER,
    frac_bits: int = DEFAULT_FRAC_BITS,
) -> StreamEncodeResult:
    """Code a whole sequence of (poc, unit direction) entries.

    Frames are coded in the order given; poc values must be distinct.
    payload_bits counts the padded per-record payloads, i.e. the bits the
    container actually spends beyond pocs and the header.
    """
    pocs = [p for p, _ in motions]
    if len(set(pocs)) != len(pocs):
        raise DomainError("cam_code: duplicate poc in stream input")
    if any(p < 0 or p > 0xFFFFFFFF for p in pocs):
        raise DomainError("cam_code: poc outside the u32 range")

    body = bytearray()
    history = _History()
    records: list[CamMotionRecord] = []
    payload_bits = 0
    record_bits: list[int] = []
    for poc, q in motions:
        predicted = predict_direction(history.neighbours(poc), poc)
        payload, rec, _ = encode_record(q, predicted, k, frac_bits)
        rec = CamMotionRecord(poc=poc, theta=rec.theta, phi=rec.phi)
        body += struct.pack(">I", poc)
        body += payload
        payload_bits += 8 * len(payload)
        record_bits.append(32 + 8 * len(payload))
        records.append(rec)
        history.append(poc, rec.direction())

    header = MAGIC + struct.pack(">HI", VERSION, len(records))
    return StreamEncodeResult(
        data=bytes(header) + bytes(body),
        records=records,
        payload_bits=payload_bits,
        record_bits=tuple(record_bits),
    )


def decode_stream(
    data: bytes,
    k: int = DEFAULT_EG_ORDER,
    frac_bits: int = DEFAULT_FRAC_BITS,
) -> StreamDecodeResult:
    """Inverse of encode_stream; strict about framing.

    Raises FormatError on a bad magic/version or trailing bytes, and
    TruncationError when the stream ends mid-record.
    """
    if len(data) < 10:
        raise TruncationError("cam_code: stream shorter than its header")
    if data[:4] != MAGIC:
        raise FormatError(f"cam_code: bad magic {data[:4]!r}")
    version, count = struct.unpack(">HI", data[4:10])
    if version != VERSION:
        raise FormatError(f"cam_code: unsupported version {version}")

    bits = Bitstream(data[10:])
    history = _History()
    records: list[CamMotionRecord] = []
    payload_bits = 0
    for _ in range(count):
        if bits.bit_length - bits.read_position < 32:
            raise TruncationError("cam_code: stream ends before a poc field")
        poc = bits.read_bits(32)
        start = bits.read_position
        raw_t = _read_signed(bits, k)
        raw_p = _read_signed(bits, k)
        bits.align_read()
        payload_bits += bits.read_position - start

        predicted = predict_direction(history.neighbours(poc), poc)
        theta_hat, phi_hat = _direction_angles(predicted)
        theta = min(
            max(theta_hat + dequantize_angle(raw_t, frac_bits), 0.0), math.pi
        )
        phi = float(
            geometry.wrap_angle(phi_hat + dequantize_angle(raw_p, frac_bits))
        )
        rec = CamMotionRecord(poc=poc, theta=theta, phi=phi)
        records.append(rec)
        history.append(poc, rec.direction())

    if bits.bit_length - bits.read_position >= 8:
        raise FormatError("cam_code: trailing bytes after the last record")
    return StreamDecodeResult(
        records=records,
        motion=[(p, q.copy()) for p, q in history.entries],
        payload_bits=payload_bits,
    )
