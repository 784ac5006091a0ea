"""Lossy-but-closed-loop codec for per-frame camera translation directions.

Each frame carries one unit vector, coded as spherical angles (theta, phi).
The coder predicts the direction from already *reconstructed* frames,
quantizes the angle residuals to fixed point, and writes them as signed
exponential-Golomb codes.  Prediction runs on reconstructed values on both
sides, so encoder and decoder rebuild the same records at any quantization.
Re-encoding the decoded directions reproduces the original bytes for 8 to
40 fractional bits, as long as every direction lies on a pole or at least
0.01 rad from both, and every azimuth residual stays 0.01 rad short of a
half turn (README, "Camera codec").

Stream layout (big endian throughout):

    "GCMH"  u16 version=1  u32 record_count
    repeat: u32 poc, payload (two signed EG codes, zero-padded to a byte)

The EG order k and the fixed-point precision are codec parameters agreed
out of band; both sides default to k=18 and 24 fractional bits.
"""

from __future__ import annotations

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


def _check_params(k: int, frac_bits: int):
    """Reject codec parameters no stream uses.  Angles are float64, so more
    than 52 fractional bits add nothing; 2**frac_bits past the float range
    could not be dequantized at all.  An order above 64 spends more than 64
    bits on every residual."""
    if not 0 <= frac_bits <= 52:
        raise DomainError(f"cam_code: frac_bits {frac_bits} is outside 0..52")
    if not 0 <= k <= 64:
        raise DomainError(f"cam_code: EG order {k} is outside 0..64")


def wrap_residual(x: float) -> float:
    """Wrap an angle difference into (-pi, pi]."""
    return x - 2.0 * math.pi * math.ceil((x - math.pi) / (2.0 * math.pi))


class Bitstream:
    """MSB-first bit buffer with an independent read cursor.

    Reads and writes move whole integers: a write ORs the top of the value
    into the free low bits of the last byte and appends the rest as bytes; a
    read converts the bytes it covers to one integer and shifts and masks.
    Bits past bit_length in the last byte are always zero.
    """

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

    def write_bits(self, value: int, count: int):
        """Append the low `count` bits of value, most significant first."""
        if count < 0 or value >> count:
            raise DomainError(f"cam_code: {value} does not fit in {count} bits")
        free = -self._nbits % 8
        self._nbits += count
        if free:
            if count <= free:
                self._buf[-1] |= value << (free - count)
                return
            count -= free
            self._buf[-1] |= value >> count
            value &= (1 << count) - 1
        pad = -count % 8
        self._buf += (value << pad).to_bytes((count + pad) >> 3, "big")

    def read_bit(self) -> int:
        return self.read_bits(1)

    def read_bits(self, count: int) -> int:
        """Read `count` bits as an unsigned integer, most significant first.

        Raises TruncationError, leaving the cursor where it was, when fewer
        than count bits remain.  Reading 0 bits always gives 0, also with the
        cursor aligned past a partial last byte.
        """
        if count < 0:
            raise DomainError(f"cam_code: cannot read {count} bits")
        end = self._pos + count
        if end > self._nbits and count:
            raise TruncationError("cam_code: read past end of bitstream")
        word = int.from_bytes(self._buf[self._pos >> 3 : (end + 7) >> 3], "big")
        self._pos = end
        return (word >> (-end % 8)) & ((1 << count) - 1)

    def unread(self, count: int):
        """Move the cursor back over the last `count` bits read."""
        if not 0 <= count <= self._pos:
            raise DomainError(f"cam_code: cannot unread {count} bits")
        self._pos -= count

    def read_zero_run(self) -> int:
        """Count the zero bits from the cursor to the next one bit and move
        the cursor onto that one bit.

        Raises TruncationError when no one bit follows.
        """
        buf = self._buf
        i = self._pos >> 3
        byte = buf[i] & (0xFF >> (self._pos & 7)) if i < len(buf) else 0
        while not byte:
            i += 1
            if i >= len(buf):
                raise TruncationError("cam_code: read past end of bitstream")
            byte = buf[i]
        one = 8 * i + 8 - byte.bit_length()
        zeros = one - self._pos
        self._pos = one
        return zeros

    def align_read(self):
        """Skip forward to the next byte boundary."""
        self._pos += (-self._pos) % 8

    def to_bytes(self) -> bytes:
        """Buffer contents, final partial byte zero-padded."""
        return bytes(self._buf)


def _eg_word(n: int, k: int) -> tuple[int, int]:
    """Order-k exponential-Golomb code of n as one word (value, length):
    value is n + 2**k, and the code's leading zeros are implicit in it."""
    if n < 0:
        raise DomainError(f"cam_code: EG input {n} is negative")
    if k < 0:
        raise DomainError(f"cam_code: EG order {k} is negative")
    v = n + (1 << k)
    return v, 2 * v.bit_length() - 1 - k


def _signed_word(raw: int, k: int) -> tuple[int, int]:
    """EG code of |raw|, then a sign bit (1 = negative) when raw != 0, as
    one word (value, length)."""
    v, length = _eg_word(abs(raw), k)
    if raw:
        return (v << 1) | (raw < 0), length + 1
    return v, length


def _read_signed(bits: Bitstream, k: int) -> int:
    """Inverse of _signed_word: the EG word and the bit after it in one
    read_bits.  That bit is the sign bit when the magnitude is not 0, and
    is given back when it is 0.  A zero code may end the stream, and then
    its EG word is read alone."""
    zeros = bits.read_zero_run()
    try:
        word = bits.read_bits(zeros + k + 2)
    except TruncationError:
        # a non-empty zero run means |raw| >= 2**k, so a sign bit must follow
        if zeros or bits.read_bits(k + 1) != 1 << k:
            raise
        return 0
    mag = (word >> 1) - (1 << k)
    if not mag:
        bits.unread(1)
        return 0
    return -mag if word & 1 else mag


# A stream's reconstructed records, one row per record in coding order.
RECORD_DTYPE = np.dtype([("poc", np.int64), ("theta", np.float64), ("phi", np.float64)])


@dataclass(frozen=True)
class StreamEncodeResult:
    data: bytes
    records: np.ndarray  # RECORD_DTYPE
    payload_bits: int
    # Per record: bits spent in the container (u32 poc + padded payload).
    record_bits: np.ndarray


@dataclass(frozen=True)
class StreamDecodeResult:
    records: np.ndarray  # RECORD_DTYPE
    directions: np.ndarray  # (N, 3), each record's unit direction
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
    if len(reconstructed) == 1:
        return reconstructed[0][1]
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
    """Reconstructed directions in flat arrays, with an index sorted by poc.

    `directions`, `(N, 3)` in coding order, and the index, `pocs` ascending
    with the coding row of each in `rows`, hold the first `size` of
    `capacity` entries, sized once from the record count.  Each poc enters
    once: appending one already present raises `repeat_error`.
    predict_direction only looks at the entries nearest in poc, so each
    prediction is handed those alone.  A frame past the highest poc is
    predicted from `_top`, the one-entry list of the highest poc, returned
    as it is, and appended at the end of the index: in ascending poc order
    neither a lookup nor an append searches, shifts or allocates.  Below the
    highest poc, a lookup is a binary search and an append shifts the index
    tail.
    """

    def __init__(self, capacity: int, repeat_error: type = DomainError):
        self.size = 0
        self.pocs = np.empty(capacity, dtype=np.int64)
        self.rows = np.empty(capacity, dtype=np.int64)
        self.directions = np.empty((capacity, 3))
        self._top: list[tuple[int, np.ndarray]] = []
        self._repeat_error = repeat_error

    def append(self, poc: int, q: np.ndarray):
        n = self.size
        top = self._top
        if not top or poc > top[0][0]:
            self._top = [(poc, q)]
            i = n
        else:
            pocs, rows = self.pocs, self.rows
            i = int(np.searchsorted(pocs[:n], poc))  # < n: poc is not above the top
            if pocs[i] == poc:
                raise self._repeat_error(f"cam_code: frame {poc} appears twice")
            pocs[i + 1 : n + 1] = pocs[i:n]
            rows[i + 1 : n + 1] = rows[i:n]
        self.pocs[i] = poc
        self.rows[i] = n
        self.directions[n] = q
        self.size = n + 1

    def neighbours(self, poc: int) -> list[tuple[int, np.ndarray]]:
        """The entry at the nearest poc <= poc, then the one at the nearest
        poc > poc.  predict_direction picks from these what it picks from
        all."""
        top = self._top
        if not top or poc >= top[0][0]:
            return top
        pocs = self.pocs[: self.size]
        i = int(np.searchsorted(pocs, poc, side="right"))  # < size: poc is below the top
        near = range(max(i - 1, 0), i + 1)
        return [(int(pocs[j]), self.directions[self.rows[j]]) for j in near]


def _payload(raw_t: int, raw_p: int, k: int) -> tuple[bytes, int]:
    """Both signed EG codes as one zero-padded word, and its unpadded length."""
    word, used = _signed_word(raw_t, k)
    word_p, used_p = _signed_word(raw_p, k)
    used += used_p
    pad = -used % 8
    word = ((word << used_p) | word_p) << pad
    return word.to_bytes((used + pad) >> 3, "big"), used


def _closed_loop(
    history: _History, poc: int, frac_bits: int, q: np.ndarray | None = None, raw=(0, 0)
) -> tuple[float, float, tuple[int, int]]:
    """The one step both sides run per record: predict frame `poc`'s angles
    from the reconstructed history, rebuild the angles a decoder sees from
    the quantized residuals, and add their direction to the history.

    The decoder passes the residuals it read as raw.  The encoder passes
    its direction q instead and gets back the residuals to code.  The
    azimuth residual is clamped to the largest step count below a half
    turn.  A residual within half a step of pi would otherwise round past
    pi, the decoder would wrap the azimuth to the other side, and coding
    the decoded direction again would flip the residual's sign.
    """
    predicted = predict_direction(history.neighbours(poc), poc)
    theta_hat, phi_hat = geometry._unit_angles(predicted)
    scale = 1 << frac_bits  # one step of the quantizer is 1 / scale
    if q is not None:
        theta, phi = geometry._unit_angles(q)
        raw_t = quantize_angle(theta - theta_hat, frac_bits)
        raw_p = quantize_angle(wrap_residual(phi - phi_hat), frac_bits)
        half_turn = math.floor(math.pi * scale)
        raw = raw_t, min(max(raw_p, -half_turn), half_turn)
    theta = min(max(theta_hat + raw[0] / scale, 0.0), math.pi)
    phi = phi_hat + raw[1] / scale
    # geometry.wrap_angle on a float: math.floor gives the bits of np.floor
    phi -= geometry.TWO_PI * math.floor((phi + math.pi) / geometry.TWO_PI)
    history.append(poc, geometry._angles_to_cart(theta, phi))
    return theta, phi, raw


def encode_stream(
    pocs: Sequence[int],
    directions,
    k: int = DEFAULT_EG_ORDER,
    frac_bits: int = DEFAULT_FRAC_BITS,
) -> StreamEncodeResult:
    """Code frames `pocs` with unit directions, the rows of an (N, 3) array.

    Frames are coded in the order given; poc values must be distinct.
    payload_bits counts the padded per-record payloads, i.e. the bits the
    container actually spends beyond pocs and the header.
    """
    _check_params(k, frac_bits)
    pocs = np.asarray(pocs)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    n = len(pocs)
    if pocs.ndim != 1 or len(directions) != n:
        raise DomainError(f"cam_code: {len(directions)} directions for {n} pocs")
    if n and pocs.dtype.kind not in "iu":
        raise DomainError(f"cam_code: pocs of dtype {pocs.dtype} are not integers")
    if n and (pocs.min() < 0 or pocs.max() > 0xFFFFFFFF):
        raise DomainError("cam_code: poc outside the u32 range")

    data = bytearray(MAGIC + struct.pack(">HI", VERSION, n))
    history = _History(n)
    records = np.empty(n, dtype=RECORD_DTYPE)
    record_bits = np.empty(n, dtype=np.int64)
    for i, q in enumerate(directions):
        poc = int(pocs[i])
        theta, phi, raw = _closed_loop(history, poc, frac_bits, q=q)
        payload, _ = _payload(*raw, k)
        data += struct.pack(">I", poc) + payload
        records[i] = poc, theta, phi
        record_bits[i] = 32 + 8 * len(payload)

    return StreamEncodeResult(
        data=bytes(data),
        records=records,
        payload_bits=8 * (len(data) - 10) - 32 * n,
        record_bits=record_bits,
    )


def decode_stream(
    data: bytes,
    k: int = DEFAULT_EG_ORDER,
    frac_bits: int = DEFAULT_FRAC_BITS,
) -> StreamDecodeResult:
    """Inverse of encode_stream; strict about framing.

    Raises FormatError on a bad magic/version, a residual no encoder writes
    or trailing bytes, and TruncationError when the stream ends mid-record.
    """
    _check_params(k, frac_bits)
    if len(data) < 10:
        raise TruncationError("cam_code: stream shorter than its header")
    if data[:4] != MAGIC:
        raise FormatError(f"cam_code: bad magic {data[:4]!r}")
    version, count = struct.unpack(">HI", data[4:10])
    if version != VERSION:
        raise FormatError(f"cam_code: unsupported version {version}")

    # An encoder's residuals are angle differences of at most pi; a larger
    # one is corrupt, and one past the float range could not be dequantized.
    limit = quantize_angle(2.0 * math.pi, frac_bits)
    bits = Bitstream(data[10:])
    # A record takes at least 5 bytes (a u32 poc and one payload byte), so
    # the data holds no more records than this, whatever the header says;
    # a stream that claims more ends in a TruncationError before the
    # arrays fill up.
    capacity = min(count, (len(data) - 10) // 5)
    history = _History(capacity, FormatError)
    records = np.empty(capacity, dtype=RECORD_DTYPE)
    payload_bits = 0
    for i in range(count):
        if bits.bit_length - bits.read_position < 32:
            raise TruncationError("cam_code: stream ends before a poc field")
        poc = bits.read_bits(32)
        start = bits.read_position
        raw = (_read_signed(bits, k), _read_signed(bits, k))
        if abs(raw[0]) > limit or abs(raw[1]) > limit:
            raise FormatError(f"cam_code: residual out of range in frame {poc}")
        bits.align_read()
        payload_bits += bits.read_position - start
        theta, phi, _ = _closed_loop(history, poc, frac_bits, raw=raw)
        records[i] = poc, theta, phi

    if bits.bit_length - bits.read_position >= 8:
        raise FormatError("cam_code: trailing bytes after the last record")
    return StreamDecodeResult(
        records=records,
        directions=history.directions[:count],
        payload_bits=payload_bits,
    )
