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
out of band; both sides default to k=18 and 24 fractional bits.  The stream
records neither, so the CLI always codes at the defaults.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_right
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
    m = math.floor(abs(x) * (1 << frac_bits) + 0.5)
    return -m if x < 0.0 else m


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


def _record_bytes(poc: int, raw_t: int, raw_p: int, k: int) -> bytes:
    """One record: the u32 poc, then each residual as a signed order-k EG
    code, zero-padded to a byte.

    A signed code is the EG code of |raw|, then a sign bit (1 = negative)
    when raw != 0.  The EG code's value is |raw| + 2**k, and its leading
    zeros are implicit in it, so the record is one integer word.
    """
    word_t = abs(raw_t) + (1 << k)
    used_t = 2 * word_t.bit_length() - 1 - k
    if raw_t:
        word_t = (word_t << 1) | (raw_t < 0)
        used_t += 1
    word_p = abs(raw_p) + (1 << k)
    used_p = 2 * word_p.bit_length() - 1 - k
    if raw_p:
        word_p = (word_p << 1) | (raw_p < 0)
        used_p += 1
    pad = -(used_t + used_p) % 8
    word = (((poc << used_t) | word_t) << used_p | word_p) << pad
    return word.to_bytes(4 + ((used_t + used_p + pad) >> 3), "big")


def _read_record(data: bytes, pos: int, k: int) -> tuple[int, int, int, int]:
    """Inverse of _record_bytes for the record at byte `pos` of `data`: its
    poc, its two residuals, and the byte after it.

    One int.from_bytes turns a window of the data into a word of `size`
    bits.  `rest` keeps the bits after the first `end`, those read so far:
    a code's zero run is their count less rest.bit_length(), and as the
    bits above it are zero, one shift of rest gives the code's EG word,
    |raw| + 2**k.  The sign bit follows unless the magnitude is 0, so a
    zero code may end the stream.  The window holds 16 bytes at first,
    enough for a record whose codes take up to 96 bits; a longer record
    doubles it until the record fits, and one that runs past the data
    raises TruncationError.
    """
    one = 1 << k
    window = 16
    while True:
        chunk = data[pos : pos + window]
        size = 8 * len(chunk)
        if size < 32:
            raise TruncationError("cam_code: stream ends before a poc field")
        word = int.from_bytes(chunk, "big")
        rest = word & ((1 << (size - 32)) - 1)
        # 32 + 2 * zeros + k + 1, zeros = size - 32 - rest.bit_length()
        end = 2 * (size - rest.bit_length()) - 32 + k + 1
        if end <= size:
            raw_t = (rest >> (size - end)) - one
            if raw_t:
                end += 1
                if end <= size and (rest >> (size - end)) & 1:
                    raw_t = -raw_t
        if end <= size:
            rest &= (1 << (size - end)) - 1
            # end + 2 * zeros + k + 1, zeros = size - end - rest.bit_length()
            end = 2 * (size - rest.bit_length()) - end + k + 1
            if end <= size:
                raw_p = (rest >> (size - end)) - one
                if raw_p:
                    end += 1
                    if end <= size and (rest >> (size - end)) & 1:
                        raw_p = -raw_p
                if end <= size:
                    return word >> (size - 32), raw_t, raw_p, pos + ((end + 7) >> 3)
        if len(chunk) < window:
            raise TruncationError("cam_code: read past end of bitstream")
        window *= 2


# A stream's reconstructed records, one row per record in coding order.
RECORD_DTYPE = np.dtype([("poc", np.int64), ("theta", np.float64), ("phi", np.float64)])

# The header after the magic: u16 version, u32 record count.
_HEADER = struct.Struct(">HI")


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


class _History:
    """The records a coder has reconstructed, in flat buffers.

    In coding order, `pocs`, `thetas` and `phis` are array buffers, and
    the directions are the rows of `directions`, a float64 `(capacity, 3)`
    array sized once.  `rows` holds the coding rows in ascending poc
    order, the one list _closed_loop searches for a frame below the
    highest poc so far.  Each poc enters once: _closed_loop raises
    `repeat_error` on a repeat.
    """

    def __init__(self, capacity: int, repeat_error: type = DomainError):
        self.pocs = array("q")
        self.thetas = array("d")
        self.phis = array("d")
        self.directions = np.empty((capacity, 3))
        self.rows = array("q")
        self.repeat_error = repeat_error

    def records(self) -> np.ndarray:
        """The records as one RECORD_DTYPE array."""
        out = np.empty(len(self.pocs), dtype=RECORD_DTYPE)
        out["poc"] = self.pocs
        out["theta"] = self.thetas
        out["phi"] = self.phis
        return out


def _closed_loop(history: _History, inputs, frac_bits: int, quantize: bool):
    """The step both coders run per record, as one generator over
    `inputs`, (poc, a, b) per record; it yields (poc, raw_t, raw_p) once
    each record is in `history`.

    A step predicts frame `poc`'s angles from the reconstructed history,
    quantizes the residuals or takes them as given, rebuilds the angles a
    decoder sees from them, and appends the record.  The decoder passes
    the residuals it read as a and b.  The encoder passes the angles of
    its direction, theta and phi, with `quantize` set, and gets back the
    residuals to code.  The azimuth residual is clamped to the largest
    step count below a half turn.  A residual within half a step of pi
    would otherwise round past pi, the decoder would wrap the azimuth to
    the other side, and coding the decoded direction again would flip the
    residual's sign.

    The loop's state lives in local variables, and the direction of the
    highest poc so far, `top`, predicts every frame above it, so in
    ascending poc order nothing searches or shifts.  Before the first
    record, top is +z, the prediction of an empty history.  A frame below
    the highest poc takes one bisect of `rows` by poc, which gives the
    repeat check, the rows of its two nearest pocs and its place in
    `rows`.  The nearer of the two predicts.  On a tie, their mean
    divided by its norm predicts, or the lower poc's direction when that
    norm is below 1e-6.  The predicted direction's angles follow
    geometry's conventions (phi 0 at the poles); its norm is a numpy dot,
    the one numpy call per record, as x*x + y*y + z*z differs from it in
    the last bit for about one unit vector in five.
    """
    pocs, thetas, phis, rows = history.pocs, history.thetas, history.phis, history.rows
    directions = history.directions
    # the directions' columns, and top, as memoryviews of float64 arrays
    xs, ys, zs = (memoryview(column) for column in directions.T)
    top = np.array([0.0, 0.0, 1.0])
    top_xyz = memoryview(top)
    top_poc, tx, ty, tz = -1, 0.0, 0.0, 1.0
    scale = 1 << frac_bits  # one step of the quantizer is 1 / scale
    half_turn = math.floor(math.pi * scale)
    for row, (poc, a, b) in enumerate(inputs):
        above = poc > top_poc
        if above:
            predicted, x, y, z = top, tx, ty, tz
        else:
            i = bisect_right(rows, poc, key=pocs.__getitem__)
            if i and pocs[rows[i - 1]] == poc:
                raise history.repeat_error(f"cam_code: frame {poc} appears twice")
            upper = rows[i]  # a poc below the highest has a row above it
            predicted = directions[upper]
            if i:
                lower = rows[i - 1]
                below, beyond = poc - pocs[lower], pocs[upper] - poc
                if below < beyond:
                    predicted = directions[lower]
                elif below == beyond:
                    mean = (directions[lower] + predicted) / 2.0
                    norm = np.linalg.norm(mean)
                    predicted = directions[lower] if norm < 1e-6 else mean / norm
            x, y, z = predicted.tolist()
        norm = math.sqrt(predicted.dot(predicted))
        z /= norm
        if z >= 1.0:
            theta_hat, phi_hat = 0.0, 0.0
        elif z <= -1.0:
            theta_hat, phi_hat = math.pi, 0.0
        else:
            theta_hat, phi_hat = math.acos(z), math.atan2(y / norm, x / norm)
            if phi_hat >= math.pi:  # atan2 may return +pi exactly
                phi_hat = -math.pi
        if quantize:  # a and b are the direction's angles
            raw_t = quantize_angle(a - theta_hat, frac_bits)
            raw_p = quantize_angle(wrap_residual(b - phi_hat), frac_bits)
            if raw_p > half_turn:
                raw_p = half_turn
            elif raw_p < -half_turn:
                raw_p = -half_turn
        else:  # a and b are the residuals the decoder read
            raw_t, raw_p = a, b
        theta = theta_hat + raw_t / scale
        if theta < 0.0:
            theta = 0.0
        elif theta > math.pi:
            theta = math.pi
        phi = phi_hat + raw_p / scale
        # geometry.wrap_angle on a float: math.floor gives the bits of np.floor
        phi -= geometry.TWO_PI * math.floor((phi + math.pi) / geometry.TWO_PI)

        if above:
            rows.append(row)
        else:
            rows.insert(i, row)
        pocs.append(poc)
        thetas.append(theta)
        phis.append(phi)
        sin_theta = math.sin(theta)
        x, y, z = sin_theta * math.cos(phi), sin_theta * math.sin(phi), math.cos(theta)
        xs[row], ys[row], zs[row] = x, y, z
        if above:
            top_poc, tx, ty, tz = poc, x, y, z
            top_xyz[0], top_xyz[1], top_xyz[2] = x, y, z
        yield poc, raw_t, raw_p


# The encoder turns its input directions into angles this many rows at a
# time, so the arrays it needs for that stay small.
_BLOCK = 1024


def _direction_angles(pocs: np.ndarray, directions: np.ndarray):
    """(poc, theta, phi) of each frame the encoder codes: the angles of its
    unit direction, with phi 0 at the poles, worked out a block of rows at
    a time.

    A row's norm is the square root of its dot with itself, one np.matmul
    over the block.  np.matmul takes a row times a row with the dot
    routine ndarray.dot runs, BLAS's ddot where numpy has one, so each
    norm has the bits a dot per row gives; x*x + y*y + z*z differs from it
    in the last bit for about one unit vector in five.  The components are
    divided by the norm as arrays, the same IEEE division as on floats.
    The arccosine and the arctangent are math's, element by element, as
    numpy's differ from them in the last bit for several percent of
    directions.  The predicted directions depend on the record before, so
    _closed_loop works out their angles one at a time, with the same
    operations on floats.
    """
    tol = geometry._UNIT_TOL
    for start in range(0, len(directions), _BLOCK):
        block = np.ascontiguousarray(directions[start : start + _BLOCK])
        norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
        bad = ~(np.abs(norms - 1.0) <= tol)  # also true for nan and inf
        if bad.any():
            raise DomainError(f"cam_code: direction norm {norms[bad][0]!r} is not 1 within {tol}")
        x, y, z = (block / norms[:, None]).T
        # memoryviews hand out one float at a time, where tolist would
        # make a Python object of each element of the block at once
        acos = map(math.acos, memoryview(np.clip(z, -1.0, 1.0)))
        theta = np.fromiter(acos, np.float64, len(z))
        phi = np.fromiter(map(math.atan2, memoryview(y), memoryview(x)), np.float64, len(z))
        phi[phi >= math.pi] = -math.pi  # atan2 may return +pi exactly
        theta[z >= 1.0] = 0.0
        theta[z <= -1.0] = math.pi
        phi[np.abs(z) >= 1.0] = 0.0
        block_pocs = pocs[start : start + _BLOCK].astype(np.int64)
        yield from zip(memoryview(block_pocs), memoryview(theta), memoryview(phi))


def _read_records(data: bytes, count: int, k: int, frac_bits: int):
    """(poc, raw_t, raw_p) of each of the `count` records after the
    header, the decoder's input to _closed_loop; raises FormatError on a
    residual no encoder writes and on bytes after the last record."""
    # An encoder's residuals are angle differences of at most pi; a larger
    # one is corrupt, and one past the float range could not be dequantized.
    limit = quantize_angle(2.0 * math.pi, frac_bits)
    pos = 10
    for _ in range(count):
        poc, raw_t, raw_p, pos = _read_record(data, pos, k)
        if abs(raw_t) > limit or abs(raw_p) > limit:
            raise FormatError(f"cam_code: residual out of range in frame {poc}")
        yield poc, raw_t, raw_p
    if pos < len(data):
        raise FormatError("cam_code: trailing bytes after the last record")


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

    data = bytearray(MAGIC + _HEADER.pack(VERSION, n))
    history = _History(n)
    record_bits = array("q")
    inputs = _direction_angles(pocs, directions)
    for poc, raw_t, raw_p in _closed_loop(history, inputs, frac_bits, quantize=True):
        record = _record_bytes(poc, raw_t, raw_p, k)
        data += record
        record_bits.append(8 * len(record))

    return StreamEncodeResult(
        data=bytes(data),
        records=history.records(),
        payload_bits=8 * (len(data) - 10) - 32 * n,
        record_bits=np.frombuffer(record_bits, dtype=np.int64),
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
    version, count = _HEADER.unpack_from(data, 4)
    if version != VERSION:
        raise FormatError(f"cam_code: unsupported version {version}")

    # A record takes at least 5 bytes (a u32 poc and one payload byte), so
    # the data holds no more records than this, whatever the header says;
    # a stream that claims more ends in a TruncationError before the
    # directions fill up.
    history = _History(min(count, (len(data) - 10) // 5), FormatError)
    inputs = _read_records(data, count, k, frac_bits)
    for _ in _closed_loop(history, inputs, frac_bits, quantize=False):
        pass
    return StreamDecodeResult(
        records=history.records(),
        directions=history.directions[:count],
        # the records fill the data up to its end
        payload_bits=8 * (len(data) - 10) - 32 * count,
    )
