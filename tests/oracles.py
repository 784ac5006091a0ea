"""Scalar reference versions of vectorized package paths, for tests only.

Each function maps one point (or one coordinate) with plain floats, so the
array code in geo360 can be checked against a formula that is easy to read.
Points on the sphere are SphericalPoint values, converted one at a time by
sphere_to_cart and cart_to_sphere; ged_orig_theta and ged_corrected_theta are the
two polar laws on their own, written here apart from the package's kernel,
with their own pole clamp, and count_block_ops tallies the arithmetic of a
scalar transcription of each law.  The camera codec's bits also have a
'0'/'1' string form here, which pack_bits turns into the bytes the codec's
record parser reads; BitOracle reads them back one bit at a time, the
reference that parser is checked against; and the codec's per-record step
has a plain form, closed_loop_step, that predicts with its own
predict_direction over the whole history.
None of them is called by the package itself.

synth_direct is the synthetic dolly renderer as it was before it rendered
the cylinder texture once per band: frames in the outer loop, every
sinusoid of every pixel summed afresh for each frame.

gc_row_theta is the one exception: it runs the package's own gc law, for
the tests of what the paper claims of that law.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from geo360 import cam_code, geometry, video_io
from geo360 import motion_model as mm
from geo360.camera_est import FlowField
from geo360.errors import DegenerateGeometryError, DomainError, TruncationError
from geo360.geometry import TWO_PI
from geo360.mocomp import ErpFrame, _PlaneSampler, _quads
from geo360.motion_model import POLE_EPS, GeodesicModelConfig, MotionVector2D


@dataclass(frozen=True)
class SphericalPoint:
    """Direction on the unit sphere: polar angle theta, azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise DomainError(f"geometry: theta {self.theta!r} outside [0, pi]")
        if not (-math.pi <= self.phi < math.pi):
            raise DomainError(f"geometry: phi {self.phi!r} outside [-pi, pi)")


def angles_to_cart(theta: float, phi: float) -> np.ndarray:
    """(theta, phi) -> unit vector as a new array, with the trig on floats."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def unit_angles(v) -> tuple[float, float]:
    """Unit vector, any 3-sequence, -> (theta, phi); phi fixed to 0 at the
    poles.  v is coerced, checked and divided by its norm by
    geometry.as_unit_vector, and z is clamped into [-1, 1] before the
    arccosine."""
    x, y, z = geometry.as_unit_vector(v).tolist()
    z = min(1.0, max(-1.0, z))
    theta = math.acos(z)
    if abs(z) >= 1.0:
        return theta, 0.0
    phi = math.atan2(y, x)
    if phi >= math.pi:
        phi = -math.pi
    return theta, phi


def sphere_to_cart(p: SphericalPoint) -> np.ndarray:
    return angles_to_cart(p.theta, p.phi)


def cart_to_sphere(v) -> SphericalPoint:
    """Unit vector -> (theta, phi); phi fixed to 0 at the poles."""
    theta, phi = unit_angles(v)
    return SphericalPoint(theta=theta, phi=phi)


def ged_orig_theta(theta, theta_c: float, t_u: float, delta: float):
    """Polar displacement under the constant-depth model (scalar or array).

    Two-argument arctangent of (sin(theta), k - cos(theta)) with the k of
    the block center theta_c, k = sin(theta_c + delta*t_u) / sin(delta*t_u);
    reverse motion (t_u < 0) lands on the opposite branch, shifting the
    result by -pi so the displacement carries the sign of t_u.
    """
    k = math.sin(theta_c + delta * t_u) / math.sin(delta * t_u)
    dt = np.arctan2(np.sin(theta), k - np.cos(theta))
    if t_u < 0.0:
        dt = dt - math.pi
    return dt


def pole_clamp(theta):
    """Keep a polar angle inside [POLE_EPS, pi - POLE_EPS]."""
    return np.clip(theta, POLE_EPS, math.pi - POLE_EPS)


def gc_radius(scaling: str, theta_c: float) -> float:
    """Cylinder radius of the gc law: 1 (global) or sin(theta_c) (local)."""
    if scaling == "global":
        return 1.0
    r = math.sin(theta_c)
    if r < POLE_EPS:
        raise DegenerateGeometryError(f"oracles: local radius {r!r} at the pole")
    return r


def ged_corrected_theta(theta, t_u: float, delta: float, r: float):
    """Polar angle under the geometry-corrected model (scalar or array).

    A point at height p = r * cot(theta) on the cylinder of radius r about
    the motion axis moves to p - tan(delta) * t_u, so the new angle is
    arccot(cot(theta) - tan(delta) * t_u / r), taken as atan2(1, .) to land
    in (0, pi).  The input angle is pole-clamped first.
    """
    th = pole_clamp(theta)
    return np.arctan2(1.0, np.cos(th) / np.sin(th) - math.tan(delta) * t_u / r)


@dataclass(frozen=True)
class ErpCoord:
    """Continuous ERP coordinate tied to a frame geometry.

    Width/height are sample counts.  True ERP has width == 2 * height; other
    aspect ratios are accepted with a warning so partial panoramas still work.
    """

    u: float
    v: float
    width: int
    height: int

    def __post_init__(self):
        if self.width < 2 or self.height < 1:
            raise DomainError(
                f"geometry: ERP raster {self.width}x{self.height} too small"
            )
        if self.width != 2 * self.height:
            warnings.warn(
                f"geometry: {self.width}x{self.height} is not a 2:1 ERP raster",
                stacklevel=3,
            )


def erp_to_sphere(c: ErpCoord) -> SphericalPoint:
    """Map an ERP coordinate to its direction on the sphere.

    Raises DomainError when (u, v) lies outside [0, width) x [0, height).
    """
    if not (0.0 <= c.u < c.width) or not (0.0 <= c.v < c.height):
        raise DomainError(
            f"geometry: ERP coordinate ({c.u}, {c.v}) outside "
            f"[0, {c.width}) x [0, {c.height})"
        )
    phi = TWO_PI * (c.u + 0.5) / c.width - math.pi
    theta = math.pi * (c.v + 0.5) / c.height
    # u < width keeps phi < pi only up to rounding; wrap the boundary case.
    if phi >= math.pi:
        phi = -math.pi
    return SphericalPoint(theta=theta, phi=phi)


def sphere_to_erp(p: SphericalPoint, width: int, height: int) -> ErpCoord:
    """Inverse of erp_to_sphere for the same raster."""
    phi = geometry.wrap_angle(p.phi)
    u = (phi + math.pi) * width / TWO_PI - 0.5
    v = p.theta * height / math.pi - 0.5
    return ErpCoord(u=float(u), v=float(v), width=width, height=height)


def ged_orig_map(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Move one spherical point by t under the constant-depth model.

    t_u = 0 is the identity in theta (the k factor is singular there).
    The output theta is clamped to [POLE_EPS, pi - POLE_EPS].
    """
    if cfg.variant != "original":
        raise DomainError(f"motion_model: config variant {cfg.variant!r} is not 'original'")
    if t.t_u == 0.0:
        theta_m = s.theta
    else:
        theta_m = s.theta + ged_orig_theta(s.theta, theta_c, t.t_u, cfg.delta)
    phi_m = geometry.wrap_angle(s.phi + cfg.delta * t.t_v)
    return SphericalPoint(theta=float(pole_clamp(theta_m)), phi=float(phi_m))


def ged_gc_map(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Move one spherical point by t under the geometry-corrected model."""
    if cfg.variant != "gc":
        raise DomainError(f"motion_model: config variant {cfg.variant!r} is not 'gc'")
    theta_m = ged_corrected_theta(s.theta, t.t_u, cfg.delta, gc_radius(cfg.scaling, theta_c))
    phi_m = geometry.wrap_angle(s.phi + cfg.delta * t.t_v)
    return SphericalPoint(theta=float(pole_clamp(theta_m)), phi=float(phi_m))


def map_point(
    s: SphericalPoint,
    theta_c: float,
    t: MotionVector2D,
    cfg: GeodesicModelConfig,
) -> SphericalPoint:
    """Variant dispatch for single points; blocks use map_block_geometry_batch."""
    if cfg.variant == "original":
        return ged_orig_map(s, theta_c, t, cfg)
    return ged_gc_map(s, theta_c, t, cfg)


def gc_row_theta(theta, t_u: float, delta: float, scaling="global", theta_c=math.pi / 2):
    """The package's gc law (motion_model._model_theta) over the polar
    angles theta, laid out as the one pixel row of a block centred at
    theta_c; the angles must lie inside the pole clamp, as prepared block
    angles do.  Returns theta's shape."""
    row = np.asarray(theta, dtype=np.float64).reshape(1, -1)
    assert np.all((row >= POLE_EPS) & (row <= math.pi - POLE_EPS))
    geom = mm.BlockGeometry(
        theta=row, phi=np.zeros_like(row), clamped_in=np.zeros(row.shape, dtype=bool),
        theta_c=theta_c, rotation=np.eye(3), frame_width=2 * row.size, frame_height=1,
    )
    cfg = GeodesicModelConfig(variant="gc", scaling=scaling, delta=delta)
    out = mm._model_theta(geom, np.array([t_u], dtype=np.float64), cfg)
    return out.reshape(np.shape(theta))


class _Tally:
    """Arithmetic wrapper that counts as it computes."""

    def __init__(self):
        self.trig = 0
        self.mul = 0
        self.div = 0
        self.add = 0

    def sin(self, x):
        self.trig += 1
        return math.sin(x)

    def cos(self, x):
        self.trig += 1
        return math.cos(x)

    def atan(self, x):
        self.trig += 1
        return math.atan(x)

    def cot(self, x):
        self.trig += 1
        return math.cos(x) / math.sin(x)

    def acot(self, x):
        self.trig += 1
        return math.atan2(1.0, x)

    def multiply(self, a, b):
        self.mul += 1
        return a * b

    def divide(self, a, b):
        self.div += 1
        return a / b

    def addsub(self, a, b):
        self.add += 1
        return a + b


def count_block_ops(variant: str, scaling: str, width: int, height: int) -> mm.OpCount:
    """Tally of a scalar transcription of one block's polar law.

    Evaluates, on a dummy block and through counting wrappers, a per-pixel
    scalar form of each law, as a second derivation of the closed-form
    table in motion_model.op_count.  It does not run the vectorized kernel
    (motion_model._model_theta), so a change to the kernel's law does not
    show in this tally.  Refuses, as the package does, every (variant,
    scaling) outside motion_model.MODELS.
    """
    mm._check_model(variant, scaling)
    tally = _Tally()
    theta_c = 1.1
    t_u = 2.5
    delta = 0.01
    thetas = np.linspace(0.4, 2.7, width * height)
    dz = math.tan(delta)  # per-sequence constant, not charged

    if variant == "original":
        shift = tally.multiply(delta, t_u)
        k = tally.divide(tally.sin(tally.addsub(theta_c, shift)), tally.sin(shift))
        for th in thetas:
            num = tally.sin(th)
            den = tally.addsub(k, -tally.cos(th))
            tally.addsub(th, tally.atan(tally.divide(num, den)))
    elif scaling == "global":
        for th in thetas:
            shift = tally.multiply(dz, t_u)
            tally.acot(tally.addsub(tally.cot(th), -shift))
    else:
        r = tally.sin(theta_c)
        for th in thetas:
            shift = tally.divide(tally.multiply(dz, t_u), r)
            tally.acot(tally.addsub(tally.cot(th), -shift))

    return mm.OpCount(trig=tally.trig, mul=tally.mul, div=tally.div, add=tally.add)


def sample_bilinear(frame: ErpFrame, x, y):
    """Bilinear luma sample at continuous ERP coordinates (x, y)."""
    sampler = _PlaneSampler(
        np.array(x, dtype=np.float64), np.array(y, dtype=np.float64),
        frame.width, frame.height,
    )
    out = sampler.sample(_quads(frame.y))
    if out.ndim == 0:
        return float(out)
    return out


def eg_encode(n: int, k: int = cam_code.DEFAULT_EG_ORDER) -> str:
    """Order-k exponential-Golomb code of a non-negative integer, as a
    bit string: m - k zeros, then the m + 1 bits of n + 2**k, where m is
    the bit position of its leading one.  Code length is 2*m - k + 1."""
    if n < 0:
        raise DomainError(f"oracles: EG input {n} is negative")
    v = n + (1 << k)
    m = v.bit_length() - 1
    return "0" * (m - k) + format(v, "b")


def signed_code(raw: int, k: int = cam_code.DEFAULT_EG_ORDER) -> str:
    """The codec's signed code of a residual, as a bit string: the EG code
    of |raw|, then a sign bit (1 = negative) when raw != 0."""
    if not raw:
        return eg_encode(0, k)
    return eg_encode(abs(raw), k) + ("1" if raw < 0 else "0")


def record_string(poc: int, raw_t: int, raw_p: int, k: int = cam_code.DEFAULT_EG_ORDER) -> str:
    """One record of a camera stream as a bit string, before its padding:
    the u32 poc, then the signed codes of the two residuals."""
    return format(poc, "032b") + signed_code(raw_t, k) + signed_code(raw_p, k)


class BitOracle:
    """Bit-at-a-time MSB-first buffer: the codec's record parser must read
    from its bytes what it reads."""

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

    def eg_decode(self, k):
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
        m = zeros + k
        return (1 << m) - (1 << k) + self.read_bits(m)

    def read_signed(self, k):
        mag = self.eg_decode(k)
        if mag and self.read_bit():
            return -mag
        return mag

    def read_record(self, k):
        """(poc, raw_t, raw_p, end) of the record at the cursor, a byte
        boundary, with end the byte after its padding."""
        poc = self.read_bits(32)
        raw_t = self.read_signed(k)
        raw_p = self.read_signed(k)
        self.pos += -self.pos % 8
        return poc, raw_t, raw_p, self.pos // 8


def dequantize_angle(raw: int, frac_bits: int = cam_code.DEFAULT_FRAC_BITS) -> float:
    """Angle of a fixed-point value with frac_bits fractional bits."""
    return raw / (1 << frac_bits)


def write_bit(out: list, bit: int):
    """Append one bit, 0 or 1, to out, a list of '0'/'1' strings."""
    if bit not in (0, 1):
        raise DomainError(f"oracles: bit value {bit!r} is not 0 or 1")
    out.append("1" if bit else "0")


def write_string(out: list, bits: str):
    """Append a string of '0' and '1' characters to out."""
    if bits.strip("01"):
        raise DomainError(f"oracles: bit string {bits!r} is not all 0 and 1")
    out.append(bits)


def pack_bits(bits) -> bytes:
    """A '0'/'1' string, or a list of them as write_bit and write_string
    build, as bytes: most significant bit first, the last byte
    zero-padded."""
    bits = "".join(bits)
    if bits.strip("01"):
        raise DomainError(f"oracles: bit string {bits!r} is not all 0 and 1")
    pad = -len(bits) % 8
    return int("0" + bits + "0" * pad, 2).to_bytes((len(bits) + pad) // 8, "big")


def quantize_angle(x: float, frac_bits: int) -> int:
    """Fixed point with frac_bits fractional bits, half-way cases rounded
    away from zero."""
    return int(math.copysign(math.floor(abs(x) * (1 << frac_bits) + 0.5), x))


def predict_direction(reconstructed, poc: int) -> np.ndarray:
    """Predictor for the direction of frame `poc` from `reconstructed`, a
    sequence of (poc, direction).

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


def closed_loop_step(history: list, poc: int, frac_bits: int, q=None, raw=(0, 0)):
    """The camera codec's per-record step, written plainly: predict_direction
    over the whole history, a list of (poc, direction) in coding order;
    angles by unit_angles; the reconstructed direction appended as
    angles_to_cart builds it.  The encoder passes q and gets the residuals
    raw back, the decoder passes raw.  Returns (theta, phi, raw)."""
    theta_hat, phi_hat = unit_angles(predict_direction(history, poc))
    scale = 1 << frac_bits
    if q is not None:
        theta, phi = unit_angles(q)
        raw_t = quantize_angle(theta - theta_hat, frac_bits)
        raw_p = quantize_angle(cam_code.wrap_residual(phi - phi_hat), frac_bits)
        half_turn = math.floor(math.pi * scale)
        raw = raw_t, min(max(raw_p, -half_turn), half_turn)
    theta = min(max(theta_hat + raw[0] / scale, 0.0), math.pi)
    phi = float(geometry.wrap_angle(phi_hat + raw[1] / scale))
    history.append((poc, angles_to_cart(theta, phi)))
    return theta, phi, raw


def code_stream(motions, k: int, frac_bits: int):
    """A camera stream of (poc, direction) motions coded by closed_loop_step.
    Returns the stream bytes, the (poc, theta, phi) records, the
    reconstructed directions and the (raw_theta, raw_phi) residuals."""
    data = bytearray(cam_code.MAGIC + struct.pack(">HI", cam_code.VERSION, len(motions)))
    history, records, raws = [], [], []
    for poc, q in motions:
        theta, phi, raw = closed_loop_step(history, poc, frac_bits, q=q)
        data += pack_bits(record_string(poc, *raw, k))
        records.append((poc, theta, phi))
        raws.append(raw)
    return bytes(data), records, [q for _, q in history], raws


def decode_raws(pocs, raws, frac_bits: int):
    """The (poc, theta, phi) records and directions a decoder rebuilds
    from the residuals raws of frames pocs, by closed_loop_step."""
    history = []
    records = [(poc, *closed_loop_step(history, poc, frac_bits, raw=raw)[:2])
               for poc, raw in zip(pocs, raws)]
    return records, [q for _, q in history]


def _intersect_cylinder(cam_z: float, s_axis: np.ndarray):
    """(azimuth, axial z) where rays from on-axis height cam_z hit the
    unit cylinder around the z axis."""
    horiz = np.hypot(s_axis[..., 0], s_axis[..., 1])
    phi = np.arctan2(s_axis[..., 1], s_axis[..., 0])
    z = cam_z + s_axis[..., 2] / horiz
    return phi, z


def synth_direct(cfg: video_io.SynthConfig) -> video_io.SynthResult:
    """video_io.synth_dolly with frames in the outer loop and the texture's
    direct sum at every pixel of every frame."""
    rng = np.random.default_rng(cfg.seed)
    peak = (1 << cfg.bit_depth) - 1
    if cfg.depth_model == "sphere":
        texture = video_io._SphereTexture(rng, video_io._TEXTURE_COMPONENTS, peak)
    else:
        texture = video_io._CylinderTexture(rng, video_io._TEXTURE_COMPONENTS, peak)

    raw_axis = np.asarray(cfg.direction, dtype=np.float64)
    norm = np.linalg.norm(raw_axis)
    if norm < 1e-12:
        raise DomainError("video_io: synth direction must be non-zero")
    axis = raw_axis / norm
    rot = geometry.rotation_to_epipole(axis)

    u = np.arange(cfg.width, dtype=np.float64)
    v = np.arange(cfg.height, dtype=np.float64)
    theta, phi = geometry.erp_grid_to_sphere(*np.meshgrid(u, v), cfg.width, cfg.height)
    s_axis = geometry.sphere_grid_to_cart(theta, phi) @ rot.T
    del theta, phi

    rows = max(1, video_io._BAND_BYTES // (8 * cfg.width * video_io._TEXTURE_COMPONENTS))
    bands = [slice(r, r + rows) for r in range(0, cfg.height, rows)]
    shape = (cfg.height, cfg.width)
    dtype = video_io._sample_dtype(cfg.bit_depth)
    frames = []
    flows = []
    for m in range(cfg.frames):
        cam_z = m * cfg.step
        y = np.empty(shape, dtype=dtype)
        flow = None
        if m + 1 < cfg.frames:
            flow = FlowField(du=np.empty(shape), dv=np.empty(shape))
        for band in bands:
            sa = s_axis[band]
            if cfg.depth_model == "sphere":
                w = video_io._intersect_sphere(cam_z, sa)
                values = texture.sample(w)
            else:
                cphi, cz = _intersect_cylinder(cam_z, sa)
                w = None
                values = texture.sample(cphi, cz)
            y[band] = np.clip(np.rint(values), 0, peak)
            if flow is None:
                continue

            if w is None:
                horiz = np.hypot(sa[..., 0], sa[..., 1])
                t = 1.0 / horiz
                w = t[..., None] * sa
                w[..., 2] += cam_z
            w[..., 2] -= (m + 1) * cfg.step
            s2 = (w / np.linalg.norm(w, axis=-1, keepdims=True)) @ rot
            th2, ph2 = geometry.cart_grid_to_sphere(s2)
            u2, v2 = geometry.sphere_grid_to_erp(th2, ph2, cfg.width, cfg.height)
            du = u2 - u
            du -= cfg.width * np.round(du / cfg.width)
            flow.du[band] = du
            flow.dv[band] = v2 - v[band, None]
        frames.append(
            ErpFrame(
                width=cfg.width, height=cfg.height, bit_depth=cfg.bit_depth, y=y
            )
        )
        if flow is not None:
            flows.append(flow)

    camera = (np.arange(1, cfg.frames, dtype=np.int64), np.tile(axis, (cfg.frames - 1, 1)))
    return video_io.SynthResult(frames=frames, flows=flows, camera=camera)
