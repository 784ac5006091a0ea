"""File formats and the synthetic dolly generator.

Formats: planar YUV (8-bit bytes or 10-bit little-endian 16-bit words,
4:2:0 or luma-only), the float32 .flo optical-flow container, a small CSV
for per-frame camera directions, and whitespace text for point
correspondences.

The generator renders a static procedural world viewed by a camera
translating along a fixed axis, so every frame pair has an analytically
known flow field and a known translation direction.  Two world shapes are
available: a textured sphere shell of constant range (depth falls off away
from the motion axis like real scenes do) and a textured cylinder around
the motion axis (constant perpendicular range, so axial motion shifts each
pixel along its meridian by a constant amount in cot-latitude).
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from . import geometry
from .camera_est import FlowField
from .errors import DomainError, FormatError, TruncationError
from .mocomp import ErpFrame

FLO_MAGIC = 202021.25
# Middlebury .flo convention: a component above this magnitude marks the
# pixel's flow as unknown; read_flo returns nan in both components there.
FLO_UNKNOWN = 1e9
# Bytes read at a time from a .flo input whose size is not known up front.
_FLO_CHUNK = 1 << 20
CAMERA_CSV_HEADER = "frame_index,qx,qy,qz"


@dataclass(frozen=True)
class SequenceSpec:
    """Geometry of a raw YUV file: planar, 4:2:0 when chroma is True."""

    width: int
    height: int
    bit_depth: int = 8
    chroma: bool = True

    def __post_init__(self):
        if self.width < 2 or self.height < 1:
            raise DomainError("video_io: degenerate frame size")
        if self.bit_depth not in (8, 10):
            raise DomainError(f"video_io: bit depth {self.bit_depth} unsupported")
        if self.chroma and (self.width % 2 or self.height % 2):
            raise DomainError("video_io: 4:2:0 needs even dimensions")

    @property
    def frame_bytes(self) -> int:
        luma = self.width * self.height
        samples = luma + (luma // 2 if self.chroma else 0)
        return samples * _sample_dtype(self.bit_depth).itemsize


def _sample_dtype(bit_depth: int) -> np.dtype:
    return np.dtype("u1" if bit_depth == 8 else "<u2")


def read_yuv(path: str, spec: SequenceSpec, max_frames: int | None = None) -> list[ErpFrame]:
    """All frames of a raw planar YUV file (or the first max_frames >= 1)."""
    if max_frames is not None and max_frames < 1:
        raise DomainError(f"video_io: max_frames {max_frames} is not at least 1")
    size = os.path.getsize(path)
    if size == 0:
        raise FormatError(f"video_io: {path} is empty")
    if size % spec.frame_bytes:
        raise FormatError(
            f"video_io: {path} is {size} bytes, not a multiple of the "
            f"{spec.frame_bytes}-byte frame size"
        )
    count = size // spec.frame_bytes
    if max_frames is not None:
        count = min(count, max_frames)
    dtype = _sample_dtype(spec.bit_depth)
    luma_n = spec.width * spec.height
    frames = []
    with open(path, "rb") as fh:
        for _ in range(count):
            raw = fh.read(spec.frame_bytes)
            if len(raw) < spec.frame_bytes:
                raise TruncationError(f"video_io: short read from {path}")
            flat = np.frombuffer(raw, dtype=dtype)
            y = flat[:luma_n].reshape(spec.height, spec.width)
            cb = cr = None
            if spec.chroma:
                cn = luma_n // 4
                cshape = (spec.height // 2, spec.width // 2)
                cb = flat[luma_n : luma_n + cn].reshape(cshape)
                cr = flat[luma_n + cn :].reshape(cshape)
            frames.append(
                ErpFrame(
                    width=spec.width,
                    height=spec.height,
                    bit_depth=spec.bit_depth,
                    y=y.copy(),
                    cb=None if cb is None else cb.copy(),
                    cr=None if cr is None else cr.copy(),
                )
            )
    return frames


def write_yuv(path: str, frames: Sequence[ErpFrame]):
    """Planar YUV out; chroma goes along when every frame carries it."""
    if not frames:
        raise DomainError("video_io: nothing to write")
    chroma = all(f.cb is not None for f in frames)
    if any((f.cb is not None) != chroma for f in frames):
        raise DomainError("video_io: frames disagree about chroma presence")
    dtype = _sample_dtype(frames[0].bit_depth)
    with open(path, "wb") as fh:
        for f in frames:
            fh.write(np.ascontiguousarray(f.y, dtype=dtype).tobytes())
            if chroma:
                fh.write(np.ascontiguousarray(f.cb, dtype=dtype).tobytes())
                fh.write(np.ascontiguousarray(f.cr, dtype=dtype).tobytes())


def read_flo(path: str) -> FlowField:
    """A Middlebury .flo file; unknown-flow pixels come back as nan."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise TruncationError(f"video_io: {path} shorter than a .flo header")
        magic, width, height = struct.unpack("<fii", head)
        if magic != np.float32(FLO_MAGIC):
            raise FormatError(f"video_io: {path} has bad .flo magic {magic!r}")
        if width < 1 or height < 1:
            raise FormatError(f"video_io: {path} has bad size {width}x{height}")
        # A forged header never costs more memory than the input holds: a
        # regular file's size is checked before reading, and a pipe is read
        # in bounded chunks until the body or the stream ends.
        size = width * height * 8
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            if size > st.st_size - len(head):
                raise TruncationError(
                    f"video_io: {path} declares {width}x{height} flow, "
                    "more than it holds"
                )
            body = fh.read(size)
        else:
            body = bytearray()
            while len(body) < size:
                chunk = fh.read(min(size - len(body), _FLO_CHUNK))
                if not chunk:
                    break
                body += chunk
        if len(body) < size:
            raise TruncationError(f"video_io: {path} truncated mid-plane")
    data = np.frombuffer(body, dtype="<f4").reshape(height, width, 2)
    # A signalling nan in the file sets the invalid flag when widened; it
    # reads as nan like any other.
    with np.errstate(invalid="ignore"):
        du, dv = data[:, :, 0].astype(np.float64), data[:, :, 1].astype(np.float64)
    unknown = (np.abs(du) > FLO_UNKNOWN) | (np.abs(dv) > FLO_UNKNOWN)
    du[unknown] = dv[unknown] = np.nan
    return FlowField(du=du, dv=dv)


def write_flo(path: str, flow: FlowField):
    data = np.empty((flow.height, flow.width, 2), dtype="<f4")
    data[:, :, 0] = flow.du
    data[:, :, 1] = flow.dv
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", FLO_MAGIC, flow.width, flow.height))
        fh.write(data.tobytes())


# Rows a text writer converts to Python values at a time.
_ROW_CHUNK = 1024


def text_rows(*columns):
    """The rows of equally long arrays as tuples of Python values, each
    array converted by `tolist` one chunk of rows at a time."""
    for start in range(0, len(columns[0]), _ROW_CHUNK):
        yield from zip(*(c[start : start + _ROW_CHUNK].tolist() for c in columns))


def camera_row(poc: int, direction) -> str:
    """One camera CSV row, without its line end.  Ten decimal places: enough that
    quantizing a reread direction to 24 fractional bits gives back its raw values."""
    x, y, z = direction
    return f"{poc},{x:.10f},{y:.10f},{z:.10f}"


def write_camera_csv(path: str, pocs, directions):
    """Frames `pocs` with the rows of the (N, 3) `directions`, a chunk of
    rows at a time, each formatted by camera_row."""
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write(CAMERA_CSV_HEADER + "\n")
        fh.writelines(
            camera_row(poc, xyz) + "\n"
            for poc, xyz in text_rows(np.asarray(pocs), directions)
        )


def read_text_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 text file, read one at a time; undecodable bytes
    raise FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"video_io: {path} is not UTF-8 text") from exc


def read_camera_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Frame indices, (N,) int64, and directions, (N, 3) float64, of a
    camera CSV.  Each row is unpacked into exactly four fields and
    converted as it is read; the values go to one list per array, which
    become the two arrays once at the end.  A frame listed twice or a
    non-finite value raises FormatError."""
    lines = read_text_lines(path)
    if next(filter(None, map(str.strip, lines)), None) != CAMERA_CSV_HEADER:
        raise FormatError(f"video_io: {path} lacks the '{CAMERA_CSV_HEADER}' header")
    pocs, values, seen = [], [], set()
    for ln in lines:
        ln = ln.strip()
        if not ln:
            continue
        try:
            poc, x, y, z = ln.split(",")
            poc = int(poc)
            x = float(x)
            y = float(y)
            z = float(z)
        except ValueError as exc:
            raise FormatError(f"video_io: bad camera row {ln!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise FormatError(f"video_io: non-finite camera row {ln!r}")
        if poc in seen:
            raise FormatError(f"video_io: {path} lists frame {poc} twice")
        seen.add(poc)
        pocs.append(poc)
        values.append(x)
        values.append(y)
        values.append(z)
    try:
        frames = np.array(pocs, dtype=np.int64)
    except OverflowError as exc:
        raise FormatError(f"video_io: {path} has a frame index outside int64") from exc
    return frames, np.array(values, dtype=np.float64).reshape(-1, 3)


def read_correspondences(path: str) -> np.ndarray:
    """(N, 4) float array of 'u1 v1 u2 v2' rows; '#' starts a comment."""
    rows = []
    for ln in read_text_lines(path):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"video_io: correspondence row {ln!r} is not 4 numbers")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"video_io: bad correspondence row {ln!r}") from exc
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


# ---------------------------------------------------------------------------
# Synthetic dolly sequences

# Sinusoids summed into the synth texture.
_TEXTURE_COMPONENTS = 40

# Largest camera travel in world units (the world has radius 1): squared
# lengths and texture phases stay finite float64.
_MAX_LENGTH = 1e100


@dataclass(frozen=True)
class SynthConfig:
    """A camera sliding along `direction` through a static textured world.

    The world has radius 1: the sphere shell's range and the cylinder's
    perpendicular radius are both 1.  Images fix a translation only up to
    scale, so a world of radius d dollied by d * step would render the
    same frames, and flows equal up to rounding; step alone sets the
    motion.  step is the camera advance per frame in those units, and the
    whole travel, (frames - 1) * step, is at most 1e100, so the ray
    geometry stays inside the float range.  The sphere world requires the
    whole path to stay well inside the shell, below 0.95.  seed is a
    non-negative integer.
    """

    width: int = 256
    height: int = 128
    frames: int = 2
    step: float = 0.01
    depth_model: Literal["sphere", "cylinder"] = "sphere"
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    bit_depth: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.width < 4 or self.height < 2:
            raise DomainError("video_io: synth frame too small")
        if self.frames < 1:
            raise DomainError("video_io: synth needs >= 1 frame")
        if not np.isfinite(self.step) or self.step < 0:
            raise DomainError("video_io: step must be >= 0")
        reach = (self.frames - 1) * self.step
        if reach > _MAX_LENGTH:
            raise DomainError(f"video_io: camera travel {reach:.4g} is above 1e100")
        if self.depth_model not in ("sphere", "cylinder"):
            raise DomainError(f"video_io: unknown world {self.depth_model!r}")
        if self.bit_depth not in (8, 10):
            raise DomainError("video_io: bit depth must be 8 or 10")
        if self.seed < 0:
            raise DomainError(f"video_io: seed {self.seed} is negative")
        if self.depth_model == "sphere" and reach >= 0.95:
            raise DomainError(
                f"video_io: camera path leaves the sphere shell (reach {reach:.4g} vs 0.95)"
            )


@dataclass(frozen=True)
class SynthResult:
    """frames[m] is the view from m*step along the axis; flows[m] carries
    pixel displacements from frame m to m+1; camera is the (pocs, directions)
    pair of read_camera_csv, frames 1 .. frames-1, each direction the
    translation that produced its frame."""

    frames: list[ErpFrame]
    flows: list[FlowField]
    camera: tuple[np.ndarray, np.ndarray]


class _SphereTexture:
    """Sum of sinusoids over directions on the unit sphere."""

    def __init__(self, rng: np.random.Generator, n: int, peak: int):
        raw = rng.normal(size=(n, 3))
        self.dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        self.freq = rng.uniform(3.0, 16.0, size=n)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        amps = rng.uniform(0.5, 1.0, size=n)
        # 8-bit swing: values stay inside [40, 216] around a 128 base.
        self.amps = amps * (88.0 * (peak + 1) / 256.0 / amps.sum())
        self.base = (peak + 1) / 2.0

    def sample(self, unit_points: np.ndarray) -> np.ndarray:
        dots = unit_points @ self.dirs.T
        return self.base + np.sin(dots * self.freq + self.phase) @ self.amps


class _CylinderTexture:
    """Sum of sinusoids in (azimuth, axial position); integer azimuthal
    harmonics keep the seam continuous.

    `sample` is the direct sum.  A dolly along the axis adds the same
    cam_z * omega to each component's phase at every pixel, so a band's
    sines and cosines of its camera-free phase (`fill_basis`) give every
    frame by angle addition (`shifted`), which differs from the direct sum
    by at most `tolerance`."""

    def __init__(self, rng: np.random.Generator, n: int, peak: int):
        self.harm = rng.integers(1, 25, size=n).astype(np.float64)
        # Axial band chosen so mid-latitude ERP rows see O(0.1..1) rad of
        # phase per row: slow enough to sample, fast enough to matter.
        self.omega = rng.uniform(10.0, 80.0, size=n)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        amps = rng.uniform(0.5, 1.0, size=n)
        self.amps = amps * (88.0 * (peak + 1) / 256.0 / amps.sum())
        self.base = (peak + 1) / 2.0

    def sample(self, phi: np.ndarray, z: np.ndarray) -> np.ndarray:
        arg = (
            phi[..., None] * self.harm
            + z[..., None] * self.omega
            + self.phase
        )
        return self.base + np.sin(arg) @ self.amps

    def phase_bound(self, dz: np.ndarray, reach: float) -> float:
        """M, the largest phase magnitude over points at axial offsets dz
        from a camera anywhere in [0, reach]."""
        return (
            np.pi * self.harm.max()
            + (np.abs(dz).max() + reach) * self.omega.max()
            + self.phase.max()
        )

    def tolerance(self, dz: np.ndarray, reach: float) -> float:
        """A bound on |shifted - sample| over those points:
        eps * sum|a| * (9 M + 2 n + 50), n the component count.  Of that,
        M + 18 bounds fill_basis's gap from (sin x, cos x) in one term."""
        big = self.phase_bound(dz, reach)
        eps = np.finfo(np.float64).eps
        return eps * np.abs(self.amps).sum() * (9.0 * big + 2.0 * self.harm.size + 50.0)

    def fill_basis(self, phi: np.ndarray, dz: np.ndarray, sin_x: np.ndarray, cos_x: np.ndarray):
        """sin_x = sin x and cos_x = cos x of the camera-free phase
        x = phi * harm + dz * omega + phase, computed in the two buffers
        from one tangent: with r = x - 2 pi rint(x / 2 pi) and t = tan(r / 2),
        sin x = 2t / (1 + t^2) and cos x = 2 / (1 + t^2) - 1."""
        np.multiply(phi[..., None], self.harm, out=sin_x)
        np.multiply(dz[..., None], self.omega, out=cos_x)
        sin_x += cos_x
        sin_x += self.phase
        np.multiply(sin_x, 1.0 / geometry.TWO_PI, out=cos_x)
        np.rint(cos_x, out=cos_x)
        cos_x *= geometry.TWO_PI
        sin_x -= cos_x
        sin_x *= 0.5
        np.tan(sin_x, out=sin_x)
        np.multiply(sin_x, sin_x, out=cos_x)
        cos_x += 1.0
        np.divide(2.0, cos_x, out=cos_x)
        sin_x *= cos_x
        cos_x -= 1.0

    def shifted(self, sin_x: np.ndarray, cos_x: np.ndarray, cam_z: float) -> np.ndarray:
        """The texture from camera height cam_z over fill_basis's points:
        a sin(x + c) = sin x * a cos c + cos x * a sin c, c = cam_z * omega."""
        c = cam_z * self.omega
        values = sin_x @ (self.amps * np.cos(c))
        values += cos_x @ (self.amps * np.sin(c))
        values += self.base
        return values


def _intersect_sphere(cam_z: float, s_axis: np.ndarray) -> np.ndarray:
    """World points where rays s from (0,0,cam_z) hit the unit shell."""
    cs = cam_z * s_axis[..., 2]
    t = -cs + np.sqrt(cs * cs + 1.0 - cam_z * cam_z)
    w = t[..., None] * s_axis
    w[..., 2] += cam_z
    return w


def _cylinder_values(texture: _CylinderTexture, basis, tol: float, phi, dz, cam_z: float):
    """The cylinder texture of one band from camera height cam_z, rounding
    as the direct sum at (phi, cam_z + dz) does.  basis is fill_basis's
    (sin x, cos x) pair.  The angle-addition value is kept unless it lies
    within tol of a half-integer; each row holding such a pixel, and the
    whole band when tol >= 0.5, takes the direct sum."""
    if not tol < 0.5:
        return texture.sample(phi, cam_z + dz)
    values = texture.shifted(*basis, cam_z)
    near = (np.abs(values - np.floor(values) - 0.5) <= tol).any(axis=1)
    if near.any():
        values[near] = texture.sample(phi[near], cam_z + dz[near])
    return values


# A band of rows holds each (rows, W, _TEXTURE_COMPONENTS) float64 texture
# term within this many bytes, so synth memory does not grow with the
# frame.  On 6-frame cylinder dollies at 256x128 and 512x256 (2-core
# x86-64 machine), 1 and 2 MiB bands rendered fastest, 512 KiB 4-8% slower,
# whole-frame bands 8-12% slower and 128 or 256 KiB bands (one to three
# rows) 13-60% slower.  512 KiB stays because 1 MiB doubles the two texture
# buffers a cylinder band holds, about 1 MB more at 256 wide.
_BAND_BYTES = 512 * 1024


def synth_dolly(cfg: SynthConfig) -> SynthResult:
    """Render the sequence plus exact flow fields and camera directions.

    Deterministic for a given config.  Pixel bearings never sit exactly on
    a pole (ERP pixel centers are half a row inside), so the cylinder
    intersection is always defined, though its texture gets badly aliased
    in the rows nearest the poles.

    The frames and flows are rendered band of rows by band, every frame of
    a band in turn, so a band's ray geometry and other frame-independent
    terms are computed once.  Every step is elementwise or a per-row
    product, so the output does not depend on the band height.
    """
    rng = np.random.default_rng(cfg.seed)
    peak = (1 << cfg.bit_depth) - 1
    cylinder = cfg.depth_model == "cylinder"
    if cylinder:
        texture = _CylinderTexture(rng, _TEXTURE_COMPONENTS, peak)
    else:
        texture = _SphereTexture(rng, _TEXTURE_COMPONENTS, peak)

    raw_axis = np.asarray(cfg.direction, dtype=np.float64)
    norm = np.linalg.norm(raw_axis)
    if norm < 1e-12:
        raise DomainError("video_io: synth direction must be non-zero")
    axis = raw_axis / norm
    rot = geometry.rotation_to_epipole(axis)

    u = np.arange(cfg.width, dtype=np.float64)
    v = np.arange(cfg.height, dtype=np.float64)
    rows = max(1, min(cfg.height, _BAND_BYTES // (8 * cfg.width * _TEXTURE_COMPONENTS)))
    bands = [slice(r, r + rows) for r in range(0, cfg.height, rows)]
    shape = (cfg.height, cfg.width)
    dtype = _sample_dtype(cfg.bit_depth)
    planes = [np.empty(shape, dtype=dtype) for _ in range(cfg.frames)]
    flows = [FlowField(du=np.empty(shape), dv=np.empty(shape)) for _ in range(cfg.frames - 1)]
    if cylinder:
        reach = (cfg.frames - 1) * cfg.step
        sin_rows = np.empty((rows, cfg.width, _TEXTURE_COMPONENTS))
        cos_rows = np.empty_like(sin_rows)
    for band in bands:
        # The band's pixel bearings, turned into the motion frame.
        theta, phi = geometry.erp_grid_to_sphere(*np.meshgrid(u, v[band]), cfg.width, cfg.height)
        sa = geometry.sphere_grid_to_cart(theta, phi) @ rot.T
        if cylinder:
            # Azimuth and axial offset from the camera of each ray's hit on
            # the cylinder, and the hit point itself from cam_z = 0.
            horiz = np.hypot(sa[..., 0], sa[..., 1])
            cphi = np.arctan2(sa[..., 1], sa[..., 0])
            dz = sa[..., 2] / horiz
            # (1 / horiz) * sa, not sa / horiz: the two round differently,
            # and the flows keep the bits of the former
            ray = (1.0 / horiz)[..., None] * sa
            basis = sin_rows[: len(sa)], cos_rows[: len(sa)]
            tol = texture.tolerance(dz, reach)
            if tol < 0.5:
                texture.fill_basis(cphi, dz, *basis)
        for m, y in enumerate(planes):
            cam_z = m * cfg.step
            if cylinder:
                values = _cylinder_values(texture, basis, tol, cphi, dz, cam_z)
            else:
                w = _intersect_sphere(cam_z, sa)
                values = texture.sample(w)
            y[band] = np.clip(np.rint(values), 0, peak)
            if m == len(flows):
                continue

            if cylinder:
                w = ray.copy()
                w[..., 2] += cam_z
            w[..., 2] -= (m + 1) * cfg.step
            s2 = (w / np.linalg.norm(w, axis=-1, keepdims=True)) @ rot
            th2, ph2 = geometry.cart_grid_to_sphere(s2)
            u2, v2 = geometry.sphere_grid_to_erp(th2, ph2, cfg.width, cfg.height)
            du = u2 - u
            du -= cfg.width * np.round(du / cfg.width)
            flows[m].du[band] = du
            flows[m].dv[band] = v2 - v[band, None]

    frames = [
        ErpFrame(width=cfg.width, height=cfg.height, bit_depth=cfg.bit_depth, y=y)
        for y in planes
    ]
    camera = (np.arange(1, cfg.frames, dtype=np.int64), np.tile(axis, (cfg.frames - 1, 1)))
    return SynthResult(frames=frames, flows=flows, camera=camera)
