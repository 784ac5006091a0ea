"""Quality and rate metrics: sphere-weighted PSNR and BD-rate.

WS-PSNR weights each ERP row by the cosine of its latitude so that the
over-sampled pole rows do not dominate the error the way they would in
plain PSNR.  BD-rate is the classic cubic-fit log-rate integral between two
rate/quality curves, reported as a percent rate change at equal quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mocomp import ErpFrame


def _row_weights(height: int) -> np.ndarray:
    j = np.arange(height, dtype=np.float64)
    return np.cos((j + 0.5 - height / 2.0) * np.pi / height)


def plane_ws_psnr(ref: np.ndarray, test: np.ndarray, bit_depth: int) -> float:
    """Sphere-weighted PSNR of one sample plane; inf when identical."""
    if ref.shape != test.shape or ref.ndim != 2:
        raise DomainError("metrics: planes must share one 2-D shape")
    height, width = ref.shape
    w = _row_weights(height)
    err = ref.astype(np.float64) - test.astype(np.float64)
    # Row-major accumulation with compensated summation across rows keeps
    # the result bit-identical regardless of how callers parallelise frames.
    row_sums = (err * err).sum(axis=1) * w
    wmse = math.fsum(row_sums.tolist()) / (width * math.fsum(w.tolist()))
    if wmse == 0.0:
        return math.inf
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / wmse)


# Sentinel standing in for an infinite plane PSNR inside the 6:1:1 mix and
# in the CLI's per-frame output.
PSNR_CAP = 999.99


def ws_psnr(ref: ErpFrame, test: ErpFrame, chroma: bool = False) -> float:
    """WS-PSNR between two frames: luma only, or the 6:1:1 YUV mix.

    In the mix a lossless plane enters as PSNR_CAP so one perfect plane
    cannot drag the combination to infinity.
    """
    if (ref.width, ref.height, ref.bit_depth) != (
        test.width,
        test.height,
        test.bit_depth,
    ):
        raise DomainError("metrics: frame geometry differs")
    psnr_y = plane_ws_psnr(ref.y, test.y, ref.bit_depth)
    if not chroma:
        return psnr_y
    if ref.cb is None or test.cb is None:
        raise DomainError("metrics: chroma mix requested on luma-only frames")
    psnr_cb = plane_ws_psnr(ref.cb, test.cb, ref.bit_depth)
    psnr_cr = plane_ws_psnr(ref.cr, test.cr, ref.bit_depth)
    parts = [min(p, PSNR_CAP) for p in (psnr_y, psnr_cb, psnr_cr)]
    return (6.0 * parts[0] + parts[1] + parts[2]) / 8.0


@dataclass(frozen=True)
class RDCurve:
    """An operating curve as two equally long float64 arrays: at least four
    points, rates finite and positive, qualities finite, and both strictly
    increasing (sort your measurements by rate first)."""

    rates: np.ndarray
    qualities: np.ndarray

    def __post_init__(self):
        for name in ("rates", "qualities"):
            values = np.array(getattr(self, name), dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        rates, quals = self.rates, self.qualities
        if rates.ndim != 1 or rates.shape != quals.shape or len(rates) < 4:
            raise DomainError(
                "metrics: a curve needs >= 4 rates and as many qualities, "
                f"got shapes {rates.shape} and {quals.shape}"
            )
        # Finite values first, so that no comparison below can make numpy warn.
        if not (np.isfinite(rates).all() and (rates > 0).all()):
            raise DomainError("metrics: rates must be finite and positive")
        if not np.isfinite(quals).all():
            raise DomainError("metrics: qualities must be finite")
        for name, values in (("rates", rates), ("qualities", quals)):
            if (values[1:] <= values[:-1]).any():
                raise DomainError(f"metrics: {name} must increase strictly")


def _mean_log_rate(curve: RDCurve, lo: float, hi: float) -> float:
    coeffs = np.polyfit(curve.qualities, np.log10(curve.rates), 3)
    integral = np.polyint(coeffs)
    return (np.polyval(integral, hi) - np.polyval(integral, lo)) / (hi - lo)


def bd_rate(anchor: RDCurve, test: RDCurve) -> float:
    """Average rate change of test against anchor at equal quality, percent.

    Negative means the test curve spends less rate.  The quality ranges
    must overlap.
    """
    lo = max(anchor.qualities.min(), test.qualities.min())
    hi = min(anchor.qualities.max(), test.qualities.max())
    if hi <= lo:
        raise DomainError("metrics: curves share no quality range")
    diff = _mean_log_rate(test, lo, hi) - _mean_log_rate(anchor, lo, hi)
    return float((10.0**diff - 1.0) * 100.0)
