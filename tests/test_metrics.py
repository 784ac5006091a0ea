import math
import warnings

import numpy as np
import pytest

from geo360 import metrics
from geo360.errors import DomainError
from geo360.metrics import RDCurve
from geo360.mocomp import ErpFrame


def luma_frame(y, bit_depth=8):
    h, w = y.shape
    return ErpFrame(width=w, height=h, bit_depth=bit_depth, y=y)


# --- WS-PSNR -----------------------------------------------------------------


def test_uniform_one_lsb_reference_value():
    ref = luma_frame(np.full((128, 256), 60, dtype=np.int32))
    test = luma_frame(np.full((128, 256), 61, dtype=np.int32))
    # weighted MSE of an all-ones error field is exactly 1 at any size
    assert abs(metrics.ws_psnr(ref, test) - 48.130803608679344) < 1e-9


def test_identical_frames_are_infinite():
    f = luma_frame(np.arange(64, dtype=np.int32).reshape(8, 8) % 256)
    assert metrics.ws_psnr(f, f) == math.inf


def test_symmetry_in_error():
    rng = np.random.default_rng(0)
    a = luma_frame(rng.integers(0, 256, size=(16, 32), dtype=np.int32))
    b = luma_frame(rng.integers(0, 256, size=(16, 32), dtype=np.int32))
    assert metrics.ws_psnr(a, b) == metrics.ws_psnr(b, a)


def test_growing_any_error_lowers_score():
    rng = np.random.default_rng(1)
    y = rng.integers(10, 240, size=(16, 32), dtype=np.int32)
    ref = luma_frame(y)
    for j, i in ((0, 0), (7, 13), (15, 31)):
        bumped = y.copy()
        bumped[j, i] += 4
        low = metrics.ws_psnr(ref, luma_frame(bumped))
        bumped[j, i] += 4
        lower = metrics.ws_psnr(ref, luma_frame(bumped))
        assert lower < low


def test_pole_error_outscores_equator_error():
    h, w = 64, 128
    base = np.full((h, w), 100, dtype=np.int32)
    pole = base.copy()
    pole[0, :32] += 20
    equator = base.copy()
    equator[h // 2, :32] += 20
    ref = luma_frame(base)
    assert metrics.ws_psnr(ref, luma_frame(pole)) > metrics.ws_psnr(
        ref, luma_frame(equator)
    )


def test_ten_bit_peak():
    ref = luma_frame(np.full((8, 16), 512, dtype=np.int32), bit_depth=10)
    test = luma_frame(np.full((8, 16), 513, dtype=np.int32), bit_depth=10)
    expect = 20.0 * math.log10(1023.0)
    assert abs(metrics.ws_psnr(ref, test) - expect) < 1e-9


def test_chroma_mix_uses_cap_for_clean_planes():
    rng = np.random.default_rng(2)
    y_ref = rng.integers(0, 255, size=(16, 32), dtype=np.int32)
    y_test = y_ref + 1
    c = rng.integers(0, 256, size=(8, 16), dtype=np.int32)
    ref = ErpFrame(width=32, height=16, bit_depth=8, y=y_ref, cb=c, cr=c)
    test = ErpFrame(width=32, height=16, bit_depth=8, y=y_test, cb=c, cr=c)
    got = metrics.ws_psnr(ref, test, chroma=True)
    psnr_y = metrics.ws_psnr(ref, test)
    expect = (6.0 * psnr_y + 2.0 * metrics.PSNR_CAP) / 8.0
    assert abs(got - expect) < 1e-9
    with pytest.raises(DomainError):
        metrics.ws_psnr(
            luma_frame(y_ref), luma_frame(y_test), chroma=True
        )


def test_mismatched_shapes_rejected():
    a = luma_frame(np.zeros((8, 16), dtype=np.int32))
    b = luma_frame(np.zeros((16, 32), dtype=np.int32))
    with pytest.raises(DomainError):
        metrics.ws_psnr(a, b)


# --- BD-rate --------------------------------------------------------------------


RATES_A = [100.0, 200.0, 400.0, 800.0]
QUALS_A = [30.0, 33.0, 36.0, 39.0]


def test_rd_validation():
    with pytest.raises(DomainError):
        RDCurve([0.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        RDCurve([1.0, 2.0, 3.0, 4.0], [1.0, float("nan"), 3.0, 4.0])
    with pytest.raises(DomainError):
        RDCurve([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # too few
    with pytest.raises(DomainError):
        RDCurve([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])  # unequal lengths
    with pytest.raises(DomainError):
        RDCurve([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        RDCurve([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 4.0])


def test_identical_curves_zero():
    a = RDCurve(RATES_A, QUALS_A)
    b = RDCurve(RATES_A, QUALS_A)
    assert abs(metrics.bd_rate(a, b)) < 1e-9


def test_doubled_rate_is_plus_hundred():
    a = RDCurve(RATES_A, QUALS_A)
    b = RDCurve([2.0 * r for r in RATES_A], QUALS_A)
    assert abs(metrics.bd_rate(a, b) - 100.0) < 1e-6
    assert abs(metrics.bd_rate(b, a) + 50.0) < 1e-6


def test_reciprocity():
    a = RDCurve(RATES_A, QUALS_A)
    b = RDCurve([130.0, 255.0, 490.0, 910.0], [30.5, 33.2, 36.4, 39.1])
    fwd = metrics.bd_rate(a, b)
    rev = metrics.bd_rate(b, a)
    assert abs(fwd + rev / (1.0 + rev / 100.0)) < 0.05


def test_disjoint_quality_ranges_rejected():
    a = RDCurve(RATES_A, [10.0, 11.0, 12.0, 13.0])
    b = RDCurve(RATES_A, [30.0, 31.0, 32.0, 33.0])
    with pytest.raises(DomainError):
        metrics.bd_rate(a, b)


def test_external_reference_vector():
    # 4-point RD pair circulating in codec-comparison tutorials; expected
    # value frozen from an independently written cubic-fit evaluation
    anchor = RDCurve(
        [1358.24, 2486.44, 4593.60, 9487.76],
        [34.851, 36.845, 38.615, 40.037],
    )
    test = RDCurve(
        [1356.24, 2451.52, 4469.00, 9787.80],
        [34.987, 36.970, 38.651, 40.121],
    )
    assert abs(metrics.bd_rate(anchor, test) - (-4.420463)) < 0.01


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), -1e300])
def test_rd_validation_raises_no_numpy_warning(bad):
    # each bad value is refused with DomainError, and numpy warns about none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rates, quals in (([1.0, 2.0, bad, 4.0], QUALS_A), (RATES_A, [1.0, bad, 3.0, 4.0])):
            with pytest.raises(DomainError):
                RDCurve(rates, quals)


def test_curve_holds_read_only_float64_copies():
    rates = np.array(RATES_A)
    a = RDCurve(rates, [30, 33, 36, 39])
    assert a.rates.dtype == a.qualities.dtype == np.float64
    rates[0] = 1e9
    assert a.rates[0] == RATES_A[0]
    with pytest.raises(ValueError):
        a.rates[0] = 1.0
