"""Geodesic motion models and camera-motion tooling for 360-degree video.

The package covers the chain from sphere/ERP geometry, through per-block
motion compensation with geodesic displacement models, to camera direction
estimation, a compact camera-motion bitstream, and the usual rate/quality
metrics.  `geo360.cli` exposes the same functionality as subcommands.
"""

from .errors import (
    AmbiguousSignError,
    DegenerateGeometryError,
    DomainError,
    FormatError,
    Geo360Error,
    NoMotionError,
    TruncationError,
)
from .motion_model import (
    BlockSpec,
    GeodesicModelConfig,
    MotionVector2D,
    OpCount,
    default_delta,
)
from .mocomp import BlockComparison, ErpFrame, PredictionResult
from .camera_est import FlowField
from .cam_code import Bitstream
from .metrics import RDCurve, RDPoint
from .video_io import SequenceSpec, SynthConfig, SynthResult

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSignError",
    "Bitstream",
    "BlockComparison",
    "BlockSpec",
    "DegenerateGeometryError",
    "DomainError",
    "ErpFrame",
    "FlowField",
    "FormatError",
    "Geo360Error",
    "GeodesicModelConfig",
    "MotionVector2D",
    "NoMotionError",
    "OpCount",
    "PredictionResult",
    "RDCurve",
    "RDPoint",
    "SequenceSpec",
    "SynthConfig",
    "SynthResult",
    "TruncationError",
    "default_delta",
    "__version__",
]
