"""Multilevel gray-image thresholding by neutrosophic entropy minima.

Gray levels are mapped to truth/neutrality/falsity degrees against the two
class means induced by a candidate threshold; the per-level Shannon
entropies of those degrees are averaged over the image, and thresholds are
taken at the local minima of the resulting curve.
"""

from .axioms import AxiomCheck, run_axiom_checks
from .core import (
    BifuzzyPair,
    EscortPair,
    NeutroTriple,
    bifuzzy,
    dissimilarity,
    escort,
    neutro_components,
    neutro_entropy,
)
from .errors import (
    BadMagic,
    ConstantImage,
    DimensionMismatch,
    EmptyImage,
    MaxvalOutOfRange,
    NeutrosegError,
    NoCandidates,
    PgmError,
    SampleOutOfRange,
    ThresholdOutOfRange,
    TruncatedData,
    UnsortedThresholds,
)
from .image import GrayImage
from .imgio import (
    CURVE_HEADER,
    CurveColumns,
    load_curve,
    load_pgm,
    parse_curve,
    read_pgm,
    save_curve,
    save_pgm,
    write_curve,
    write_pgm,
)
from .segment import Segmentation, render, segment
from .sweep import (
    ClassStats,
    EntropyCurve,
    Histogram,
    ThresholdSet,
    build_histogram,
    candidate_thresholds,
    class_stats,
    entropy_curve,
    find_thresholds,
    partial_entropies,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "BadMagic",
    "BifuzzyPair",
    "CURVE_HEADER",
    "ClassStats",
    "ConstantImage",
    "CurveColumns",
    "DimensionMismatch",
    "EmptyImage",
    "EntropyCurve",
    "EscortPair",
    "GrayImage",
    "Histogram",
    "MaxvalOutOfRange",
    "NeutroTriple",
    "NeutrosegError",
    "NoCandidates",
    "PgmError",
    "SampleOutOfRange",
    "Segmentation",
    "ThresholdOutOfRange",
    "ThresholdSet",
    "TruncatedData",
    "UnsortedThresholds",
    "bifuzzy",
    "build_histogram",
    "candidate_thresholds",
    "class_stats",
    "dissimilarity",
    "entropy_curve",
    "escort",
    "find_thresholds",
    "load_curve",
    "load_pgm",
    "neutro_components",
    "neutro_entropy",
    "parse_curve",
    "partial_entropies",
    "read_pgm",
    "render",
    "run_axiom_checks",
    "save_curve",
    "save_pgm",
    "segment",
    "write_curve",
    "write_pgm",
    "__version__",
]
