"""Desk-scale computations around Weierstrass elliptic surfaces over P^1.

The package builds Weierstrass models (g4, g6), computes their ramification
divisors through the first transvectant, synthesizes the rank-1 structure of
the derivative of the period map, recovers the ramification points and the
base curve back from that data alone, and verifies the residue calculus of
the underlying plumbing construction in exact arithmetic.
"""

from .binforms import (
    BinaryForm,
    DivisorP1,
    ProjectivePointP1,
    roots_projective,
    transvectant_first,
)
from .errors import TorelliLabError, UsageError
from .ivhs import (
    EmbeddedPoint,
    GroundTruth,
    IVHSPresentation,
    canonical_point,
    synthesize,
)
from .jets import JetSeries
from .plumbing import (
    JetCoefficients,
    check_closed_forms,
    check_eta_proportionality,
    residue_pair,
)
from .ramification import (
    RamificationDivisor,
    is_general,
    ramification_divisor,
    schottky_degree_check,
)
from .recovery import (
    RankOneFactor,
    RecoveredGeometry,
    RoundTripReport,
    extract_rank_ones,
    rank_one_oracle_bruteforce,
    recover_geometry,
    roundtrip,
)
from .surfaces import (
    Invariants,
    WeierstrassSurface,
    classify_fibers,
    discriminant,
    invariants,
    make_random_general,
    make_with_I2,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "DivisorP1",
    "EmbeddedPoint",
    "GroundTruth",
    "IVHSPresentation",
    "Invariants",
    "JetCoefficients",
    "JetSeries",
    "ProjectivePointP1",
    "RamificationDivisor",
    "RankOneFactor",
    "RecoveredGeometry",
    "RoundTripReport",
    "TorelliLabError",
    "UsageError",
    "WeierstrassSurface",
    "canonical_point",
    "check_closed_forms",
    "check_eta_proportionality",
    "classify_fibers",
    "discriminant",
    "extract_rank_ones",
    "invariants",
    "is_general",
    "make_random_general",
    "make_with_I2",
    "rank_one_oracle_bruteforce",
    "ramification_divisor",
    "recover_geometry",
    "residue_pair",
    "roots_projective",
    "roundtrip",
    "schottky_degree_check",
    "synthesize",
    "transvectant_first",
]
