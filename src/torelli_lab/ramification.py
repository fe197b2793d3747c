"""The ramification divisor of the classifying morphism.

For Weierstrass data (g4, g6) the classifying morphism of the fibration
ramifies exactly where the first transvectant of the pair vanishes: on the
affine chart the derivative of j1 = g4^3/g6^2 vanishes where
2 g4 g6' - 3 g6 g4' does, and the homogeneous Jacobian determinant extends
that locus through infinity with the correct total degree
10*dL - 2 = 10h + 8(1-q).

The degree law is exact, and so is the genericity report, which is decided
in ``surfaces.genericity``; the form W and its squarefree decomposition are
kept on the surface by ``surfaces.ramification_form`` and
``surfaces.ramification_factors``.  Only the divisor's point coordinates
are floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import binforms
from .binforms import BinaryForm, DivisorP1
from .errors import ConsistencyError
from .surfaces import (
    GeneralityReport,
    IsotrivialError,
    WeierstrassSurface,
    genericity,
    invariants,
    ramification_factors,
    ramification_form,
)


@dataclass(frozen=True)
class RamificationDivisor:
    form: BinaryForm
    divisor: DivisorP1
    total_degree: int


def ramification_divisor(s: WeierstrassSurface) -> RamificationDivisor:
    """Zero divisor of the transvectant, with the exact degree law checked."""
    w = ramification_form(s)
    expected = invariants(s).N
    if w.degree != expected:
        raise ConsistencyError(
            f"degree bookkeeping violated: deg W = {w.degree}, "
            f"expected {expected}")
    divisor = binforms.divisor_from_factors(w, ramification_factors(s))
    if divisor.degree != w.degree:
        raise ConsistencyError(
            f"root multiplicities sum to {divisor.degree}, not deg W = {w.degree}")
    return RamificationDivisor(form=w, divisor=divisor, total_degree=w.degree)


def is_general(s: WeierstrassSurface) -> GeneralityReport:
    """Exact genericity test; the report carries every failing clause."""
    return genericity(s)


def schottky_degree_check(s: WeierstrassSurface) -> bool:
    """Integer bookkeeping: the divisor-class degree 10*deg(H) - 9*deg(K),
    the bundle degree deg(10L + K), and the transvectant degree must agree."""
    h, q = s.h, s.q
    deg_h = h + q - 1
    deg_k = 2 * q - 2
    class_degree = 10 * deg_h - 9 * deg_k
    bundle_degree = 10 * s.dL + deg_k
    w_degree = ramification_form(s).degree
    return class_degree == bundle_degree == w_degree == invariants(s).N


# ---------------------------------------------------------------------------
# divisor JSON
# ---------------------------------------------------------------------------

def divisor_to_json_dict(d: DivisorP1) -> dict:
    return {"points": [{"z": p.to_json(), "mult": mult} for p, mult in d],
            "degree": d.degree}

