import json
import random

import numpy as np
import pytest

from torelli_lab.binforms import (
    CLUSTER_TOL,
    BinaryForm,
    DivisorP1,
    ProjectivePointP1,
    ZeroFormError,
    gcd_is_constant,
    poly_derivative,
    poly_strip,
)
from torelli_lab.ivhs import IVHSPresentation
from torelli_lab.plumbing import JetCoefficients, residue_pair
from torelli_lab.surfaces import surface_to_json_dict


def random_exact_form(rng: random.Random, degree: int, bound: int = 9) -> BinaryForm:
    coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-bound, bound)
    return BinaryForm(degree, coeffs)


def save_surface(s, path) -> None:
    """Write ``s`` as a surface file, byte for byte as ``generate`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_json_dict(s), fh, indent=2)
        fh.write("\n")


def poly_is_squarefree(a) -> bool:
    """Squarefreeness as the one gcd test gcd(a, a') = 1, apart from Yun's
    decomposition that the package reads it from: an independent oracle."""
    a = poly_strip(a)
    if not a:
        return False
    if len(a) <= 2:
        return True
    return gcd_is_constant(a, poly_derivative(a))


def form_is_squarefree(f: BinaryForm) -> bool:
    """Exact projective squarefreeness (affine part and infinity together),
    by ``poly_is_squarefree``."""
    if f.is_zero:
        raise ZeroFormError("squarefreeness of the zero form is undefined")
    if f.mult_at_infinity() > 1:
        return False
    return poly_is_squarefree(f.coeffs)


def multiplicity_at(divisor: DivisorP1, point: ProjectivePointP1) -> int:
    """Multiplicity of ``point`` in ``divisor``, matched at the clustering
    scale; 0 when the point is not in its support."""
    for p, m in divisor:
        if p.chordal(point) <= CLUSTER_TOL:
            return m
    return 0


def leading_coefficient(b: JetCoefficients):
    """Coefficient of q^{-2} in eta; the leading law says it equals
    -b[0,0]/4, i.e. one quarter of the 2-form's value at the point."""
    _, eta = residue_pair(b)
    return eta.coefficient(-2, 0)


def residue_coefficient(b: JetCoefficients):
    """Coefficient of q^{-1} in eta: (b[0,1] - b[1,0]) / 4.  Its vanishing
    is the local criterion for eta to define a cohomology class."""
    _, eta = residue_pair(b)
    return eta.coefficient(-1, 0)


@pytest.fixture
def tiny_built_presentation():
    """h=2, N=3 span of e1 (x) f1, e2 (x) f2, (e1+e2)/sqrt2 (x) f3."""
    x = np.array([[1.0, 0.0],
                  [0.0, 1.0],
                  [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]], dtype=complex)
    basis = np.zeros((3, 2, 3), dtype=complex)
    for k in range(3):
        basis[k, :, k] = x[k]
    return IVHSPresentation(h=2, N=3, basis=basis), x
