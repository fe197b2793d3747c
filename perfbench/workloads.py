"""The benchmark's workloads: one input size each, unit k built from seed + k.

Every unit calls the package through module attributes (``surfaces.x``, not
an imported name) so that the tracer's rebinding sees the top-level calls.
A check inspects the unit's output outside the timed call and without
calling any traced function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from torelli_lab import ivhs, plumbing, ramification, recovery, surfaces
from torelli_lab.binforms import poly_derivative, poly_eval, poly_strip


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]              # seed -> inputs shared by units
    unit: Callable[[Any, int, int], Any]     # (inputs, k, seed + k) -> output
    check: Callable[[Any, Any, int], bool]   # (output, inputs, k) -> correct
    trace_units: int                         # units per phase of a traced run
    runs: int = 1                            # timed runs of a unit; the fastest counts
    corrected: bool = False                  # runs timed against run.reference_loop


def _no_inputs(seed):
    return None


# ---- certify: criterion 1 at its largest h ---------------------------------
# The exact kernel on integer forms does all the work: discriminant,
# transvectant, modular gcd, Yun and PRS on W and Delta, and root finding.

CERTIFY_H = 6
CERTIFY_N = 10 * CERTIFY_H + 8


def _certify(inputs, k, seed):
    return ramification.ramification_divisor(
        surfaces.make_random_general(CERTIFY_H, seed))


def _certify_ok(ram, inputs, k):
    return (ram.form.degree == ram.divisor.degree == ram.total_degree == CERTIFY_N
            and ram.divisor.is_reduced())


# ---- analyze-i2: the exact kernel on rational forms with double roots ------
# The same kernel used differently: rational coefficients, Delta with double
# roots, so the gcd test falls back to PRS and poly_gcd runs ten times as
# often.  A kernel change that speeds integer forms and slows this path shows.

I2_H = 3
I2_POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))


def _i2_points(k):
    return I2_POINTS[:1 + k % len(I2_POINTS)]


def _analyze_i2(inputs, k, seed):
    s = surfaces.make_with_I2(I2_H, _i2_points(k), seed)
    return (s,
            surfaces.classify_fibers(s),
            ramification.ramification_divisor(s),
            ramification.is_general(s),
            ramification.schottky_degree_check(s))


def _analyze_i2_ok(out, inputs, k):
    s, fibers, ram, general, schottky = out
    pts = _i2_points(k)
    delta = poly_strip((s.g4 ** 3 - 27 * s.g6 ** 2).coeffs)
    d1 = poly_derivative(delta)
    d2 = poly_derivative(d1)
    exact = all(poly_eval(delta, p) == 0 and poly_eval(d1, p) == 0
                and poly_eval(d2, p) != 0
                and ram.form.eval_pair(Fraction(1), p) == 0 for p in pts)
    return (exact and fibers.I2_count == len(pts)
            and "a" in general.failed_clauses and schottky)


# ---- roundtrip: criterion 3 and `torelli-lab roundtrip` --------------------
# synthesize re-certifies the surface, most of a trial; extraction,
# interpolation and matching take the rest.

ROUNDTRIP_H = 5


def _roundtrip(inputs, k, seed):
    return recovery.roundtrip(
        surfaces.make_random_general(ROUNDTRIP_H, seed), seed)


def _roundtrip_ok(report, inputs, k):
    return (report.status == "ok" and report.max_chordal < 1e-6
            and report.quadric_dim == recovery.expected_quadric_dimension(ROUNDTRIP_H)
            and report.residual_max <= 1e-9)


# ---- recover: recovery and linalg alone, on a presentation made in set-up --
# In roundtrip these layers are about a tenth of a trial, below the run-to-run
# spread; here they do all the work and the exact kernel none.

RECOVER_H = 8


def _recover_inputs(seed):
    s = surfaces.make_random_general(RECOVER_H, seed)
    presentation, truth = ivhs.synthesize(s, seed)
    return (ivhs.presentation_to_json_dict(presentation),
            np.vstack([ep.x for ep in truth.points]))


def _recover(inputs, k, seed):
    data, truth_x = inputs
    presentation = ivhs.presentation_from_json_dict(data)
    factors = recovery.extract_rank_ones(presentation, seed)
    geometry = recovery.recover_geometry(factors, presentation.h)
    return geometry, recovery.match_points(geometry.z_points, truth_x)


def _recover_ok(out, inputs, k):
    geometry, match = out
    return (match.max_chordal < 1e-6 and geometry.quadric_dim
            == recovery.expected_quadric_dimension(RECOVER_H))


# ---- verify: one trial of the exact residue chain --------------------------
# The plumbing and jets layers alone.  Small-fraction arithmetic in the
# interpreter slows with the load other tenants put on a shared core, and
# that load changes from minute to minute, so its runs are timed against
# run.reference_loop (corrected=True).  A trial (about 50 ms) is also shorter
# than the bursts of load that the loops around it do not see; so each timed
# unit runs four times, on the two cores in turn, and the fastest run counts
# (runs=4), which keeps the bursts out of the 90th percentile.

def _verify(inputs, k, seed):
    return plumbing.verification_report(trials=1, max_order=6, seed=seed)


def _verify_ok(report, inputs, k):
    return report["status"] == "ok"


WORKLOADS = {w.name: w for w in (
    Workload("certify", _no_inputs, _certify, _certify_ok, 60),
    Workload("analyze-i2", _no_inputs, _analyze_i2, _analyze_i2_ok, 60),
    Workload("roundtrip", _no_inputs, _roundtrip, _roundtrip_ok, 24),
    Workload("recover", _recover_inputs, _recover, _recover_ok, 60),
    Workload("verify", _no_inputs, _verify, _verify_ok, 150, runs=4, corrected=True),
)}
