"""Forward model: canonical points and the synthetic period presentation."""

import json
import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from torelli_lab import binforms, ivhs, surfaces
from torelli_lab.binforms import ProjectivePointP1
from torelli_lab.errors import UsageError
from torelli_lab.ivhs import (
    BASIS_INDEPENDENCE_TOL,
    LAMBDA_MAX,
    LAMBDA_MIN,
    MIXER_COND_MAX,
    InvalidPresentationError,
    IVHSPresentation,
    MalformedPresentationError,
    NonGenericSurfaceError,
    canonical_point,
    load_presentation,
    presentation_from_json_dict,
    presentation_to_json_dict,
    synthesize,
    truth_to_json_dict,
)
from torelli_lab.recovery import StageError, roundtrip
from torelli_lab.surfaces import make_random_general, make_with_I2


def save_presentation(p: IVHSPresentation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_json_dict(p), fh, indent=2)
        fh.write("\n")


def test_canonical_point_examples():
    p = canonical_point(ProjectivePointP1.from_affine(2.0), 3)
    direction = np.array([1.0, 2.0, 4.0])
    overlap = abs(np.vdot(p.x, direction / np.linalg.norm(direction)))
    assert abs(overlap - 1.0) < 1e-14

    inf = canonical_point(ProjectivePointP1.infinity(), 3)
    assert np.allclose(inf.x, [0.0, 0.0, 1.0])

    zero = canonical_point(ProjectivePointP1.from_affine(0.0), 5)
    assert np.allclose(zero.x, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_canonical_point_is_unit_normalized():
    p = canonical_point(ProjectivePointP1.from_affine(1.5 - 2.0j), 6)
    assert abs(np.linalg.norm(p.x) - 1.0) < 1e-14
    pivot = p.x[np.argmax(np.abs(p.x) > 1e-12)]
    assert abs(pivot.imag) < 1e-14 and pivot.real > 0


def test_synthesize_shapes_and_gram():
    s = make_random_general(3, seed=1)
    pres, truth = synthesize(s, seed=1)
    assert (pres.h, pres.N) == (3, 38)
    assert pres.basis.shape == (38, 3, 38)
    assert len(truth.points) == 38
    assert truth.y_frame.shape == (38, 38)
    frame_err = np.linalg.norm(
        truth.y_frame.conj().T @ truth.y_frame - np.eye(38), 2)
    assert frame_err < 1e-12
    assert np.all(np.abs(truth.lambdas) >= 0.1 - 1e-12)
    assert np.all(np.abs(truth.lambdas) <= 10.0 + 1e-12)
    assert np.linalg.cond(truth.mixer) <= 100.0 * (1 + 1e-9)


def test_span_is_independent_of_the_synthesis_seed():
    s = make_random_general(3, seed=1)
    p1, _ = synthesize(s, seed=11)
    p2, _ = synthesize(s, seed=99)
    angles = subspace_angles(p1.flattened().conj().T, p2.flattened().conj().T)
    assert float(np.max(angles)) < 1e-8


def test_span_depends_on_the_frame():
    # an explicit frame override changes the rank-1 directions, hence the span
    s = make_random_general(3, seed=1)
    p1, _ = synthesize(s, seed=5, frame_seed=1)
    p2, _ = synthesize(s, seed=5, frame_seed=2)
    angles = subspace_angles(p1.flattened().conj().T, p2.flattened().conj().T)
    assert float(np.max(angles)) > 1e-3


def test_basis_matrices_have_full_rank_h():
    s = make_random_general(3, seed=2)
    pres, _ = synthesize(s, seed=2)
    for j in range(pres.N):
        sv = np.linalg.svd(pres.basis[j], compute_uv=False)
        assert sv[pres.h - 1] / sv[0] > 1e-6


def test_synthesize_rejects_non_general_surface():
    s = make_with_I2(3, [0], seed=1)
    with pytest.raises(NonGenericSurfaceError):
        synthesize(s, seed=0)


def test_presentation_validates_independence():
    basis = np.zeros((2, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1.0
    basis[1, 0, 0] = 1.0    # dependent copies
    with pytest.raises(InvalidPresentationError):
        IVHSPresentation(h=2, N=2, basis=basis)


def test_presentation_json_roundtrip(tmp_path):
    s = make_random_general(3, seed=3)
    pres, truth = synthesize(s, seed=3)
    path = tmp_path / "ivhs.json"
    save_presentation(pres, path)
    back = load_presentation(path)
    assert (back.h, back.N) == (pres.h, pres.N)
    # the hex string holds the bytes, so the decode gives back the same bits
    assert np.array_equal(back.basis, pres.basis)
    data = presentation_to_json_dict(pres)
    again = presentation_from_json_dict(data)
    assert np.array_equal(again.basis, pres.basis)
    tdata = truth_to_json_dict(truth)
    assert len(tdata["points"]) == 38 and len(tdata["lambdas"]) == 38


def _tiny_presentation_data():
    rng = np.random.default_rng(8)
    basis = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
    return json.loads(json.dumps(presentation_to_json_dict(
        IVHSPresentation(h=2, N=3, basis=basis))))


def _nested_basis(data):
    """The basis of ``data`` in the nested [re, im] list layout that files
    written before the hex layout hold."""
    basis = np.frombuffer(bytes.fromhex(data["basis"]), "<c16")
    return [[[[z.real, z.imag] for z in row] for row in m]
            for m in basis.reshape(data["N"], data["h"], data["N"]).tolist()]


# The last five are files in the nested [re, im] list layout, well formed or
# with one of the defects that layout could carry; each is rejected as a file
# of the old layout, whatever its defect.  h and N are JSON integers: a
# float, a string or a bool is rejected, not truncated.
NOT_INTEGERS = {"float h": ("h", 2.9), "string h": ("h", "2"),
                "float N": ("N", 3.5), "bool h": ("h", True),
                "integral float N": ("N", 3.0)}


@pytest.mark.parametrize("defect", [
    "non-hex", "odd length", "missing entry", "extra byte", "not a string",
    "no basis", *NOT_INTEGERS, "nested lists", "ragged row", "one part",
    "three parts", "string part"])
def test_presentation_decode_rejects_malformed_data(defect):
    data = _tiny_presentation_data()
    assert presentation_from_json_dict(data).basis.shape == (3, 2, 3)
    packed = data["basis"]
    if defect in NOT_INTEGERS:
        key, value = NOT_INTEGERS[defect]
        data[key] = value
        if value is True:       # with a basis that h = 1 would fill
            data["basis"] = packed[:2 * 16 * 3 * 1 * 3]
    elif defect == "non-hex":
        data["basis"] = packed[:10] + "zz" + packed[12:]
    elif defect == "odd length":
        data["basis"] = packed[:-1]
    elif defect == "missing entry":
        data["basis"] = packed[:-32]
    elif defect == "extra byte":
        data["basis"] = packed + "00"
    elif defect == "not a string":
        data["basis"] = bytes.fromhex(packed)
    elif defect == "no basis":
        del data["basis"]
    else:
        data["basis"] = _nested_basis(data)
        entries = data["basis"][1][0]
        if defect == "ragged row":
            entries.append([0.0, 0.0])
        elif defect == "one part":
            entries[2] = entries[2][:1]
        elif defect == "three parts":
            entries[2].append(0.0)
        elif defect == "string part":
            entries[2][0] = "0.5"
    with pytest.raises(UsageError) as err:
        presentation_from_json_dict(data)
    assert "hex string of (N, h, N) little-endian complex128 bytes" \
        in str(err.value)
    if defect in NOT_INTEGERS:
        assert isinstance(err.value, MalformedPresentationError)


def test_presentation_file_packs_the_basis_bit_exactly():
    pres, _ = synthesize(make_random_general(8, seed=1), seed=1)
    data = json.loads(json.dumps(presentation_to_json_dict(pres)))
    assert sorted(data) == ["N", "basis", "h"]
    # 16 bytes per complex128 entry, two hex digits per byte
    assert len(data["basis"]) == 2 * 16 * 88 * 8 * 88 == 1_982_464
    back = presentation_from_json_dict(data)
    assert back.basis.dtype == np.dtype("<c16")
    assert np.array_equal(back.basis.view(np.uint64),
                          np.ascontiguousarray(pres.basis).view(np.uint64))


@pytest.mark.parametrize("h,N", [(3, 0), (0, 2)])
def test_empty_presentation_is_invalid(h, N):
    with pytest.raises(InvalidPresentationError, match="h >= 1 and N >= 1"):
        IVHSPresentation(h=h, N=N, basis=np.zeros((N, h, N)))


def test_presentation_decode_of_mismatched_shape_is_invalid():
    data = _tiny_presentation_data()
    data["N"] = 4
    with pytest.raises(InvalidPresentationError):
        presentation_from_json_dict(data)


@pytest.mark.parametrize("ratio,accepted", [(0.5, False), (2.0, True)])
def test_independence_cut_sits_at_its_tolerance(ratio, accepted):
    # flattened basis with singular values 1, 1, 1, ratio * tol
    rng = np.random.default_rng(6)
    n, h = 4, 3
    left, _ = np.linalg.qr(rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((h * n, n))
                            + 1j * rng.standard_normal((h * n, n)))
    svals = np.array([1.0, 1.0, 1.0, ratio * BASIS_INDEPENDENCE_TOL])
    basis = ((left * svals) @ right.conj().T).reshape(n, h, n)
    if accepted:
        IVHSPresentation(h=h, N=n, basis=basis)
    else:
        with pytest.raises(InvalidPresentationError):
            IVHSPresentation(h=h, N=n, basis=basis)


def _count_linalg(monkeypatch):
    """Call counts of ``np.linalg``'s cholesky, svd and qr, by name."""
    counts = dict.fromkeys(("cholesky", "svd", "qr"), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name),
                    **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("h", [3, 4, 5, 6, 7, 8])
def test_synthesized_presentations_are_certified_without_an_svd(
        monkeypatch, h):
    # the rows x_k (x) y_k are orthonormal, so sigma_min/sigma_max is at
    # least 1/(MIXER_COND_MAX * LAMBDA_MAX / LAMBDA_MIN) = 1e-4, far inside
    # what the Cholesky certificate proves; synthesize's proof by
    # construction needs that bound at least five orders above the cut
    assert MIXER_COND_MAX * LAMBDA_MAX / LAMBDA_MIN == pytest.approx(1e4)
    assert (MIXER_COND_MAX * LAMBDA_MAX / LAMBDA_MIN
            * BASIS_INDEPENDENCE_TOL) <= 1e-5
    pres, _ = synthesize(make_random_general(h, seed=h), seed=h)
    counts = _count_linalg(monkeypatch)
    IVHSPresentation(h=pres.h, N=pres.N, basis=pres.basis)
    assert counts["cholesky"] == 1 and counts["svd"] == 0


def test_synthesize_proves_independence_without_a_factorization(monkeypatch):
    # the Khatri-Rao identity proves the basis independent, so neither the
    # Cholesky certificate nor an SVD runs; the frame and the mixer take
    # one Haar QR each
    s = make_random_general(5, seed=0)
    counts = _count_linalg(monkeypatch)
    synthesize(s, seed=0)
    assert counts == {"cholesky": 0, "svd": 0, "qr": 2}


def _drawn_svals(seed, n):
    """The mixer's singular values, replayed from synthesize's draws: the
    weights' magnitudes and phases, then the condition number."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=2 * n)
    cond = np.exp(rng.uniform(0.0, np.log(MIXER_COND_MAX)))
    return np.exp(np.linspace(0.0, -np.log(cond), n))


@pytest.mark.parametrize("h", [3, 5, 8])
def test_synthesized_basis_has_the_singular_values_of_the_weighted_mixer(h):
    pres, truth = synthesize(make_random_general(h, seed=h), seed=h)
    sv = np.linalg.svd(pres.flattened(), compute_uv=False)
    weighted = np.linalg.svd(truth.mixer * truth.lambdas, compute_uv=False)
    np.testing.assert_allclose(sv, weighted, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        np.linalg.svd(truth.mixer, compute_uv=False),
        _drawn_svals(h, pres.N), rtol=1e-14, atol=0.0)


def test_presentation_file_is_certified_once(monkeypatch):
    pres, _ = synthesize(make_random_general(3, seed=1), seed=1)
    data = json.loads(json.dumps(presentation_to_json_dict(pres)))
    counts = _count_linalg(monkeypatch)
    presentation_from_json_dict(data)
    assert counts["cholesky"] == 1


def test_corrupted_span_is_certified_once(monkeypatch):
    counts = _count_linalg(monkeypatch)
    with pytest.raises(StageError):
        roundtrip(make_random_general(3, seed=5), seed=5, corrupt_span=True)
    assert counts["cholesky"] == 1


@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_independence_cut_is_decided_by_the_svd(monkeypatch, ratio):
    counts = _count_linalg(monkeypatch)
    try:
        test_independence_cut_sits_at_its_tolerance(ratio, ratio > 1.0)
    finally:
        monkeypatch.undo()
    assert counts["svd"] == 1


LOG_RATIOS = [-1, -3, -5, -6, -7, -8, -9, -11, -12, -13]


def _graded_basis(log_ratio, n, h):
    """A basis whose flattening has singular values spread evenly in log
    scale from 1 to 10^log_ratio."""
    rng = np.random.default_rng(-log_ratio)
    left, _ = np.linalg.qr(rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((h * n, n))
                            + 1j * rng.standard_normal((h * n, n)))
    svals = np.logspace(0.0, log_ratio, n)
    return ((left * svals) @ right.conj().T).reshape(n, h, n)


@pytest.mark.parametrize("log_ratio", LOG_RATIOS)
def test_certificate_and_svd_give_one_verdict(log_ratio, n=12, h=4):
    # flattened bases at sigma_min/sigma_max = 10^log_ratio, from
    # comfortably independent to below the cut: the verdict is the SVD's
    basis = _graded_basis(log_ratio, n, h)
    sv = np.linalg.svd(basis.reshape(n, h * n).T, compute_uv=False)
    if sv[-1] > BASIS_INDEPENDENCE_TOL * sv[0]:
        IVHSPresentation(h=h, N=n, basis=basis)
    else:
        with pytest.raises(InvalidPresentationError):
            IVHSPresentation(h=h, N=n, basis=basis)


@pytest.mark.parametrize("n,h", [(58, 5), (88, 8)])
@pytest.mark.parametrize("log_ratio", LOG_RATIOS)
def test_certificate_and_svd_give_one_verdict_at_benchmark_scale(
        monkeypatch, log_ratio, n, h):
    # the sizes of the round-trip and recovery workloads, where the
    # Cholesky margin c is largest; a comfortably independent basis is
    # still certified without an SVD
    test_certificate_and_svd_give_one_verdict(log_ratio, n, h)
    counts = _count_linalg(monkeypatch)
    if log_ratio >= -5:
        IVHSPresentation(h=h, N=n, basis=_graded_basis(log_ratio, n, h))
        assert counts["svd"] == 0


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(-np.inf, 1.0)])
def test_nonfinite_basis_is_invalid(entry):
    basis = np.eye(4, dtype=complex).reshape(4, 1, 4).repeat(3, axis=1)
    basis[2, 1, 3] = entry
    with pytest.raises(InvalidPresentationError, match="NaN or Inf"):
        IVHSPresentation(h=3, N=4, basis=basis)


def test_presentation_by_construction_checks_shape_and_finiteness():
    # synthesize's constructor skips only the independence certificate
    basis = np.eye(4, dtype=complex).reshape(4, 1, 4).repeat(3, axis=1)
    with pytest.raises(InvalidPresentationError, match="expected basis"):
        ivhs._presentation_by_construction(3, 4, basis[:, :2])
    basis[2, 1, 3] = np.nan
    with pytest.raises(InvalidPresentationError, match="NaN or Inf"):
        ivhs._presentation_by_construction(3, 4, basis)


@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1.0, 1e200, 1e300])
def test_independence_verdict_does_not_depend_on_the_scale(scale):
    # the Gram matrix of a basis near the ends of the float range must
    # neither overflow nor warn: the certificate scales by a power of 2
    rng = np.random.default_rng(4)
    basis = rng.standard_normal((4, 3, 4)) + 1j * rng.standard_normal((4, 3, 4))
    dependent = basis.copy()
    dependent[3] = dependent[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        IVHSPresentation(h=3, N=4, basis=basis * scale)
        with pytest.raises(InvalidPresentationError):
            IVHSPresentation(h=3, N=4, basis=dependent * scale)


def test_sampled_surface_builds_w_once(monkeypatch):
    calls = []
    original = binforms.transvectant_first

    def counted(f, g):
        calls.append(1)
        return original(f, g)

    for module in (binforms, surfaces):
        monkeypatch.setattr(module, "transvectant_first", counted)
    s = make_random_general(5, seed=0)
    synthesize(s, seed=0)
    assert len(calls) == 1


def test_sampled_surface_runs_a_gcd_on_delta_and_w_only(monkeypatch):
    pairs = []
    original = binforms.poly_gcd

    def recorded(a, b):
        pairs.append((binforms._to_int_primitive(a),
                      binforms._to_int_primitive(b)))
        return original(a, b)

    monkeypatch.setattr(binforms, "poly_gcd", recorded)
    s = make_random_general(5, seed=0)
    synthesize(s, seed=0)
    expected = []
    for form in (surfaces.discriminant(s), surfaces.ramification_form(s)):
        a = binforms._to_int_primitive(form.coeffs)
        expected.append((a, binforms._to_int_primitive(
            binforms.poly_derivative(a))))
    assert pairs == expected
