"""Command-line front end: exit codes, determinism, file flows."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torelli_lab
from conftest import save_surface
from torelli_lab import ivhs, surfaces
from torelli_lab.cli import build_parser, main
from torelli_lab.surfaces import make_random_general, make_with_I2


def run_module(*argv):
    """``python -m torelli_lab *argv`` on the package these tests import,
    also from a checkout that is not installed."""
    src = str(Path(torelli_lab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "torelli_lab", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def without_timestamp(path):
    data = read_json(path)
    data.pop("timestamp", None)
    return data


def test_generate_writes_surface(tmp_path):
    out = tmp_path / "s.json"
    assert main(["generate", "--h", "3", "--seed", "1", "-o", str(out)]) == 0
    data = read_json(out)
    assert data["dL"] == 4 and len(data["g4"]) == 17


def test_generate_gate_is_usage_error(tmp_path, capsys):
    assert main(["generate", "--h", "2", "-o", str(tmp_path / "x.json")]) == 2
    assert "error:usage" in capsys.readouterr().err


def test_roundtrip_gate_is_one_usage_error_before_any_trial(capsys):
    assert main(["roundtrip", "--h", "2", "--trials", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error:usage: gate h >= q+3 fails: h = 2, q = 0\n"


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "--h", "3", "--seed", "9", "-o", str(a)])
    main(["generate", "--h", "3", "--seed", "9", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_with_i2_points(tmp_path):
    out = tmp_path / "s.json"
    assert main(["generate", "--h", "3", "--seed", "1", "--i2", "0,1",
                 "-o", str(out)]) == 0
    rep = tmp_path / "r.json"
    assert main(["analyze", str(out), "-o", str(rep)]) == 0
    data = read_json(rep)
    assert data["fibers"]["I2_count"] >= 2
    assert data["genericity"]["is_general"] is False
    assert "c" in data["genericity"]["failed_clauses"]


def test_analyze_reports_invariants(tmp_path):
    surf = tmp_path / "s.json"
    main(["generate", "--h", "3", "--seed", "2", "-o", str(surf)])
    rep = tmp_path / "r.json"
    assert main(["analyze", str(surf), "-o", str(rep)]) == 0
    data = read_json(rep)
    assert data["invariants"]["N"] == 38
    assert data["ramification"]["total_degree"] == 38
    assert data["genericity"]["is_general"] is True
    assert data["schottky_degree_ok"] is True


def test_analyze_determinism_modulo_timestamp(tmp_path):
    surf = tmp_path / "s.json"
    main(["generate", "--h", "3", "--seed", "2", "-o", str(surf)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["analyze", str(surf), "-o", str(a)])
    main(["analyze", str(surf), "-o", str(b)])
    assert without_timestamp(a) == without_timestamp(b)


def test_report_blocks_keep_their_key_order(tmp_path):
    # every digest hashes with sort_keys, so only this test sees the order
    surf, rep, rt = (tmp_path / name for name in ("s.json", "a.json", "r.json"))
    main(["generate", "--h", "3", "--seed", "2", "-o", str(surf)])
    assert main(["analyze", str(surf), "-o", str(rep)]) == 0
    data = read_json(rep)
    assert list(data["invariants"]) == [
        "h", "q", "chi", "N", "c2", "deg_phi", "deg_canonical_curve", "h11"]
    assert list(data["genericity"]) == [
        "is_general", "all_fibers_i1", "ram_reduced",
        "ram_avoids_discriminant", "failed_clauses", "warnings"]
    assert main(["roundtrip", "--h", "3", "--trials", "1", "-o", str(rt)]) == 0
    assert list(read_json(rt)["trials"][0]) == [
        "h", "N", "seed", "max_chordal", "mean_chordal", "quadric_dim",
        "residual_max", "point_residual_max", "recovered_dL", "dL_matches",
        "min_confidence", "stage_timings_ms", "status"]


def test_analyze_isotrivial_exits_one(tmp_path, capsys):
    # g4 = 3u^2, g6 = u^3 with u of degree 8 makes Delta identically zero
    from fractions import Fraction
    from torelli_lab.binforms import poly_mul, poly_strip
    u = poly_strip([Fraction(1), Fraction(1)])
    u2, u3 = poly_mul(u, u), poly_mul(poly_mul(u, u), u)
    data = {
        "q": 0, "dL": 4,
        "g4": [str(3 * c) for c in u2] + ["0"] * (17 - len(u2)),
        "g6": [str(c) for c in u3] + ["0"] * (25 - len(u3)),
    }
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 1
    assert "isotrivial" in capsys.readouterr().err


def test_ivhs_recover_flow(tmp_path):
    surf = tmp_path / "s.json"
    main(["generate", "--h", "3", "--seed", "3", "-o", str(surf)])
    pres = tmp_path / "ivhs.json"
    truth = tmp_path / "truth.json"
    assert main(["ivhs", str(surf), "--seed", "4", "--emit-truth", str(truth),
                 "-o", str(pres)]) == 0
    assert truth.exists()
    tdata = read_json(truth)
    assert len(tdata["points"]) == 38
    geom = tmp_path / "geom.json"
    assert main(["recover", str(pres), "--seed", "4", "-o", str(geom)]) == 0
    gdata = read_json(geom)
    assert gdata["status"] == "ok"
    assert gdata["quadric_dim"] == 1
    assert gdata["min_confidence"] > 0.999


def test_recover_reports_the_line_degree(tmp_path):
    surf = tmp_path / "s.json"
    main(["generate", "--h", "4", "--seed", "1", "-o", str(surf)])
    pres = tmp_path / "ivhs.json"
    assert main(["ivhs", str(surf), "--seed", "2", "-o", str(pres)]) == 0
    geom = tmp_path / "geom.json"
    assert main(["recover", str(pres), "--seed", "2", "-o", str(geom)]) == 0
    assert read_json(geom)["recovered_dL"] == 5


def write_rank_one_presentation(path, h, n):
    """The span of n random rank-1 tensors in C^(h x n), mixed."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, h)) + 1j * rng.standard_normal((n, h))
    y = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    mixer = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    basis = np.einsum("jk,ki,ak->jia", mixer, x, y)
    path.write_text(json.dumps(ivhs.presentation_to_json_dict(
        ivhs.IVHSPresentation(h=h, N=n, basis=basis))))


def test_recover_rejects_a_point_count_that_fits_no_surface(tmp_path, capsys):
    # 37 rank-1 tensors in C^(3 x 37): N = 10h + 8(1 - q) has no solution
    pres = tmp_path / "ivhs.json"
    write_rank_one_presentation(pres, h=3, n=37)
    assert main(["recover", str(pres), "-o", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:recover:")
    assert "37 recovered points fit no admissible (h, q)" in err
    assert not (tmp_path / "g.json").exists()


def test_recover_rejects_a_point_count_that_fits_q_one(tmp_path, capsys):
    # 50 = 10h + 8(1 - q) at h = 5 fits q = 1, which recovery does not handle
    pres = tmp_path / "ivhs.json"
    write_rank_one_presentation(pres, h=5, n=50)
    assert main(["recover", str(pres), "-o", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:recover:")
    assert "50 recovered points fit q = 1 with h = 5" in err
    assert not (tmp_path / "g.json").exists()


def test_ivhs_rejects_non_general_surface(tmp_path, capsys):
    s = make_with_I2(3, [0], seed=1)
    surf = tmp_path / "i2.json"
    save_surface(s, surf)
    assert main(["ivhs", str(surf), "-o", str(tmp_path / "p.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_roundtrip_command(tmp_path):
    rep = tmp_path / "rt.json"
    assert main(["roundtrip", "--h", "3", "--trials", "2", "--seed", "7",
                 "-o", str(rep)]) == 0
    data = read_json(rep)
    assert data["summary"]["all_ok"] is True
    assert data["summary"]["quadric_dims"] == [1]
    assert [t["seed"] for t in data["trials"]] == [7, 8]
    assert all(t["max_chordal"] < 1e-6 for t in data["trials"])


def test_roundtrip_corrupt_span_reports_stage_error(tmp_path):
    rep = tmp_path / "rt.json"
    code = main(["roundtrip", "--h", "3", "--trials", "1", "--seed", "1",
                 "--corrupt-span", "-o", str(rep)])
    assert code == 1
    data = read_json(rep)
    assert data["summary"]["all_ok"] is False
    assert data["trials"][0]["status"] == "error:extract"


def test_roundtrip_determinism_modulo_timings(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        main(["roundtrip", "--h", "3", "--trials", "3", "--seed", "11",
              "-o", str(path)])
    da, db = without_timestamp(first), without_timestamp(second)
    for trial_a, trial_b in zip(da["trials"], db["trials"]):
        trial_a.pop("stage_timings_ms")
        trial_b.pop("stage_timings_ms")
    assert da == db


def test_plumb_verify_low_order(tmp_path):
    rep = tmp_path / "p2.json"
    assert main(["plumb-verify", "--order", "2", "--trials", "5",
                 "-o", str(rep)]) == 0
    assert read_json(rep)["status"] == "ok"


def test_plumb_verify_command(tmp_path):
    rep = tmp_path / "p.json"
    assert main(["plumb-verify", "--trials", "10", "-o", str(rep)]) == 0
    data = read_json(rep)
    assert data["status"] == "ok"
    assert set(data["identities"]) == {
        "closed_forms", "leading_term", "residue_term", "linearity",
        "proportionality"}
    assert all(v["failures"] == 0 for v in data["identities"].values())
    assert data["residue_audit"]


def test_oracle_command_modes(tmp_path):
    built = tmp_path / "b.json"
    assert main(["oracle", "--mode", "built", "-o", str(built)]) == 0
    data = read_json(built)
    assert data["oracle_factors"] == 3 and data["factor_sets_agree"]
    generic = tmp_path / "g.json"
    assert main(["oracle", "--mode", "generic", "-o", str(generic)]) == 0
    data = read_json(generic)
    assert data["oracle_factors"] == 0
    assert data["extractor_status"].startswith("error")


def test_module_entrypoint_runs():
    proc = run_module("plumb-verify", "--trials", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """A valid surface and presentation, a text file that is not JSON, a
    file that is not UTF-8, presentations whose basis is malformed, and
    presentations whose h or N is not an integer."""
    root = tmp_path_factory.mktemp("inputs")
    files = {name: root / f"{name}.json"
             for name in ("surface", "presentation", "text", "binary")}
    assert main(["generate", "--h", "3", "--seed", "1",
                 "-o", str(files["surface"])]) == 0
    assert main(["ivhs", str(files["surface"]),
                 "-o", str(files["presentation"])]) == 0
    files["text"].write_text("{not json", encoding="utf-8")
    files["binary"].write_bytes(b"\xff\xfe\x00")
    # presentation files with a malformed basis, one per defect
    data = read_json(files["presentation"])
    packed = data["basis"]
    nested = np.frombuffer(bytes.fromhex(packed), "<c16").reshape(
        data["N"], data["h"], data["N"]).tolist()
    bases = {
        "nonhex": "zz" + packed[2:],
        "oddhex": packed[:-1],
        "shorthex": packed[:-32],
        "numberbasis": 0,
        "nobasis": None,
        "nested": [[[[z.real, z.imag] for z in row] for row in m]
                   for m in nested],
    }
    for name, basis in bases.items():
        bad = {k: v for k, v in data.items() if k != "basis"}
        if basis is not None:
            bad["basis"] = basis
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(bad), encoding="utf-8")
    # h and N that are not JSON integers, with a well-formed basis
    for name, key, value in (("floath", "h", data["h"] + 0.9),
                             ("stringh", "h", str(data["h"])),
                             ("floatn", "N", data["N"] + 0.5)):
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps({**data, key: value}),
                               encoding="utf-8")
    return files


USAGE_ERRORS = [
    ["ivhs", "{surface}", "--seed", "-1"],
    ["ivhs", "{surface}", "--frame-seed", "-1"],
    ["recover", "{presentation}", "--seed", "-1"],
    ["roundtrip", "--h", "3", "--seed", "-1"],
    ["oracle", "--seed", "-1"],
    ["generate", "--h", "3", "--seed", "-5"],
    ["plumb-verify", "--trials", "2", "--seed", "-3"],
    ["plumb-verify", "--trials", "-3", "--order", "-1"],
    ["plumb-verify", "--trials", "0"],
    ["plumb-verify", "--trials", "2", "--order", "-1"],
    ["roundtrip", "--h", "3", "--trials", "0"],
    ["roundtrip", "--h", "3", "--trials", "-2"],
    ["analyze", "{text}"],
    ["ivhs", "{text}"],
    ["recover", "{text}"],
    ["analyze", "{binary}"],
    ["recover", "{binary}"],
    ["recover", "{nonhex}"],
    ["recover", "{oddhex}"],
    ["recover", "{shorthex}"],
    ["recover", "{numberbasis}"],
    ["recover", "{nobasis}"],
    ["recover", "{nested}"],
    ["recover", "{floath}"],
    ["recover", "{stringh}"],
    ["recover", "{floatn}"],
    ["generate", "--h", "3", "--i2", "1/0"],
    ["roundtrip", "--h", "2"],
    # rejected by the argument parser itself
    ["generate", "--seed", "1"],
    ["generate", "--h", "3", "--seed", "x"],
    ["roundtrip", "--h", "3", "--unknown"],
    ["frobnicate"],
]

# the recovery thresholds and the forward-model bounds are module constants
DELETED_FLAGS = [
    ["ivhs", "{surface}", "--lambda-min", "0.1"],
    ["ivhs", "{surface}", "--lambda-max", "10"],
    ["ivhs", "{surface}", "--mixer-cond", "100"],
    ["recover", "{presentation}", "--confidence-min", "0.999"],
    ["recover", "{presentation}", "--nullspace-rel-tol", "1e-8"],
    ["recover", "{presentation}", "--match-tol", "1e-6"],
    ["roundtrip", "--h", "3", "--confidence-min", "0.999"],
    ["roundtrip", "--h", "3", "--nullspace-rel-tol", "1e-8"],
    ["roundtrip", "--h", "3", "--match-tol", "1e-6"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS + DELETED_FLAGS,
                         ids=[" ".join(a) for a in USAGE_ERRORS + DELETED_FLAGS])
def test_bad_input_is_a_usage_error_without_a_traceback(input_files, argv):
    argv = [a.format(**{k: str(v) for k, v in input_files.items()})
            for a in argv]
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:usage: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# surface files whose q or dL is not a JSON integer, whose g4 is not a list,
# or with a coefficient that is neither a JSON integer nor a rational string
# or that exceeds the height bound
SURFACE_DEFECTS = {
    "float dL": ("dL", 4.9),
    "float q": ("q", 0.5),
    "integral float dL": ("dL", 4.0),
    "bool q": ("q", False),
    "string dL": ("dL", "4"),
    "object g4": ("g4", {str(k): 1 for k in range(17)}),
    "infinite coefficient": ("g4", [float("inf")] + [1] * 16),
    "nan coefficient": ("g4", [float("nan")] + [1] * 16),
    "float coefficient": ("g4", [0.1] + [1] * 16),
    "bool coefficient": ("g4", [True] + [1] * 16),
    "zero denominator": ("g4", ["1/0"] + [1] * 16),
    "exponent past the height bound": ("g4", ["1e1000000"] + [1] * 16),
}


@pytest.mark.parametrize("defect", SURFACE_DEFECTS)
def test_malformed_surface_file_is_a_usage_error(tmp_path, capsys, defect):
    key, value = SURFACE_DEFECTS[defect]
    data = {"q": 0, "dL": 4, "g4": ["1"] * 17, "g6": ["1"] * 25, key: value}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:usage: malformed surface data: ")
    assert out == ""


def test_generate_writes_the_bytes_of_save_surface(tmp_path):
    out, ref = tmp_path / "out.json", tmp_path / "ref.json"
    assert main(["generate", "--h", "3", "--seed", "9", "-o", str(out)]) == 0
    save_surface(make_random_general(3, seed=9), ref)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("digits", [100, 200, 320, 400])
def test_analyze_on_a_tall_coefficient_is_a_typed_error(tmp_path, digits):
    # within the height bound, but past what double-precision root location
    # handles (10^100 already fails to separate the points): the analysis
    # fails, and says so as a typed error
    data = surfaces.surface_to_json_dict(make_random_general(3, seed=0))
    data["g4"][0] = "1" + "0" * digits
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = run_module("analyze", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:analyze: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_surface_coefficients_may_be_json_integers(tmp_path):
    surface = make_with_I2(3, [0], seed=1)
    data = surfaces.surface_to_json_dict(surface)
    data["g6"] = [int(c) if c.lstrip("-").isdigit() else c for c in data["g6"]]
    assert any(isinstance(c, int) for c in data["g6"])
    assert surfaces.surface_from_json_dict(data) == surface


def test_each_subcommand_has_exactly_its_pinned_options():
    # A new flag needs a caller that passes it a value other than its
    # default; a value that only ever takes its default is a module constant.
    out = {"-h", "--help", "-o", "--output"}
    pinned = {
        "generate": out | {"--h", "--seed", "--i2"},
        "analyze": out,
        "ivhs": out | {"--seed", "--frame-seed", "--emit-truth"},
        "recover": out | {"--seed"},
        "roundtrip": out | {"--h", "--trials", "--seed", "--corrupt-span"},
        "plumb-verify": out | {"--order", "--trials", "--seed"},
        "oracle": out | {"--mode", "--seed"},
    }
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {name: {opt for action in sub._actions
                   for opt in action.option_strings}
            for name, sub in commands.items()} == pinned
