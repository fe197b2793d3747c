"""Batch command-line front end.

Commands: generate, analyze, ivhs, recover, roundtrip, plumb-verify, oracle.
Reports are JSON with deterministic content for identical command lines,
except the top-level "timestamp" and the per-trial "stage_timings_ms" of
roundtrip, which golden comparisons must ignore.  Roundtrip trials run one
after another in seed order.  Exit codes: 0 success, 1 computation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import ivhs as ivhs_mod
from . import plumbing, ramification, recovery, surfaces
from .errors import TorelliLabError, UsageError


def _emit(data: dict, path) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _stamp(data: dict) -> dict:
    data["timestamp"] = time.time()
    return data


def _check_seed(value, flag: str) -> None:
    """numpy rejects a negative seed, and random.Random(-s) aliases s."""
    if value is not None and value < 0:
        raise UsageError(f"{flag} must be a non-negative integer, got {value}")


def _parse_points(text: str):
    try:
        return [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"could not parse --i2 points: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    _check_seed(args.seed, "--seed")
    if args.i2:
        points = _parse_points(args.i2)
        surface = surfaces.make_with_I2(args.h, points, args.seed)
    else:
        surface = surfaces.make_random_general(args.h, args.seed)
    _emit(surfaces.surface_to_json_dict(surface), args.output)
    return 0


def cmd_analyze(args) -> int:
    surface = surfaces.load_surface(args.surface)
    inv = surfaces.invariants(surface)
    fibers = surfaces.classify_fibers(surface)
    ram = ramification.ramification_divisor(surface)
    report = ramification.is_general(surface)
    data = _stamp({
        "invariants": inv.to_json_dict(),
        "fibers": fibers.to_json_dict(),
        "ramification": {
            "total_degree": ram.total_degree,
            "divisor": ramification.divisor_to_json_dict(ram.divisor),
        },
        "genericity": report.to_json_dict(),
        "schottky_degree_ok": ramification.schottky_degree_check(surface),
    })
    _emit(data, args.output)
    return 0


def cmd_ivhs(args) -> int:
    _check_seed(args.seed, "--seed")
    _check_seed(args.frame_seed, "--frame-seed")
    surface = surfaces.load_surface(args.surface)
    presentation, truth = ivhs_mod.synthesize(
        surface, args.seed, frame_seed=args.frame_seed)
    _emit(ivhs_mod.presentation_to_json_dict(presentation), args.output)
    if args.emit_truth:
        with open(args.emit_truth, "w", encoding="utf-8") as fh:
            json.dump(ivhs_mod.truth_to_json_dict(truth), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_recover(args) -> int:
    _check_seed(args.seed, "--seed")
    presentation = ivhs_mod.load_presentation(args.presentation)
    factors = recovery.extract_rank_ones(presentation, args.seed)
    recovered_dl = recovery.recovered_line_degree(presentation.h, len(factors))
    geometry = recovery.recover_geometry(factors, presentation.h)
    data = _stamp({
        "h": presentation.h,
        "N": presentation.N,
        "recovered_dL": recovered_dl,
        "quadric_dim": geometry.quadric_dim,
        "point_residual_max": geometry.point_residual_max,
        "min_confidence": min(f.confidence for f in factors),
        "z_points": [[[z.real, z.imag] for z in row]
                     for row in geometry.z_points],
        "status": "ok",
    })
    _emit(data, args.output)
    return 0


def _one_roundtrip(surface_h, trial_seed, corrupt):
    try:
        surface = surfaces.make_random_general(surface_h, trial_seed)
    except TorelliLabError as exc:
        return {"h": surface_h, "seed": trial_seed,
                "status": "error:generate", "message": str(exc)}
    try:
        report = recovery.roundtrip(surface, trial_seed, corrupt_span=corrupt)
        return report.to_json_dict()
    except recovery.StageError as exc:
        return {
            "h": surface_h,
            "seed": trial_seed,
            "status": f"error:{exc.stage}",
            "message": str(exc),
        }


def cmd_roundtrip(args) -> int:
    _check_seed(args.seed, "--seed")
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    surfaces.check_degree_gate(args.h, 0)
    trials = [_one_roundtrip(args.h, args.seed + k, args.corrupt_span)
              for k in range(args.trials)]
    ok = [t for t in trials if t["status"] == "ok"]
    summary = {
        "requested": args.trials,
        "succeeded": len(ok),
        "all_ok": len(ok) == args.trials,
        "worst_max_chordal": max((t["max_chordal"] for t in ok), default=None),
        "worst_residual": max((t["residual_max"] for t in ok), default=None),
        "quadric_dims": sorted({t["quadric_dim"] for t in ok}),
    }
    data = _stamp({"h": args.h, "base_seed": args.seed,
                   "summary": summary, "trials": trials})
    _emit(data, args.output)
    return 0 if summary["all_ok"] else 1


def cmd_plumb_verify(args) -> int:
    _check_seed(args.seed, "--seed")
    report = plumbing.verification_report(
        trials=args.trials, max_order=args.order, seed=args.seed)
    _emit(_stamp(report), args.output)
    return 0 if report["status"] == "ok" else 1


def _tiny_built_presentation():
    x = np.array([[1.0, 0.0], [0.0, 1.0],
                  [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]], dtype=complex)
    basis = np.zeros((3, 2, 3), dtype=complex)
    for k in range(3):
        basis[k, :, k] = x[k]
    return ivhs_mod.IVHSPresentation(h=2, N=3, basis=basis)


def _tiny_generic_presentation(seed):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    return ivhs_mod.IVHSPresentation(h=3, N=3, basis=basis)


def cmd_oracle(args) -> int:
    _check_seed(args.seed, "--seed")
    if args.mode == "built":
        presentation = _tiny_built_presentation()
        expected = 3
    else:
        presentation = _tiny_generic_presentation(args.seed)
        expected = 0
    oracle_factors = recovery.rank_one_oracle_bruteforce(
        presentation, seed=args.seed)
    try:
        extracted = recovery.extract_rank_ones(presentation, args.seed)
        extract_status = "ok"
    except TorelliLabError as exc:
        extracted = []
        extract_status = f"error: {exc}"
    pair_dist = None
    agree = None
    if extract_status == "ok" and len(extracted) == len(oracle_factors):
        dists = []
        for f in extracted:
            dists.append(min(
                max(recovery.chordal_distance(f.x, g.x),
                    recovery.chordal_distance(f.y, g.y))
                for g in oracle_factors))
        pair_dist = max(dists) if dists else 0.0
        agree = pair_dist < 1e-8
    expected_met = (len(oracle_factors) == expected and
                    (agree if args.mode == "built"
                     else extract_status != "ok"))
    data = _stamp({
        "mode": args.mode,
        "h": presentation.h,
        "N": presentation.N,
        "oracle_factors": len(oracle_factors),
        "extractor_status": extract_status,
        "extractor_factors": len(extracted),
        "max_factor_distance": pair_dist,
        "factor_sets_agree": agree,
        "expected_met": bool(expected_met),
        "status": "ok" if expected_met else "failed",
    })
    _emit(data, args.output)
    return 0 if expected_met else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections (unknown flag, malformed or
    missing value) carry the ``error:usage:`` prefix of every usage error.
    ``add_subparsers`` builds the subcommand parsers with this class too."""

    def error(self, message):
        self.exit(2, f"error:usage: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torelli-lab",
        description="Weierstrass surfaces over P^1: ramification divisors, "
                    "synthetic period data, rank-one recovery, and exact "
                    "residue verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="construct a surface and write its JSON")
    p.add_argument("--h", type=int, required=True, help="geometric genus (>= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--i2", type=str, default=None,
                   help="comma-separated rational points for prescribed I2 fibres")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze",
                       help="invariants, fibre table, ramification, genericity")
    p.add_argument("surface")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ivhs", help="emit the synthetic period presentation")
    p.add_argument("surface")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-seed", type=int, default=None)
    p.add_argument("--emit-truth", default=None,
                   help="write the ground truth to this path")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_ivhs)

    p = sub.add_parser("recover",
                       help="rank-one extraction and quadric interpolation")
    p.add_argument("presentation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("roundtrip",
                       help="generate, synthesize, recover, and match")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base seed; trial k uses seed+k")
    p.add_argument("--corrupt-span", action="store_true",
                   help="negative control: perturb the span by a non-rank-1 matrix")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("plumb-verify",
                       help="exact residue-calculus identity suite")
    p.add_argument("--order", type=int, default=plumbing.MAX_ORDER_DEFAULT)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_plumb_verify)

    p = sub.add_parser("oracle",
                       help="tiny brute-force cross-check of the extractor")
    p.add_argument("--mode", choices=("built", "generic"), default="built")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error:usage: {exc}", file=sys.stderr)
        return 2
    except recovery.StageError as exc:
        print(f"error:{exc.stage}: {exc}", file=sys.stderr)
        return 1
    except TorelliLabError as exc:
        stage = getattr(args, "command", "run")
        print(f"error:{stage}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
