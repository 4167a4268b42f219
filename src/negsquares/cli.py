"""Batch command-line interface.

Loads a function document, runs one of the analysis pipelines and writes a
CSV or JSON report.  Every run takes an explicit seed; identical inputs
produce byte-identical outputs.

Exit codes: 0 success, 2 validation error, 3 numerical-contract violation,
4 inconclusive (plateau not reached within budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classify import hindmarsh_test, plateau_classify, verify_witness, witness_plan
from .functions import BlaschkeProduct, PointConfig, disk_samples, load_function
from .hermitian import (
    DEFAULT_TOL,
    NegSquaresError,
    NumericsError,
    TolerancePolicy,
    ValidationError,
    _spectrum,
    stein_series_sum,
)
from .pick import Region, SearchBudget, kn_profile, profile_to_csv, profile_to_document
from .realization import (
    SIGNATURE_J,
    build_theta,
    extract_sigma,
    realize_blaschke,
    reconstruct_f,
    theta_kernel_residual,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3
EXIT_INCONCLUSIVE = 4

COMMANDS = ("profile", "classify", "witness", "verify-theta", "verify-blaschke", "hindmarsh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negsquares",
        description=(
            "Pick-matrix analysis of disk functions: negative-square profiles, "
            "class estimates, witness placement and realization checks."
        ),
        epilog=(
            "Regions: 'whole' | 'disk,CRE,CIM,R' | 'annulus,RMIN,RMAX,TMIN,TMAX'. "
            "CSV columns for profile: n, best_count, witness_1.. as re+imi "
            "literals with 17 significant digits."
        ),
    )
    parser.add_argument("--spec", required=True, help="path to a function document (JSON)")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--n-max", type=int, default=6, help="profile size limit / node count")
    parser.add_argument("--seed", type=int, required=True, help="run seed (no wall-clock default)")
    parser.add_argument("--tol", type=float, default=None, help="relative zero threshold override")
    parser.add_argument("--region", default="whole", help="search region (see below)")
    parser.add_argument(
        "--budget", default=None, help="CONFIGS,ROUNDS search budget (default 200,40)"
    )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "structured"), default="structured")
    return parser


def _parse_region(text: str) -> Region:
    parts = [p.strip() for p in text.split(",")]
    if parts[0] in ("whole", "whole-disk"):
        return Region.whole_disk()
    try:
        if parts[0] == "disk":
            if len(parts) != 4:
                raise ValidationError("disk region needs disk,CRE,CIM,R")
            return Region.disk(complex(float(parts[1]), float(parts[2])), float(parts[3]))
        if parts[0] in ("annulus", "annulus-sector"):
            if len(parts) != 5:
                raise ValidationError("annulus region needs annulus,RMIN,RMAX,TMIN,TMAX")
            return Region.annulus_sector(*(float(p) for p in parts[1:]))
    except ValueError as exc:
        raise ValidationError(f"region {text!r}: {exc}") from exc
    raise ValidationError(f"unknown region kind {parts[0]!r}")


def _parse_budget(text: str | None) -> SearchBudget:
    if text is None:
        return SearchBudget()
    try:
        configs, rounds = (int(p) for p in text.split(","))
    except ValueError as exc:  # a part is not an integer, or there are not two parts
        raise ValidationError("budget must be CONFIGS,ROUNDS") from exc
    return SearchBudget(configs, rounds)


def _emit(payload: str, out: str | None):
    if out is None:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(payload, encoding="utf-8")


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _kv_csv(pairs: list[tuple[str, object]]) -> str:
    lines = ["key,value"]
    lines += [f"{k},{v}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _run_profile(f, args, region, budget, tol) -> int:
    result = kn_profile(f, args.n_max, region, budget, args.seed, tol)
    payload = profile_to_csv(result) if args.format == "csv" else _dump(
        profile_to_document(result)
    )
    _emit(payload, args.out)
    return EXIT_OK


def _run_classify(f, args, region, budget, tol) -> int:
    report = plateau_classify(f, region, budget, args.seed, tol)
    n_report = report.minimal_witness
    doc = report.to_document()
    doc["minimal_witness_size"] = n_report.to_document() if n_report else None
    if args.format == "csv":
        pairs = [(k, v) for k, v in sorted(doc.items()) if k not in ("profile",)]
        payload = _kv_csv(pairs)
    else:
        payload = _dump(doc)
    _emit(payload, args.out)
    return EXIT_INCONCLUSIVE if report.inconclusive else EXIT_OK


def _run_witness(f, args, budget, tol) -> int:
    plan = witness_plan(f, seed=args.seed)
    report = verify_witness(f, plan, tol=tol)
    doc = {
        "success": report.success,
        "achieved_epsilon": report.achieved_epsilon,
        "target": report.target,
        "inertia": list(report.inertia.as_tuple()),
        "trajectory": [
            {"epsilon": e, "inertia": list(t)} for e, t in report.trajectory
        ],
        "witness": (
            [[p.value.real, p.value.imag] for p in report.witness]
            if report.witness is not None
            else None
        ),
    }
    if args.format == "csv":
        payload = _kv_csv(sorted((k, v) for k, v in doc.items() if k != "trajectory"))
    else:
        payload = _dump(doc)
    _emit(payload, args.out)
    return EXIT_OK if report.success else EXIT_NUMERICS


def _run_verify_theta(f, args, region, tol) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(7,)))
    jump_pool = [z for z in f.jump_points() if region.contains(z)]
    nodes = None
    # invertibility may require the jump points (rank concentrates there) and
    # rank-deficient kernels cap the usable node count, so try structured
    # prefixes and fall back to smaller draws before giving up
    for n in range(max(1, min(args.n_max, 8)), 0, -1):
        for k in range(64):
            base = jump_pool[:n] if k % 2 == 0 else []
            need = n - len(base)
            draw = list(base) + list(region.sample(rng, need)) if need else list(base)
            try:
                cand = PointConfig.from_complex(draw)
                if all(f.is_defined_at(p) for p in cand) and all(
                    p.value in jump_pool
                    or abs(complex(f.blaschke.eval(p.value))) > 1e-6
                    for p in cand
                ):
                    theta = build_theta(f, cand, tol)
                    nodes = cand
                    break
            except NegSquaresError:
                continue
        if nodes is not None:
            break
    if nodes is None:
        raise NumericsError("no node set with invertible Pick matrix found")

    th = theta.eval(np.exp(2j * np.pi * np.arange(64) / 64))
    j_unitarity = float(np.max(np.abs(th @ SIGNATURE_J @ th.conj().swapaxes(-1, -2) - SIGNATURE_J)))
    pair_pts = disk_samples(20, radius=0.9)
    kernel = float(np.max(theta_kernel_residual(theta, pair_pts[:5], pair_pts[5:10])))
    roundtrip = 0.0
    jumps = set(f.jump_points())
    for z in pair_pts:
        if any(abs(z - p.value) < 1e-6 for p in nodes) or not f.is_defined_at(z) or z in jumps:
            continue
        try:
            sigma = extract_sigma(theta, f, z)
            back = reconstruct_f(theta, sigma, z)
        except NumericsError:
            continue
        fv = f.eval(z)
        roundtrip = max(roundtrip, abs(back - fv) / max(1.0, abs(fv)))
    doc = {
        "nodes": [[p.value.real, p.value.imag] for p in nodes],
        "stein_residual": theta.stein_residual,
        "j_unitarity_residual": j_unitarity,
        "kernel_residual": kernel,
        "roundtrip_relative_error": roundtrip,
    }
    pinv_norm = float(1.0 / np.min(np.abs(_spectrum(theta.p.entries)[0])))
    ok = (
        theta.stein_residual <= 1e-11 * (1.0 + theta.p.norm_max())
        and j_unitarity <= 1e-10
        and kernel <= 1e-10 * (1.0 + pinv_norm)
        and roundtrip <= 1e-10
    )
    doc["ok"] = ok
    payload = _kv_csv(sorted(doc.items())) if args.format == "csv" else _dump(doc)
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_NUMERICS


def _run_verify_blaschke(f, args, tol) -> int:
    if f.blaschke.degree == 0:
        raise ValidationError("function document carries no denominator zeros to realize")
    realization = realize_blaschke(f.blaschke.zeros)
    reference = BlaschkeProduct.normalized(f.blaschke.zeros)
    samples = disk_samples(200, radius=0.95)
    want = reference.eval(samples)
    agree = float(np.max(np.abs(realization.eval(samples) - want) / np.maximum(1.0, np.abs(want))))
    kernel = float(np.max(realization.kernel_residual(samples[:10], samples[10:20])))
    series = stein_series_sum(realization.a, np.outer(realization.e, realization.e.conj()))
    series_gap = float(np.max(np.abs(series - realization.k.entries)))
    # the sum's rounding grows like 1/(1 - |w|^2) as a zero w nears the circle
    # (about 1e-16 times that); the cap keeps the check from going vacuous there
    gap_bound = min(1e-11 / (1.0 - max(abs(w.value) for w, _ in f.blaschke.zeros) ** 2), 1e-6)
    doc = {
        "degree": realization.degree,
        "product_agreement": agree,
        "kernel_residual": kernel,
        "stein_series_gap": series_gap,
        "ok": bool(agree <= 1e-10 and kernel <= 1e-10 and series_gap <= gap_bound),
    }
    payload = _kv_csv(sorted(doc.items())) if args.format == "csv" else _dump(doc)
    _emit(payload, args.out)
    return EXIT_OK if doc["ok"] else EXIT_NUMERICS


def _run_hindmarsh(f, args, region, budget, tol) -> int:
    triples = max(budget.configurations, 1000)
    report = hindmarsh_test(f, region, triples, args.seed, tol)
    doc = {
        "consistent": report.consistent,
        "triples_tested": report.triples_tested,
        "violation": (
            [[p.value.real, p.value.imag] for p in report.violation]
            if report.violation is not None
            else None
        ),
        "most_negative": report.most_negative,
    }
    payload = _kv_csv(sorted(doc.items())) if args.format == "csv" else _dump(doc)
    _emit(payload, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        f = load_function(Path(args.spec).read_text(encoding="utf-8"))
        region = _parse_region(args.region)
        budget = _parse_budget(args.budget)
        tol = DEFAULT_TOL if args.tol is None else TolerancePolicy.relative(args.tol)
        if args.command == "profile":
            return _run_profile(f, args, region, budget, tol)
        if args.command == "classify":
            return _run_classify(f, args, region, budget, tol)
        if args.command == "witness":
            return _run_witness(f, args, budget, tol)
        if args.command == "verify-theta":
            return _run_verify_theta(f, args, region, tol)
        if args.command == "verify-blaschke":
            return _run_verify_blaschke(f, args, tol)
        if args.command == "hindmarsh":
            return _run_hindmarsh(f, args, region, budget, tol)
        raise ValidationError(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericsError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except NegSquaresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
