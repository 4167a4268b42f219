"""Seeded input generator for the benchmark workloads.

Every workload is a fixed list of structures (pole multiplicities, jump
counts, polynomial and product degrees, realization degrees).  A run goes
through rounds; each round holds every structure once, with positions and
values drawn from (seed, round).  The seed moves positions and values only,
so two seeds cost about the same, and averaging over rounds evens out the
cost differences that positions still cause.

The generator writes plain function documents (the CLI's JSON format) and
imports nothing from the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCAN_TRIPLES = 10_000

# scan: bounded Schur functions from the grammar, no poles, no jumps
SCAN_STRUCTURES = (
    ("constant",),
    ("poly", 3),
    ("blaschke", 2),
    ("product", ("poly", 2), ("blaschke", 1)),
    ("scale", ("blaschke", 2)),
)

# certify and classify: (pole multiplicities, jump count, jump on first pole,
# numerator kind).  Jumps on a pole location are the coincident case.
SINGULAR_STRUCTURES = (
    ((1,), 0, False, "poly"),
    ((), 1, False, "constant"),
    ((1,), 1, False, "poly"),
    ((2,), 0, False, "constant"),
    ((1,), 1, True, "poly"),
    ((1, 1), 1, False, "constant"),
    ((2, 1), 0, False, "poly"),
    ((1,), 2, False, "constant"),
    ((2, 1), 1, True, "poly"),
    ((2, 1), 2, False, "constant"),
)

# classify runs every singular structure on the whole disk (kappa = q + l
# from 1 to 5), plus one pole-and-jump pair on the whole disk and restricted
# to a disk around its jump and around its pole, as in acceptance criterion
# 10.  With 13 calls a round, the median call of a two-round run falls inside
# the cluster of cheap calls instead of on the gap between the 0.2-0.7 s and
# the 1-4.5 s calls, which moved op_p50_ms by up to 25% between runs.
CLASSIFY_REGION_STRUCTURE = ((1,), 1, False, "constant")

RING_RADIUS = 0.9
RING_DEGREES = (48, 40, 32, 24, 16)  # largest first: peak memory is reached early
RANDOM_RADIUS = 0.7
RANDOM_DEGREES = (8, 12, 16, 20, 24)

# a jump on a double pole: the witness shrink loop stalls one negative short
# of q + l for about 2% of positions at the seed commit (NOTES.md, known
# defects), so that call runs in the fragile workload; the hindmarsh call
# on the same function stays in certify
WITNESS_FRAGILE = 8

WORKLOADS = ("scan", "certify", "classify", "realize", "fragile")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its spec document, extra arguments and what to expect."""

    label: str
    spec: dict
    args: tuple[str, ...]
    expect: dict

    def argv(self, spec_path: Path) -> list[str]:
        return ["--spec", str(spec_path), *self.args]


# ---------------------------------------------------------------------------
# documents


def _c(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _polar(rng: np.random.Generator, r_max: float) -> complex:
    return complex(r_max * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))


def _schur_node(rng: np.random.Generator, shape) -> dict:
    kind = shape[0]
    if kind == "constant":
        r = 0.3 + 0.65 * rng.random()
        return {"kind": "constant", "value": _c(r * np.exp(2j * np.pi * rng.random()))}
    if kind == "poly":
        deg = shape[1]
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        raw /= np.sum(np.abs(raw)) * (1.0 + 0.05 * rng.random())
        return {"kind": "poly", "coeffs": [_c(c) for c in raw]}
    if kind == "blaschke":
        zeros = [{"zero": _c(_polar(rng, 0.6)), "mult": 1} for _ in range(shape[1])]
        return {"kind": "blaschke", "zeros": zeros, "phase": _c(np.exp(2j * np.pi * rng.random()))}
    if kind == "product":
        return {"kind": "product", "factors": [_schur_node(rng, s) for s in shape[1:]]}
    if kind == "scale":
        return {
            "kind": "scale",
            "factor": float(0.5 + 0.5 * rng.random()),
            "inner": _schur_node(rng, shape[1]),
        }
    raise ValueError(f"unknown schur shape {shape!r}")


def _nonvanishing_numerator(rng: np.random.Generator, kind: str) -> dict:
    """Schur numerator with no zero in the disk, so it shares none with B."""
    if kind == "constant":
        return {"kind": "constant", "value": _c((0.6 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random()))}
    a = 0.45 * rng.random() * np.exp(2j * np.pi * rng.random())
    scale = 0.9 + 0.1 * rng.random()
    return {"kind": "poly", "coeffs": [_c(scale / (1 + abs(a))), _c(scale * a / (1 + abs(a)))]}


def _anchors(rng: np.random.Generator, count: int) -> list[complex]:
    """Singularity locations pairwise 0.35 apart inside |z| < 0.6."""
    while True:
        pts: list[complex] = []
        for _ in range(200):
            c = _polar(rng, 0.6)
            if all(abs(c - a) > 0.35 for a in pts):
                pts.append(c)
                if len(pts) == count:
                    return pts


def singular_function(rng: np.random.Generator, structure) -> tuple[dict, list, list]:
    """Standard function S/B with jumps, with its pole and jump locations."""
    mults, ell, coincident, numerator = structure
    poles = len(mults)
    anchors = _anchors(rng, max(poles + ell - int(coincident), 1))
    pole_locs = anchors[:poles]
    jump_locs = ([pole_locs[0]] if coincident else []) + anchors[poles:]
    jump_locs = jump_locs[:ell]
    jumps = []
    for i, z in enumerate(jump_locs):
        magnitude = 2.0 if i % 2 == 0 else 0.3
        jumps.append({"at": _c(z), "value": _c(magnitude * np.exp(2j * np.pi * rng.random()))})
    doc = {
        "spec_version": 1,
        "schur": _nonvanishing_numerator(rng, numerator),
        "blaschke": [{"zero": _c(w), "mult": m} for w, m in zip(pole_locs, mults)],
        "jumps": jumps,
    }
    return doc, pole_locs, jump_locs


def _blaschke_quotient(zeros: list[complex]) -> dict:
    return {
        "spec_version": 1,
        "schur": {"kind": "constant", "value": [1.0, 0.0]},
        "blaschke": [{"zero": _c(w), "mult": 1} for w in zeros],
        "jumps": [],
    }


# ---------------------------------------------------------------------------
# workloads


def _rng(seed: int, workload: str, rnd: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, rnd)))


def _cli_seed(seed: int, rnd: int, index: int) -> str:
    return str(seed + 1000 * rnd + index)


def _scan(seed: int, rnd: int) -> list[Invocation]:
    rng = _rng(seed, "scan", rnd)
    out = []
    for i, shape in enumerate(SCAN_STRUCTURES):
        spec = {"spec_version": 1, "schur": _schur_node(rng, shape), "blaschke": [], "jumps": []}
        args = ("--command", "hindmarsh", "--seed", _cli_seed(seed, rnd, i),
                "--budget", f"{SCAN_TRIPLES},40")
        out.append(Invocation(f"scan-{i}-{shape[0]}", spec, args,
                              {"check": "scan", "triples": SCAN_TRIPLES}))
    return out


def _certify(seed: int, rnd: int) -> list[Invocation]:
    rng = _rng(seed, "certify", rnd)
    out = []
    for i, structure in enumerate(SINGULAR_STRUCTURES):
        spec, _, _ = singular_function(rng, structure)
        out.append(Invocation(f"certify-{i}-hindmarsh", spec,
                              ("--command", "hindmarsh", "--seed", _cli_seed(seed, rnd, i)),
                              {"check": "violation"}))
        if i != WITNESS_FRAGILE:
            out.append(Invocation(f"certify-{i}-witness", spec,
                                  ("--command", "witness", "--seed", _cli_seed(seed, rnd, i)),
                                  {"check": "witness"}))
    return out


def _classify_specs(seed: int, rnd: int) -> list[tuple[str, dict, str]]:
    """(label, spec, region) for every classify run."""
    rng = _rng(seed, "classify", rnd)
    runs = []
    for i, structure in enumerate(SINGULAR_STRUCTURES):
        spec, _, _ = singular_function(rng, structure)
        runs.append((f"classify-{i}", spec, "whole"))
    spec, (pole,), (jump,) = singular_function(rng, CLASSIFY_REGION_STRUCTURE)
    runs.append(("classify-pair-whole", spec, "whole"))
    # anchors are 0.35 apart inside |z| < 0.6, so each disk holds one
    # singularity and stays clear of the unit circle
    for name, center in (("jump", jump), ("pole", pole)):
        runs.append((f"classify-pair-near-{name}", spec, f"disk,{center.real!r},{center.imag!r},0.15"))
    return runs


def _classify(seed: int, rnd: int) -> list[Invocation]:
    return [
        Invocation(label, spec,
                   ("--command", "classify", "--seed", _cli_seed(seed, rnd, k), "--region", region),
                   {"check": "classify"})
        for k, (label, spec, region) in enumerate(_classify_specs(seed, rnd))
    ]


def _realize(seed: int, rnd: int) -> list[Invocation]:
    rng = _rng(seed, "realize", rnd)
    out = []
    for n in RING_DEGREES:
        phase = rng.random()
        zeros = [RING_RADIUS * np.exp(2j * np.pi * (k + phase) / n) for k in range(n)]
        out.append(Invocation(f"ring-{n}", _blaschke_quotient(zeros),
                              ("--command", "verify-blaschke", "--seed", _cli_seed(seed, rnd, 0)),
                              {"check": "ok", "degree": n}))
    return out


def _fragile(seed: int, rnd: int) -> list[Invocation]:
    """Inputs on which the seed commit fails: see NOTES.md, known defects."""
    rng = _rng(seed, "fragile", rnd)
    out = []
    for n in RANDOM_DEGREES:
        zeros = [_polar(rng, RANDOM_RADIUS) for _ in range(n)]
        out.append(Invocation(f"random-{n}", _blaschke_quotient(zeros),
                              ("--command", "verify-blaschke", "--seed", _cli_seed(seed, rnd, 0)),
                              {"check": "ok", "degree": n}))
    for k, (label, spec, region) in enumerate(_classify_specs(seed, rnd)):
        if region == "whole":
            out.append(Invocation(f"theta-{label}", spec,
                                  ("--command", "verify-theta", "--seed", _cli_seed(seed, rnd, k)),
                                  {"check": "ok"}))
    spec, _, _ = singular_function(rng, SINGULAR_STRUCTURES[WITNESS_FRAGILE])
    out.append(Invocation(f"certify-{WITNESS_FRAGILE}-witness", spec,
                          ("--command", "witness", "--seed", _cli_seed(seed, rnd, WITNESS_FRAGILE)),
                          {"check": "witness"}))
    return out


_BUILDERS = {
    "scan": _scan,
    "certify": _certify,
    "classify": _classify,
    "realize": _realize,
    "fragile": _fragile,
}


def build(workload: str, seed: int, rnd: int = 0) -> list[Invocation]:
    """Round ``rnd`` of the workload: every structure once, with fresh positions."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed, rnd)


def warmup(workload: str, invocations: list[Invocation]) -> Invocation:
    """The set-up call: a 1000-triple scan, otherwise the workload's cheapest entry."""
    if workload == "scan":
        first = invocations[0]
        return Invocation(f"{first.label}-warmup", first.spec,
                          ("--command", "hindmarsh", "--seed", "0", "--budget", "1000,40"),
                          {"check": "scan", "triples": 1000})
    return invocations[-1] if workload == "realize" else invocations[0]


def write_specs(invocations: list[Invocation], directory: Path) -> list[Path]:
    """Write each distinct spec once; return the path of each invocation's spec."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    out = []
    for inv in invocations:
        text = json.dumps(inv.spec, indent=2, sort_keys=True)
        if text not in paths:
            path = directory / f"spec-{len(paths):03d}.json"
            path.write_text(text, encoding="utf-8")
            paths[text] = path
        out.append(paths[text])
    return out
