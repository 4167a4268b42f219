"""Independent checks of CLI outputs.

Nothing here calls the package under test: function values come from an
evaluator of the document grammar written against the README, and Pick
matrices are assembled and diagonalized with numpy directly.  The
eigensolver is bound at import, before a traced run wraps
``numpy.linalg.eigvalsh``, so checks never show up in the layer counts.
"""

from __future__ import annotations

import json

import numpy as np

_EIGVALSH = np.linalg.eigvalsh
_REL_TOL = 1e-9  # zero threshold relative to the largest eigenvalue magnitude


def _cx(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _schur_value(node: dict, z: complex) -> complex:
    kind = node["kind"]
    if kind == "constant":
        return _cx(node["value"])
    if kind == "poly":
        return sum(_cx(c) * z**k for k, c in enumerate(node["coeffs"]))
    if kind == "blaschke":
        out = _cx(node.get("phase", [1.0, 0.0]))
        for item in node["zeros"]:
            w = _cx(item["zero"])
            out *= ((z - w) / (1.0 - z * w.conjugate())) ** int(item["mult"])
        return out
    if kind == "product":
        out = 1.0 + 0.0j
        for factor in node["factors"]:
            out *= _schur_value(factor, z)
        return out
    if kind == "scale":
        return float(node["factor"]) * _schur_value(node["inner"], z)
    raise ValueError(f"unknown schur node kind {kind!r}")


def spec_value(spec: dict, z: complex) -> complex:
    """Value of the documented function S/B, with jump values at jump points."""
    for jump in spec.get("jumps", []):
        if z == _cx(jump["at"]):
            return _cx(jump["value"])
    denom = _cx(spec.get("blaschke_phase", [1.0, 0.0]))
    for item in spec.get("blaschke", []):
        w = _cx(item["zero"])
        denom *= ((z - w) / (1.0 - z * w.conjugate())) ** int(item["mult"])
    return _schur_value(spec["schur"], z) / denom


def spec_counts(spec: dict) -> tuple[int, int]:
    """(poles with multiplicity q, jumps l) read off the document."""
    return sum(int(item["mult"]) for item in spec.get("blaschke", [])), len(spec.get("jumps", []))


def jumps_in_region(spec: dict, region: str) -> int:
    parts = region.split(",")
    if parts[0] == "whole":
        return len(spec.get("jumps", []))
    if parts[0] != "disk":
        raise ValueError(f"unsupported region {region!r}")
    center, radius = complex(float(parts[1]), float(parts[2])), float(parts[3])
    return sum(1 for j in spec.get("jumps", []) if abs(_cx(j["at"]) - center) < radius)


def pick_min_eigenvalue(spec: dict, nodes: list[complex]) -> tuple[float, float]:
    """(smallest eigenvalue, zero threshold) of the Pick matrix at ``nodes``."""
    z = np.array(nodes, dtype=complex)
    f = np.array([spec_value(spec, complex(p)) for p in nodes], dtype=complex)
    p = (1.0 - np.outer(f, f.conj())) / (1.0 - np.outer(z, z.conj()))
    w = _EIGVALSH((p + p.conj().T) / 2.0)
    return float(w[0]), _REL_TOL * float(np.max(np.abs(w)))


def _arg(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check(expect: dict, spec: dict, argv: list[str], code, stdout: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON ({exc})"
    kind = expect["check"]
    if kind == "scan":
        if doc.get("consistent") is not True or doc.get("violation") is not None:
            return f"bounded function reported inconsistent: {doc.get('violation')}"
        if doc.get("triples_tested") != expect["triples"]:
            return f"triples_tested {doc.get('triples_tested')} != {expect['triples']}"
        return None
    if kind == "violation":
        triple = doc.get("violation")
        if doc.get("consistent") is not False or not triple or len(triple) != 3:
            return "singular function reported consistent"
        w0, tau = pick_min_eigenvalue(spec, [_cx(p) for p in triple])
        if not w0 < -tau:
            return f"reported triple has no negative eigenvalue (min {w0:.3e}, tau {tau:.3e})"
        if not (doc.get("most_negative") is not None and doc["most_negative"] < 0):
            return f"most_negative {doc.get('most_negative')} is not negative"
        return None
    if kind == "witness":
        q, ell = spec_counts(spec)
        if doc.get("success") is not True:
            return "witness verification did not succeed"
        if doc.get("target") != q + ell or doc["inertia"][0] != q + ell:
            return f"witness target {doc.get('target')}, negatives {doc['inertia'][0]}, want {q + ell}"
        return None
    if kind == "classify":
        q, ell = spec_counts(spec)
        region = _arg(argv, "--region", "whole")
        want = q + jumps_in_region(spec, region)
        if doc.get("inconclusive") or doc.get("kappa_hat") != want:
            return f"kappa_hat {doc.get('kappa_hat')} != q + l_in_region = {want}"
        counts = [row["best_count"] for row in doc["profile"]["rows"]]
        if max(counts) > q + ell:
            return f"profile count {max(counts)} exceeds q + l = {q + ell}"
        if region == "whole":
            if doc.get("bound_check") != "ok":
                return f"bound_check {doc.get('bound_check')!r}"
            n_hat = (doc.get("minimal_witness_size") or {}).get("n_hat")
            if n_hat is None or not q + ell <= n_hat <= q + 2 * ell:
                return f"n_hat {n_hat} outside [{q + ell}, {q + 2 * ell}]"
        return None
    if kind == "ok":
        if doc.get("ok") is not True:
            return "realization check reported ok = false"
        if "degree" in expect and doc.get("degree") != expect["degree"]:
            return f"degree {doc.get('degree')} != {expect['degree']}"
        return None
    raise ValueError(f"unknown check {kind!r}")
