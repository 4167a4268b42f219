"""Check that two source trees give the same CLI output on the benchmark corpus.

    python3 tools/same_stdout.py OLD_SRC NEW_SRC
    python3 tools/same_stdout.py OLD_SRC NEW_SRC --case classify:43:0-1
    python3 tools/same_stdout.py OLD_SRC NEW_SRC --counts --case classify:601-660:0-24
    python3 tools/same_stdout.py OLD_SRC NEW_SRC --residuals --case fragile:1-3:0-9

OLD_SRC and NEW_SRC are directories holding a ``negsquares`` package (the
``src/`` of two checkouts).  The calls come from ``perfbench/corpus.py``,
which is imported and never modified.  Each call runs ``negsquares.cli.main``
in this process against one tree, then the other, on the same spec file.  A
call matches when the exit codes, stdout and stderr agree; a differing call
prints the sha256 digests of its stdout + stderr.
With ``--counts`` a classify or profile document on stdout is cut to its
counts first: ``kappa_hat``, ``n_first``, ``n_attained``,
``subscript_check``, ``bound_check``, ``minimal_witness_size.n_hat``, the
plateau and every profile row's ``best_count``; witnesses and
``samples_used`` are ignored, any other output is compared whole, and a
differing call prints the fields that differ.
With ``--residuals`` a ``verify-blaschke`` or ``verify-theta`` document is
compared without its residual fields (the exit code, ``ok``, ``degree``,
``nodes`` and anything else stay exact), and the summary prints, per
residual field, the largest relative change |new - old| / |old| over the
calls; other commands are compared whole.
Prints one line per differing call and a summary; exits 1 on any difference.

A case is WORKLOAD:SEED:FIRST-LAST (rounds, inclusive), or
WORKLOAD:FIRST-LAST:FIRST-LAST for a range of seeds.  Without ``--case``
the default set runs: seed 1 rounds 0-1 of scan, classify, realize and
fragile, seed 1 rounds 0-19 of certify, and seed 43 rounds 0-1 of classify.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the benchmark's setting; keeps small eigensolves steady

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

DEFAULT_CASES = (
    "scan:1:0-1",
    "classify:1:0-1",
    "realize:1:0-1",
    "fragile:1:0-1",
    "certify:1:0-19",
    "classify:43:0-1",
)

COUNT_FIELDS = ("kappa_hat", "n_first", "n_attained", "subscript_check", "bound_check")
RESIDUAL_COMMANDS = ("verify-blaschke", "verify-theta")
RESIDUAL_FIELDS = ("product_agreement", "kernel_residual", "stein_series_gap", "stein_residual",
                   "j_unitarity_residual", "roundtrip_relative_error")


def load_cli(src: Path):
    """``negsquares.cli`` imported from ``src``, replacing any loaded copy."""
    for name in [m for m in sys.modules if m == "negsquares" or m.startswith("negsquares.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("negsquares.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: negsquares was not imported from {src}")
    return cli


def counts_only(stdout: str) -> str:
    """The count fields of a classify or profile document; any other output as is."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if not isinstance(doc, dict) or not ("kappa_hat" in doc or "rows" in doc):
        return stdout
    kept = {k: doc[k] for k in COUNT_FIELDS if k in doc}
    if "minimal_witness_size" in doc:
        kept["n_hat"] = (doc["minimal_witness_size"] or {}).get("n_hat")
    profile = doc.get("profile", doc) or {}  # classify nests the profile, profile prints it bare
    if profile:
        kept["plateau"] = profile["plateau"]
        kept["best_count"] = [row["best_count"] for row in profile["rows"]]
    return json.dumps(kept, sort_keys=True)


def split_residuals(stdout: str) -> tuple[str, dict]:
    """A verify document without its residual fields, and those fields."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout, {}
    if not isinstance(doc, dict):
        return stdout, {}
    residuals = {k: doc.pop(k) for k in RESIDUAL_FIELDS if k in doc}
    return json.dumps(doc, sort_keys=True), residuals


def outcome(cli, argv: list[str], counts: bool = False,
            residuals: bool = False) -> tuple[object, str, str, dict]:
    """(exit code, stdout, stderr, residual fields) of one in-process call.

    The residual fields are split off the stdout of a verify command when
    ``residuals`` is set, and are empty otherwise.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to compare, not to stop on
            code = f"raised {type(exc).__name__}: {exc}"
    stdout, split = counts_only(out.getvalue()) if counts else out.getvalue(), {}
    if residuals and argv[argv.index("--command") + 1] in RESIDUAL_COMMANDS:
        stdout, split = split_residuals(stdout)
    return code, stdout, err.getvalue(), split


def relative_change(old: float, new: float) -> float:
    """|new - old| / |old|; 0 when both are 0, inf when only old is."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def difference(old: tuple, new: tuple, counts: bool) -> str:
    """The exit codes, then the count fields that differ or else the output digests."""
    text = f"exit {old[0]!r} -> {new[0]!r}, "
    if counts and old[2] == new[2]:
        try:
            a, b = json.loads(old[1]), json.loads(new[1])
        except ValueError:
            a = b = None
        if isinstance(a, dict) and isinstance(b, dict):
            return text + ", ".join(f"{k} {a.get(k)} -> {b.get(k)}"
                                    for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k))
    old_digest, new_digest = (hashlib.sha256((o[1] + o[2]).encode()).hexdigest() for o in (old, new))
    return text + f"digest {old_digest[:12]} -> {new_digest[:12]}"


def parse_case(text: str) -> tuple[str, range, range]:
    try:
        workload, seeds, rounds = text.split(":")
        first, _, last = seeds.partition("-")
        seeds = range(int(first), int(last or first) + 1)
        first, last = rounds.split("-")
        return workload, seeds, range(int(first), int(last) + 1)
    except ValueError:
        raise SystemExit(f"error: case {text!r} is not WORKLOAD:SEED:FIRST-LAST") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--case", action="append", help="WORKLOAD:SEED:FIRST-LAST (repeatable)")
    parser.add_argument("--counts", action="store_true",
                        help="compare only the counts of classify and profile documents")
    parser.add_argument("--residuals", action="store_true",
                        help="compare verify documents without their residuals; report their change")
    args = parser.parse_args(argv)
    trees = (args.old_src, args.new_src)
    calls = differ = 0
    changes: dict[tuple[str, str], tuple[float, str]] = {}  # (command, field) -> (largest, call)
    with tempfile.TemporaryDirectory() as tmp:
        for text in args.case or DEFAULT_CASES:
            workload, seeds, rounds = parse_case(text)
            for seed in seeds:
                for rnd in rounds:
                    invs = corpus.build(workload, seed, rnd)
                    paths = corpus.write_specs(invs, Path(tmp) / f"{workload}-{seed}-{rnd}")
                    results = []
                    for src in trees:
                        cli = load_cli(src)
                        results.append([outcome(cli, inv.argv(path), args.counts, args.residuals)
                                        for inv, path in zip(invs, paths)])
                    for inv, path, old, new in zip(invs, paths, *results):
                        calls += 1
                        call_argv = inv.argv(path)
                        command = call_argv[call_argv.index("--command") + 1]
                        call = f"{workload} seed {seed} round {rnd} {inv.label}"
                        for field in old[3].keys() & new[3].keys():
                            change = relative_change(old[3][field], new[3][field])
                            if change > changes.get((command, field), (-1.0, ""))[0]:
                                changes[command, field] = (change, call)
                        if old[:3] != new[:3] or old[3].keys() != new[3].keys():
                            differ += 1
                            print(f"DIFFERS {call}: " + difference(old, new, args.counts),
                                  flush=True)
    for (command, field), (change, call) in sorted(changes.items()):
        print(f"{command} {field}: largest relative change {change:.3g} ({call})")
    print(f"{calls} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
