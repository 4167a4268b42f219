"""Check that two source trees give the same CLI output on the benchmark corpus.

    python3 tools/same_stdout.py OLD_SRC NEW_SRC
    python3 tools/same_stdout.py OLD_SRC NEW_SRC --case classify:43:0-1

OLD_SRC and NEW_SRC are directories holding a ``negsquares`` package (the
``src/`` of two checkouts).  The calls come from ``perfbench/corpus.py``,
which is imported and never modified.  Each call runs ``negsquares.cli.main``
in this process against one tree, then the other, on the same spec file.  A
call matches when the exit codes agree and sha256(stdout + stderr) agree.
Prints one line per differing call and a summary; exits 1 on any difference.

A case is WORKLOAD:SEED:FIRST-LAST (rounds, inclusive).  Without ``--case``
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


def outcome(cli, argv: list[str]) -> tuple[object, str]:
    """(exit code, sha256 of stdout + stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to compare, not to stop on
            code = f"raised {type(exc).__name__}: {exc}"
    return code, hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()


def parse_case(text: str) -> tuple[str, int, range]:
    try:
        workload, seed, rounds = text.split(":")
        first, last = rounds.split("-")
        return workload, int(seed), range(int(first), int(last) + 1)
    except ValueError:
        raise SystemExit(f"error: case {text!r} is not WORKLOAD:SEED:FIRST-LAST") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--case", action="append", help="WORKLOAD:SEED:FIRST-LAST (repeatable)")
    args = parser.parse_args(argv)
    trees = (args.old_src, args.new_src)
    calls = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for text in args.case or DEFAULT_CASES:
            workload, seed, rounds = parse_case(text)
            for rnd in rounds:
                invs = corpus.build(workload, seed, rnd)
                paths = corpus.write_specs(invs, Path(tmp) / f"{workload}-{seed}-{rnd}")
                results = []
                for src in trees:
                    cli = load_cli(src)
                    results.append([outcome(cli, inv.argv(path)) for inv, path in zip(invs, paths)])
                for inv, old, new in zip(invs, *results):
                    calls += 1
                    if old != new:
                        differ += 1
                        print(f"DIFFERS {workload} seed {seed} round {rnd} {inv.label}: "
                              f"exit {old[0]!r} -> {new[0]!r}, "
                              f"digest {old[1][:12]} -> {new[1][:12]}")
    print(f"{calls} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
