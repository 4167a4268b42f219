"""Check a benchmark workload over many seeds and print every failing call.

    python3 tools/verify_sweep.py classify 0-119 --labels classify-8,classify-9
    python3 tools/verify_sweep.py classify 600-619 --rounds 0-24

For each seed in FIRST-LAST (inclusive) the calls of rounds 0 and 1 (or of
``--rounds``) come from ``perfbench/corpus.py``.  One 20 s run samples only
a few rounds of a seed, so a failure on a few positions in a thousand goes
unseen there; the faster a workload runs, the more rounds a run covers.
Each call runs ``negsquares.cli.main`` in this process against the ``src/``
of this checkout and is checked by ``perfbench/verify.py``.  Both perfbench
modules are imported and never modified.  ``--labels`` keeps only the calls
with those labels.  Prints one line per failing call and a
summary; exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from same_stdout import load_cli  # sets the benchmark's BLAS threads first

import corpus  # noqa: E402  (perfbench/, put on the path by same_stdout)
import verify  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def parse_seeds(text: str) -> range:
    try:
        first, last = text.split("-")
        return range(int(first), int(last) + 1)
    except ValueError:
        raise SystemExit(f"error: {text!r} is not FIRST-LAST") from None


def failure(cli, inv, path: Path) -> str | None:
    """None when the call passes its check, else the reason."""
    argv = inv.argv(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failure to report, not to stop on
            return f"raised {type(exc).__name__}: {exc}"
    reason = verify.check(inv.expect, inv.spec, argv, code, out.getvalue())
    if reason is not None and err.getvalue():
        reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    return reason


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=corpus.WORKLOADS)
    parser.add_argument("seeds", type=parse_seeds, help="FIRST-LAST, inclusive")
    parser.add_argument("--rounds", type=parse_seeds, default=range(2), help="FIRST-LAST, inclusive")
    parser.add_argument("--labels", default=None, help="comma-separated call labels to keep")
    args = parser.parse_args(argv)
    labels = set(args.labels.split(",")) if args.labels else None
    cli = load_cli(SRC)
    calls = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for rnd in args.rounds:
                invs = [inv for inv in corpus.build(args.workload, seed, rnd)
                        if labels is None or inv.label in labels]
                paths = corpus.write_specs(invs, Path(tmp) / f"{seed}-{rnd}")
                for inv, path in zip(invs, paths):
                    calls += 1
                    reason = failure(cli, inv, path)
                    if reason is not None:
                        failed += 1
                        print(f"FAILS {args.workload} seed {seed} round {rnd} {inv.label}: {reason}",
                              flush=True)
    print(f"{calls} calls, {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
