"""Benchmark of the negsquares CLI, one workload per process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The run generates its inputs from the seed, calls ``negsquares.cli.main``
in-process one invocation at a time (a closed loop with one client),
checks every output with ``verify.py`` and prints as its last stdout line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end figures of
an untraced run; with ``--trace 1`` they are per-layer figures from a run
whose layer calls are wrapped by ``tracing.py``.  A details file with
machine notes, failures, digests and the latency tail goes to
``.perfbench_out/``.  See NOTES.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # at most nproc; one thread keeps small-matrix timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import verify  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def import_cli():
    """``negsquares.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "negsquares" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'negsquares'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import negsquares.cli

    if Path(negsquares.cli.__file__).resolve().parent != SRC / "negsquares":
        raise SystemExit(f"error: imported {negsquares.cli.__file__}, not the checkout's package")
    return negsquares.cli


def machine_notes() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tail(times: list[float]) -> dict | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 10 * TAIL_MIN_BEYOND:
        return None
    ordered = sorted(times)
    p = max(q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND)
    value = ordered[math.ceil(p / 100.0 * n) - 1]
    return {"percentile": p, "value_ms": value * 1e3, "samples": n}


class Workload:
    """Generated inputs of one workload and the record of every call made on them."""

    def __init__(self, cli, name: str, seed: int, workdir: Path):
        self.cli, self.name, self.seed, self.workdir = cli, name, seed, workdir
        self.warmup = corpus.warmup(name, [inv for inv, _ in self.round(0)])
        (self.warmup_path,) = corpus.write_specs([self.warmup], workdir / "warmup")
        self.digests: dict[str, str] = {}
        self.timings: dict[str, list[float]] = {}
        self.failures: list[dict] = []
        self.attempted = 0
        self.counts = {"pick.samples_used": 0, "classify.triples_tested": 0}

    def round(self, rnd: int) -> list[tuple[corpus.Invocation, Path]]:
        """Generate round ``rnd``; its documents replace the previous round's."""
        invs = corpus.build(self.name, self.seed, rnd)
        return list(zip(invs, corpus.write_specs(invs, self.workdir / "round")))

    def call(self, inv: corpus.Invocation, spec_path: Path, key: str) -> float:
        """Run one invocation, verify it and return its wall time in seconds."""
        argv = inv.argv(spec_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:  # a traceback is a failure to record, not to stop on
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        stdout = out.getvalue()
        self.attempted += 1
        self.timings.setdefault(key, []).append(seconds)
        try:
            reason = verify.check(inv.expect, inv.spec, argv, code, stdout)
        except (KeyError, IndexError, TypeError) as exc:
            reason = f"output lacks an expected field ({type(exc).__name__}: {exc})"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if reason is None and self.digests.setdefault(key, digest) != digest:
            reason = "stdout differs from an earlier call on the same input"
        if reason is not None:
            self.failures.append({
                "call": key,
                "reason": reason,
                "exit": code,
                "stderr": err.getvalue().strip().splitlines()[-1:] or None,
                "stdout": " ".join(stdout.split())[:300],
            })
        else:
            doc = json.loads(stdout)
            self.counts["classify.triples_tested"] += doc.get("triples_tested", 0)
            profile = doc.get("profile") or {"rows": []}
            self.counts["pick.samples_used"] += sum(r["samples_used"] for r in profile["rows"])
        return seconds

    def run_warmup(self):
        self.call(self.warmup, self.warmup_path, f"0:{self.warmup.label}")

    def run_round(self, rnd: int) -> list[float]:
        return [self.call(inv, path, f"{rnd}:{inv.label}") for inv, path in self.round(rnd)]


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports, generates and warms up."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def measure(work: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced rounds until ``seconds`` have passed: end-to-end figures."""
    rounds: list[list[float]] = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(work.run_round(len(rounds)))
    times = [t for r in rounds for t in r]
    metrics = {
        "ops_per_s": {"value": len(rounds[0]) / statistics.median(map(sum, rounds)), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
    }
    return metrics, {"rounds": len(rounds), "invocations": len(times), "busy_s": sum(times),
                     "op_tail_ms": tail(times)}


def measure_traced(work: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Untraced rounds for half the time, then the same rounds traced: per-layer figures."""
    import tracing

    untraced: list[float] = []
    deadline = time.perf_counter() + seconds / 2
    while not untraced or time.perf_counter() < deadline:
        untraced.append(sum(work.run_round(len(untraced))))  # records the stdout digests
    counts_before = dict(work.counts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [sum(work.run_round(rnd)) for rnd in range(len(untraced))]
    finally:
        tracer.uninstall()
    rounds = len(traced)
    metrics = {k: {"value": v, "unit": "s" if k.endswith("self_s") else "count"}
               for k, v in tracer.metrics(rounds).items()}
    for key, total in work.counts.items():
        metrics[key] = {"value": (total - counts_before[key]) / rounds, "unit": "count"}
    tracer.write_spans(spans_path)
    return metrics, {"traced_rounds": rounds, "untraced_round_s": untraced, "traced_round_s": traced,
                     "trace_overhead": sum(traced) / sum(untraced) - 1.0,
                     "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up and warm up only (used to time set-up in a fresh process)")
    args = parser.parse_args(argv)

    cli = import_cli()
    setup_samples = []
    if not args.setup_probe and args.trace == 0:
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work = Workload(cli, args.workload, args.seed, workdir)
        work.run_warmup()
        if args.setup_probe:
            for failure in work.failures:
                print(f"FAILED {failure['call']}: {failure['reason']}", file=sys.stderr)
            return 0

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, extra = measure_traced(work, args.seconds, OUT / f"{stem}-spans.jsonl")
        else:
            metrics, extra = measure(work, args.seconds)
            metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_notes(), "setup_samples_s": setup_samples,
        **extra, "fail_ratio": len(work.failures) / work.attempted,
        "failures": work.failures, "digests": work.digests, "timings_s": work.timings,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    for failure in work.failures:
        print(f"FAILED {failure['call']}: {failure['reason']}")
    if extra.get("op_tail_ms"):
        t = extra["op_tail_ms"]
        print(f"op_tail_ms: p{t['percentile']:g} = {t['value_ms']:.4f} ms over {t['samples']} invocations")
    if "trace_overhead" in extra:
        print(f"trace overhead: {100 * extra['trace_overhead']:+.1f}% on the same rounds")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
