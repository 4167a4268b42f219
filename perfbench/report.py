"""Run every workload, untraced and traced, and print every metric by name.

    python3 perfbench/report.py --seed 1 --seconds 20 [--out FILE]

Each run is a fresh ``run.py`` process, so set-up time and peak memory
belong to its workload.  The report adds what one run cannot show: the
tracing overhead next to the untraced figures, and whether traced and
untraced runs printed the same stdout for the same inputs.  The JSON
report (default ``.perfbench_out/report.json``) also keeps the machine
notes, the latency tail and every failing invocation with its reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=OUT / "report.json")
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in corpus.WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        shared = plain["digests"].keys() & traced["digests"].keys()
        differing = sorted(k for k in shared if plain["digests"][k] != traced["digests"][k])
        report["machine"] = plain["machine"]
        report["workloads"][workload] = {
            "metrics": plain["result"]["metrics"],
            "op_tail_ms": plain["op_tail_ms"],
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "fail_ratio": plain["fail_ratio"],
            "failures": plain["failures"],
            "trace_overhead": traced["trace_overhead"],
            "traced_digests_compared": len(shared),
            "traced_digests_differing": differing,
            "traced_failures": traced["failures"],
            "layers": traced["result"]["metrics"],
        }
        print(f"== {workload}: {plain['result']['attempted']} invocations, "
              f"fail_ratio {plain['fail_ratio']:.4f}")
        for name, m in plain["result"]["metrics"].items():
            print(f"  {name:12s} {m['value']:14.6g} {m['unit']}")
        if plain["op_tail_ms"]:
            t = plain["op_tail_ms"]
            print(f"  op_tail_ms   {t['value_ms']:14.6g} ms (p{t['percentile']:g} of {t['samples']})")
        print(f"  trace overhead {100 * traced['trace_overhead']:+.1f}%, "
              f"{len(shared)} traced outputs compared, {len(differing)} differ")
        for failure in plain["failures"] + traced["failures"]:
            print(f"  FAILED {failure['call']}: {failure['reason']}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
