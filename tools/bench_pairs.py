"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 tools/bench_pairs.py OLD_ROOT NEW_ROOT --seeds 601-610 --out BENCH_topic.json

OLD_ROOT and NEW_ROOT are checkouts holding ``BENCHMARK.json``,
``perfbench/`` and ``src/`` (for instance ``git archive`` trees of a parent
commit and of a change, each named after its commit; the file records the
directory names).  For every workload of ``BENCHMARK.json`` and every
seed, ``perfbench/run.py --trace 0`` runs once in each checkout, in a fresh
process, for the ``run_seconds`` of ``BENCHMARK.json``; the side that runs
first alternates from pair to pair.  Then one
traced run per side and workload, on the first seed, gives the per-layer
figures.  The output file holds, per workload and end-to-end metric, every
value, the median and quartiles of each side, the pairs the new side wins
and the bound, plus the machine notes of the runs.  This is the protocol of
``perfbench/NOTES.md`` ("Relation to BENCH_<topic>.json").
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from verify_sweep import parse_seeds


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line of one ``perfbench/run.py`` process in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["machine"] = json.loads(details.read_text())["machine"]
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="FIRST-LAST, one pair each")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.new_root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"old": args.old_root, "new": args.new_root}

    report = {"protocol": __doc__.split("\n\n")[2].replace("\n", " "),
              "old": args.old_root.resolve().name, "new": args.new_root.resolve().name,
              "seeds": [args.seeds.start, args.seeds.stop - 1], "seconds": seconds,
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"old": [], "new": []}
        for k, seed in enumerate(args.seeds):
            for side in (("old", "new") if k % 2 == 0 else ("new", "old")):
                runs[side].append(run(sides[side], workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}: {json.dumps(runs[side][-1]['metrics'])}",
                      file=sys.stderr, flush=True)
        entry = {"correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
                 "machine": runs["new"][0]["machine"], "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            higher = metric["better"] == "higher"
            wins = sum((n > o) if higher else (n < o) for o, n in zip(values["old"], values["new"]))
            old, new = summary(values["old"]), summary(values["new"])
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "old": old, "new": new, "new_wins": wins, "pairs": len(args.seeds),
                "ratio_new_over_old": new["median"] / old["median"],
            }
        seed = args.seeds.start
        entry["per_layer_first_seed"] = {
            side: run(root, workload, seed, seconds, 1)["metrics"] for side, root in sides.items()
        }
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
