"""Self-tests of the benchmark: smoke runs, verifier rejections, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from run import Workload  # noqa: E402

import negsquares.classify  # noqa: E402
import negsquares.hermitian  # noqa: E402
from negsquares import cli  # noqa: E402

TIMED_WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workload(tmp_path):
    return lambda name, seed=0: Workload(cli, name, seed, tmp_path / name)


def cli_output(inv: corpus.Invocation, path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(inv.argv(path)) == 0
    return buf.getvalue()


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("name", corpus.WORKLOADS)
def test_setup_probe_runs_the_verified_warmup(name):
    proc = bench("--workload", name, "--seed", "0", "--setup-probe")
    assert proc.returncode == 0, proc.stderr
    if name in TIMED_WORKLOADS:
        assert "FAILED" not in proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_certify_run_prints_the_result_line(trace):
    proc = bench("--workload", "certify", "--seed", "2", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == wanted
    assert all(m["value"] >= 0 for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_fixes_the_inputs_and_moves_positions_only():
    for name in TIMED_WORKLOADS:
        a, b, c = corpus.build(name, 5), corpus.build(name, 5), corpus.build(name, 6)
        assert a == b
        assert [i.label for i in a] == [i.label for i in c]
        assert [i.spec for i in a] != [i.spec for i in c]


# ---------------------------------------------------------------------------
# the verifier rejects corrupted outputs


def test_classify_check_rejects_kappa_off_by_one(workload):
    work = workload("classify")
    inv, path = work.round(0)[0]
    doc = json.loads(cli_output(inv, path))
    argv = inv.argv(path)
    assert verify.check(inv.expect, inv.spec, argv, 0, json.dumps(doc)) is None
    doc["kappa_hat"] += 1
    assert "kappa_hat" in verify.check(inv.expect, inv.spec, argv, 0, json.dumps(doc))


def test_certify_check_rejects_a_forged_violating_triple(workload):
    work = workload("certify")
    inv, path = work.round(0)[0]
    assert inv.expect["check"] == "violation"
    doc = json.loads(cli_output(inv, path))
    argv = inv.argv(path)
    assert verify.check(inv.expect, inv.spec, argv, 0, json.dumps(doc)) is None
    # the same report against a bounded Schur function: its Pick matrices
    # are positive semidefinite, so no triple can violate
    bounded = corpus.build("scan", 0)[3].spec
    reason = verify.check(inv.expect, bounded, argv, 0, json.dumps(doc))
    assert reason is not None and "no negative eigenvalue" in reason


def test_scan_witness_and_realize_checks_reject_wrong_fields():
    scan = {"check": "scan", "triples": 10}
    good = {"consistent": True, "triples_tested": 10, "violation": None, "most_negative": None}
    assert verify.check(scan, {}, [], 0, json.dumps(good)) is None
    assert verify.check(scan, {}, [], 0, json.dumps({**good, "triples_tested": 9}))
    assert verify.check(scan, {}, [], 3, json.dumps(good)) == "exit code 3"
    spec = {"blaschke": [{"zero": [0.1, 0.0], "mult": 2}], "jumps": [{"at": [0.5, 0.0]}]}
    witness = {"success": True, "target": 3, "inertia": [3, 0, 2]}
    assert verify.check({"check": "witness"}, spec, [], 0, json.dumps(witness)) is None
    assert verify.check({"check": "witness"}, spec, [], 0, json.dumps({**witness, "target": 2}))
    assert verify.check({"check": "ok"}, {}, [], 0, json.dumps({"ok": False}))


def test_changed_stdout_on_the_same_input_is_a_failure(workload, monkeypatch):
    work = workload("certify")
    inv, path = work.round(0)[0]
    work.call(inv, path, "0:x")
    original = cli.main

    def noisy(argv):
        code = original(argv)
        print()
        return code

    monkeypatch.setattr(work.cli, "main", noisy)
    work.call(inv, path, "0:x")
    assert [f["reason"] for f in work.failures] == ["stdout differs from an earlier call on the same input"]


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_site_and_restores_them(workload):
    original = negsquares.hermitian.inertia
    assert negsquares.classify.inertia is original
    work = workload("certify")
    untraced = work.run_round(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert negsquares.classify.inertia is not original
        traced = work.run_round(0)
    finally:
        tracer.uninstall()
    assert negsquares.classify.inertia is original and negsquares.hermitian.inertia is original
    assert len(traced) == len(untraced) and not work.failures  # same digests as untraced
    stats = tracer.metrics(1)
    assert stats["cli.main.calls"] == len(traced)
    commands = [inv.args[1] for inv, _ in work.round(0)]
    assert stats["classify.hindmarsh_test.calls"] == commands.count("hindmarsh")
    assert stats["classify.verify_witness.calls"] == commands.count("witness")
    assert stats["hermitian.eigvalsh.calls"] > 0 and stats["hermitian.eigvalsh.mean_dim"] >= 3
    assert set(stats) | {"pick.samples_used", "classify.triples_tested"} == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    roots = {s[3] for s in tracer.spans if s[4] == -1}
    assert all(s[5] in roots for s in tracer.spans)
