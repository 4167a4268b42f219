"""Command-line interface: exit codes, artifacts, reproducibility."""

import json

import pytest

from negsquares import dump_function
from negsquares.cli import main
from conftest import example_sharp, jump_function, quotient, schur_only
from negsquares import SchurConstant


@pytest.fixture
def spec_path(tmp_path):
    def write(f, name="func.json"):
        path = tmp_path / name
        path.write_text(dump_function(f), encoding="utf-8")
        return str(path)

    return write


def run(args):
    return main(args)


class TestProfileCommand:
    def test_csv_output(self, spec_path, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "profile",
                "--n-max", "5",
                "--seed", "7",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("n,best_count")
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [0, 1, 1, 1, 1]

    def test_structured_output_to_stdout(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.5))),
                "--command", "profile",
                "--n-max", "4",
                "--seed", "3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["best_count"] for row in doc["rows"]] == [0, 0, 0, 0]
        assert doc["plateau"] == {"value": 0, "first_n": 1}

    def test_byte_identical_reruns(self, spec_path, tmp_path):
        spec = spec_path(jump_function(2.0))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(
                [
                    "--spec", spec, "--command", "profile", "--n-max", "4",
                    "--seed", "99", "--format", "csv", "--out", str(out),
                    "--budget", "80,10",
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestClassifyCommand:
    def test_schur_report(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.5))),
                "--command", "classify",
                "--seed", "1",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa_hat"] == 0
        assert doc["minimal_witness_size"]["n_hat"] == 0

    def test_jump_report(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "classify",
                "--seed", "1",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa_hat"] == 1
        assert doc["minimal_witness_size"]["n_hat"] == 2

    def test_region_flag(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "classify",
                "--seed", "2",
                "--region", "disk,0.5,0,0.2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kappa_hat"] == 0


class TestWitnessCommand:
    def test_witness_success(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(example_sharp(2)),
                "--command", "witness",
                "--seed", "4",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert doc["inertia"][0] == doc["target"] == 1


class TestVerifyCommands:
    def test_verify_theta(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.4))),
                "--command", "verify-theta",
                "--n-max", "3",
                "--seed", "11",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["j_unitarity_residual"] <= 1e-10

    def test_verify_blaschke(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(quotient(SchurConstant(1.0), [(0.5, 2)])),
                "--command", "verify-blaschke",
                "--seed", "12",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["degree"] == 2
        assert doc["product_agreement"] <= 1e-10

    def test_verify_blaschke_needs_zeros(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.4))),
                "--command", "verify-blaschke",
                "--seed", "12",
            ]
        )
        assert code == 2


class TestHindmarshCommand:
    def test_violation_report(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "hindmarsh",
                "--seed", "5",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"] is False


class TestErrors:
    def test_missing_file(self, tmp_path):
        assert run(["--spec", str(tmp_path / "nope.json"), "--command", "profile", "--seed", "1"]) == 2

    def test_invalid_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "spec_version": 1,
                    "schur": {"kind": "constant", "value": [1.0, 0.0]},
                    "blaschke": [],
                    "jumps": [{"at": [0.0, 0.0], "value": [1.0, 0.0]}],
                }
            )
        )
        assert run(["--spec", str(bad), "--command", "profile", "--seed", "1"]) == 2

    def test_bad_region(self, spec_path):
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "profile",
                "--seed", "1",
                "--region", "disk,0.9,0,0.5",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "change, extra",
        [
            ({}, ["--budget", "x,y"]),
            ({}, ["--region", "disk,a,0,0.2"]),
            ({"schur": {"kind": "constant"}}, []),
            ({"blaschke": [{"zero": [0.5, 0.0], "mult": "two"}]}, []),
            ({"schur": {"kind": "constant", "value": [float("nan"), 0.0]}}, []),
            ({"blaschke_phase": [float("nan"), 0.0]}, []),
        ],
        ids=["budget", "region", "missing-key", "mult", "nan-constant", "nan-phase"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, change, extra):
        doc = {
            "spec_version": 1,
            "schur": {"kind": "constant", "value": [0.5, 0.0]},
            "blaschke": [],
            "jumps": [],
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**doc, **change}))
        assert run(["--spec", str(spec), "--command", "profile", "--seed", "1", *extra]) == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_seed_required(self, spec_path, capsys):
        with pytest.raises(SystemExit):
            run(["--spec", spec_path(jump_function(0.0)), "--command", "profile"])
