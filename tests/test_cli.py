"""Command-line interface: exit codes, artifacts, reproducibility."""

import dataclasses
import json

import numpy as np
import pytest

from negsquares import dump_function
from negsquares.cli import main
from conftest import example_sharp, jump_function, quotient, random_zeros, schur_only
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


def _ring(n, radius):
    return [(radius * np.exp(2j * np.pi * (k + 0.3) / n), 1) for k in range(n)]


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

    @pytest.mark.parametrize(
        "zeros, degree",
        [
            pytest.param([(0.5, 2)], 2, id="double-half"),
            pytest.param(random_zeros(16, 0.7, 161), 16, id="random-16"),
            # near the circle the Stein series tail decays like |w|^(2j): it must be summed
            pytest.param(_ring(4, 0.9997), 4, id="ring-4-0.9997"),
            pytest.param(_ring(4, 0.9999), 4, id="ring-4-0.9999"),
            # the sum's rounding grows like 1/(1 - |w|^2): its gap reads 2.9e-11 here
            pytest.param(_ring(4, 0.999999), 4, id="ring-4-0.999999"),
        ],
    )
    def test_verify_blaschke(self, spec_path, capsys, zeros, degree):
        code = run(
            [
                "--spec", spec_path(quotient(SchurConstant(1.0), zeros)),
                "--command", "verify-blaschke",
                "--seed", "12",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["degree"] == degree
        assert doc["product_agreement"] <= 1e-10

    # at 1 - 1e-9 the scaled bound would be 5e-3; the cap holds it at 1e-6
    @pytest.mark.parametrize("radius", [0.9, 0.999999, 1 - 1e-9])
    @pytest.mark.parametrize("wrong", ["gram", "series"])
    def test_verify_blaschke_rejects_a_wrong_realization(self, spec_path, capsys, monkeypatch,
                                                         radius, wrong):
        import negsquares.cli as cli
        from negsquares import HermitianMatrix

        bound = min(1e-11 / (1.0 - radius**2), 1e-6)
        if wrong == "gram":  # K = (1 + d) I no longer solves K - A K A* = E E*
            realize = cli.realize_blaschke
            monkeypatch.setattr(cli, "realize_blaschke", lambda zeros: dataclasses.replace(
                realize(zeros), k=HermitianMatrix((1.0 + 10 * bound) * np.eye(4))))
        else:  # the series misses K by ten times the scaled bound, nothing else is off
            series = cli.stein_series_sum
            monkeypatch.setattr(cli, "stein_series_sum", lambda a, q: series(a, q) + 10 * bound)
        code = run(
            [
                "--spec", spec_path(quotient(SchurConstant(1.0), _ring(4, radius))),
                "--command", "verify-blaschke",
                "--seed", "12",
            ]
        )
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["stein_series_gap"] > bound
        if wrong == "series":
            assert doc["product_agreement"] <= 1e-10 and doc["kernel_residual"] <= 1e-10

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
    def test_region_too_small_exits_2(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.5))),
                "--command", "hindmarsh",
                "--seed", "1",
                "--region", "disk,0.3,0.1,1e-13",
            ]
        )
        assert code == 2
        assert "too small to separate three nodes" in capsys.readouterr().err

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

    def test_violation_report_csv(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(jump_function(0.0)),
                "--command", "hindmarsh",
                "--seed", "5",
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "key,value"
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert rows["consistent"] == "False"
        assert int(rows["triples_tested"]) >= 1 and rows["triples_tested"].isdigit()
        assert float(rows["most_negative"]) < 0 and rows["violation"].startswith("[[")

    def test_consistent_report(self, spec_path, capsys):
        code = run(
            [
                "--spec", spec_path(schur_only(SchurConstant(0.5))),
                "--command", "hindmarsh",
                "--seed", "5",
                "--budget", "1000,40",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["consistent"] is True
        assert doc["triples_tested"] == 1000 and type(doc["triples_tested"]) is int
        assert doc["violation"] is None and doc["most_negative"] is None


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
            ({}, ["--region", "disk,nan,0,0.2"]),
            ({}, ["--region", "disk,0,0,nan"]),
            ({"schur": {"kind": "constant"}}, []),
            ({"blaschke": [{"zero": [0.5, 0.0], "mult": "two"}]}, []),
            ({"schur": {"kind": "constant", "value": [float("nan"), 0.0]}}, []),
            ({"blaschke_phase": [float("nan"), 0.0]}, []),
            ({"blaschke": [{"zero": [0.5, 0.0], "mult": 1.5}]}, []),
        ],
        ids=["budget", "region", "nan-center", "nan-radius", "missing-key", "mult", "nan-constant",
             "nan-phase", "fractional-mult"],
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



# benchmark-corpus documents (perfbench/corpus.py, classify workload) whose
# profile attains the full count only above q + 2 l, or (the last one) not
# at all under the plain eigenvalue count; with the CLI seed of each call
_SHORT_PROFILES = {
    "corpus-12-0-classify-8": (20, {
        "spec_version": 1,
        "schur": {"kind": "poly", "coeffs": [[0.6767616631101839, 0.0],
                                              [-0.0024525475492205256, 0.29525491254272734]]},
        "blaschke": [{"zero": [0.02450384543643959, -0.18045740611610178], "mult": 2},
                     {"zero": [-0.25849420988929916, 0.22249842151421534], "mult": 1}],
        "jumps": [{"at": [0.02450384543643959, -0.18045740611610178],
                   "value": [-0.9564705995420015, -1.756463490144832]}],
    }),
    "corpus-26-0-classify-8": (34, {
        "spec_version": 1,
        "schur": {"kind": "poly", "coeffs": [[0.7721944493096953, 0.0],
                                              [0.06949044923165011, 0.1257009192010243]]},
        "blaschke": [{"zero": [0.16062085090607783, 0.061702681262233154], "mult": 2},
                     {"zero": [0.1786036324642276, 0.44871763043874696], "mult": 1}],
        "jumps": [{"at": [0.16062085090607783, 0.061702681262233154],
                   "value": [0.6077896052946762, -1.9054111880892644]}],
    }),
    "corpus-200-0-classify-9": (209, {
        "spec_version": 1,
        "schur": {"kind": "constant", "value": [-0.7219366649382369, -0.20526848948425]},
        "blaschke": [{"zero": [0.05195662996924265, 0.2915735931962907], "mult": 2},
                     {"zero": [0.44835538840411976, -0.08131104971346612], "mult": 1}],
        "jumps": [{"at": [-0.5799510362280608, 0.05337805770154061],
                   "value": [1.4767431373418851, -1.3487882362749337]},
                  {"at": [-0.10569431142972534, -0.2449016357540173],
                   "value": [0.1272473547990171, -0.27167648167747804]}],
    }),
    "corpus-610-16-classify-9": (16619, {
        "spec_version": 1,
        "schur": {"kind": "constant", "value": [-0.5062191502900942, -0.6407843137124617]},
        "blaschke": [{"zero": [-0.16813399117996233, 0.24246039907060257], "mult": 2},
                     {"zero": [0.08897832512080513, 0.5859614237584265], "mult": 1}],
        "jumps": [{"at": [0.036191761782816606, -0.5397151673722663],
                   "value": [-0.6384657561745609, 1.8953525999645675]},
                  {"at": [-0.484155480361245, -0.14710115656221362],
                   "value": [-0.1909919837768985, 0.23134835666795847]}],
    }),
}


class TestClassifyShortProfiles:
    @pytest.mark.parametrize("case", sorted(_SHORT_PROFILES))
    def test_short_profile_passes_with_the_minimal_witness(self, case, tmp_path, capsys):
        seed, doc = _SHORT_PROFILES[case]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run(["--spec", str(spec), "--command", "classify", "--seed", str(seed)]) == 0
        out = json.loads(capsys.readouterr().out)
        q = sum(z["mult"] for z in doc["blaschke"])
        ell = len(doc["jumps"])
        n_hat = out["minimal_witness_size"]["n_hat"]
        assert out["kappa_hat"] == q + ell
        assert out["bound_check"] == "ok"
        assert q + ell <= n_hat <= q + 2 * ell
        assert len(out["minimal_witness_size"]["witness"]) == n_hat

    def test_profile_still_rising_at_the_last_size_is_extended(self, tmp_path, capsys):
        # corpus seed 619 round 14, classify-pair-near-jump: inside the disk
        # around the jump, the pole's negative appears only at n = 5 of 7
        doc = {
            "spec_version": 1,
            "schur": {"kind": "constant", "value": [-0.565768123963791, 0.2651377852395373]},
            "blaschke": [{"zero": [0.5199474521996188, 0.03805639968088431], "mult": 1}],
            "jumps": [{"at": [-0.5712517689462296, 0.10973475918627823],
                       "value": [-1.7311251230830011, -1.001601621519686]}],
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        region = "disk,-0.5712517689462296,0.10973475918627823,0.15"
        argv = ["--spec", str(spec), "--command", "classify", "--seed", "14630", "--region", region]
        assert run(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kappa_hat"] == 2 and not out["inconclusive"]
        assert len(out["profile"]["rows"]) == 11
