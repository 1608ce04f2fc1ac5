import json
import math
import os

import numpy as np
import pytest

from binomcap import ChannelSpec, DiscreteInput, cli, kkt_verify, report_for_distribution
from binomcap.cli import main
from binomcap.serialize import dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_solve_two_trials(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["capacity_nats"] == pytest.approx(0.753772, abs=1e-6)
        assert payload["converged"] is True
        assert list(payload.keys()) == ["n", "capacity_nats", "kkt_slack", "support",
                                        "weights", "output_pmf", "flags", "iterations",
                                        "converged"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "solve", "--n", "3")
        _, second, _ = run_cli(capsys, "solve", "--n", "3")
        assert first == second

    def test_bits_note_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "1", "--bits")
        assert code == 0
        assert "bits" in err
        assert "bits" not in out

    def test_invalid_n(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag, value", [("--kkt-tol", "inf"), ("--kkt-tol", "nan"),
                                             ("--max-outer-iters", "0")])
    def test_rejects_solver_settings(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "solve", "--n", "4", flag, value)
        assert code == 2
        assert out == ""
        assert flag[2:].replace("-", "_") in err

    def test_nonconvergence_exit_code(self, capsys):
        # n = 30 takes two outer iterations to certify (n = 64 takes one)
        code, out, _ = run_cli(capsys, "solve", "--n", "30", "--max-outer-iters", "1")
        assert code == 3
        payload = json.loads(out)  # report still emitted
        assert payload["converged"] is False

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "solve", "--n", "1", "--output", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["n"] == 1

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BINOMCAP_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "solve", "--n", "1", "--output", "r.json")
        assert code == 0
        assert (tmp_path / "r.json").exists()


class TestVerifyCommand:
    def test_certifies_table_two(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({
            "points": [0.0, 0.5, 1.0],
            "weights": [15 / 34, 2 / 17, 15 / 34],
        }))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
        assert code == 0
        payload = json.loads(out)
        assert payload["kkt_slack"] <= 1e-10
        assert all(payload["flags"].values())

    def test_flags_suboptimal_input(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": [0.0, 1.0], "weights": [0.5, 0.5]}))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
        assert code == 0
        payload = json.loads(out)
        assert payload["kkt_slack"] > 0
        assert payload["flags"]["kkt_equality"] is False

    def test_round_trip_reproduces_slack(self, capsys, tmp_path, solved):
        # verify on a solve JSON repeats the solve's certificate bit for bit
        report_path = tmp_path / "solved.json"
        for n in (3, 64):
            report = solved(n).to_dict()
            report_path.write_text(dumps(report))
            code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--dist", str(report_path))
            assert code == 0
            verified = json.loads(out)
            for key in ("capacity_nats", "kkt_slack"):
                assert verified[key] == report[key]
            assert verified["equality_defect"] == report["flags"]["equality_defect"]
            assert len(verified["flags"]) == 9
            for flag, value in verified["flags"].items():
                assert report["flags"][flag] is value

    @pytest.mark.parametrize("n, source", [(64, "solve"), (1024, "random")])
    def test_output_is_the_summary(self, capsys, tmp_path, solved, n, source):
        # the verify JSON is the KktSummary's fields, in order, as they are
        spec = ChannelSpec(n)
        if source == "solve":
            report = solved(n)
            text = dumps(report.to_dict())
        else:
            rng = np.random.default_rng(n)
            half, w = np.sort(rng.uniform(0.01, 0.49, 9)), rng.uniform(0.5, 1.5, 10)
            dist = DiscreteInput([0.0, *half, *(1.0 - half[::-1]), 1.0],
                                 np.concatenate([w, w[::-1]]) / (2.0 * w.sum()))
            report = report_for_distribution(dist, spec)
            text = json.dumps({"points": list(dist.points), "weights": list(dist.weights)})
        path = tmp_path / "dist.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--dist", str(path))
        assert code == 0
        assert out == dumps(vars(kkt_verify(report, spec))) + "\n"

    def test_malformed_dist_names_invariant(self, capsys, tmp_path):
        dist = tmp_path / "bad.json"
        dist.write_text(json.dumps({"points": [0.8, 0.2], "weights": [0.5, 0.5]}))
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
        assert code == 2
        assert "increasing" in err
        # JSON that is not an object, or whose points are not numbers
        for payload in ([0, 1], "points", {"points": {"a": 1}, "weights": [1.0]}):
            dist.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")
        # a NaN point or weight (Python's json reads NaN)
        for payload in ({"points": [0.0, float("nan"), 1.0], "weights": [0.3, 0.4, 0.3]},
                        {"points": [0.0, 0.5, 1.0], "weights": [0.3, float("nan"), 0.3]}):
            dist.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")
            assert "finite" in err

    def test_certifies_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        certify = cli.certificate._certify

        def counted(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli.certificate, "_certify", counted)
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": [0.0, 0.5, 1.0],
                                    "weights": [0.3, 0.4, 0.3]}))
        code, _, _ = run_cli(capsys, "verify", "--n", "4", "--dist", str(dist))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("points,weights,defect", [
        # 0.3 has no atom at its mirror 0.7: the defect is its weight
        ([0.0, 0.3, 1.0], [0.4, 0.2, 0.4], 0.2),
        # 0.25 and 0.75 mirror each other with unequal weights
        ([0.0, 0.25, 0.75, 1.0], [0.3, 0.15, 0.25, 0.3], abs(0.15 - 0.25)),
    ], ids=["unmatched-atom", "unequal-mirror-weights"])
    def test_symmetry_defect(self, capsys, tmp_path, points, weights, defect):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": points, "weights": weights}))
        code, out, _ = run_cli(capsys, "verify", "--n", "6", "--dist", str(dist))
        assert code == 0
        payload = json.loads(out)
        assert payload["symmetry_defect"] == defect
        assert payload["flags"]["symmetric"] is False

    def test_answers_at_max_trials(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": [0.0, 0.2, 0.5, 0.8, 1.0],
                                    "weights": [0.3, 0.15, 0.1, 0.15, 0.3]}))
        code, out, _ = run_cli(capsys, "verify", "--n", "4096", "--dist", str(dist))
        assert code == 0
        payload = json.loads(out)
        assert payload["kkt_slack"] > 1e-6

    @pytest.mark.parametrize("flag, value, reason", [
        ("--kkt-tol", "0", "tolerance must be positive"),
        ("--kkt-tol", "inf", "must be positive and finite"),
    ])
    def test_rejects_degenerate_certificate(self, capsys, tmp_path, flag, value, reason):
        # n = 2 capacity is log(17/8) > log 2, so this input is not optimal
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": [0.0, 1.0], "weights": [0.5, 0.5]}))
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist),
                                 flag, value)
        assert code == 2
        assert out == ""
        assert reason in err

    def test_bad_weight_sum(self, capsys, tmp_path):
        dist = tmp_path / "bad.json"
        dist.write_text(json.dumps({"points": [0.2, 0.8], "weights": [0.7, 0.7]}))
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--dist", str(dist))
        assert code == 2
        assert "sum to 1" in err


class TestBoundsCommand:
    def test_single_n_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["cap_lower"] <= rows[0]["cap_upper"]

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n-max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,cap_lower,cap_upper")
        assert len(lines) == 5

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2
        code, _, err = run_cli(capsys, "bounds", "--n", "2", "--n-max", "4")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--n", "--n-max"])
    def test_rejects_nonpositive_trial_count(self, capsys, flag):
        code, out, err = run_cli(capsys, "bounds", flag, "0")
        assert code == 2
        assert out == ""
        assert f"{flag.lstrip('-')} must be >= 1" in err


class TestSweepCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-max", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        row = lines[2].split(",")
        assert int(row[0]) == 2
        assert float(row[2]) == pytest.approx(math.log(17 / 8), abs=1e-9)
        assert float(row[1]) <= float(row[2]) <= float(row[3])

    def test_n_max_above_the_range_fails_before_any_solve(self, capsys, monkeypatch):
        import binomcap.solver

        def no_solve(*args, **kwargs):
            raise AssertionError("sweep must check --n-max before solving")

        monkeypatch.setattr(binomcap.solver, "_solve", no_solve)
        monkeypatch.setattr(binomcap.solver, "_refine", no_solve)
        code, out, err = run_cli(capsys, "sweep", "--n-max", "4097")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestTableCommand:
    def test_fixture_payloads(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2, 3]
        assert rows[1]["capacity_nats"] == pytest.approx(math.log(17 / 8), abs=1e-12)
        np.testing.assert_allclose(rows[2]["weights"], [15 / 38, 4 / 19, 15 / 38],
                                   atol=1e-15)
        assert all(r["converged"] for r in rows)


class TestCurvesCommand:
    def test_stdout_sections(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--n", "2", "--points", "21")
        assert code == 0
        assert "# density" in out and "# crest" in out
        assert "x,info_density,first_derivative,second_derivative" in out
        assert "x,lower_endpoints,lower_mirror" in out

    def test_file_outputs(self, capsys, tmp_path):
        prefix = tmp_path / "curves.csv"
        code, _, _ = run_cli(capsys, "curves", "--n", "2", "--points", "21",
                             "--output", str(prefix))
        assert code == 0
        assert (tmp_path / "curves.density.csv").exists()
        assert (tmp_path / "curves.crest.csv").exists()

    def test_single_trial_crest_cells_are_inf(self, capsys, tmp_path):
        # at n = 1 the endpoint bound's denominator vanishes on every x
        prefix = tmp_path / "curves.csv"
        code, _, _ = run_cli(capsys, "curves", "--n", "1", "--points", "5",
                             "--output", str(prefix))
        assert code == 0
        lines = (tmp_path / "curves.crest.csv").read_text().splitlines()
        assert lines[0] == "x,lower_endpoints,lower_mirror"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 5
        assert all(r[1] == "inf" for r in rows)

    @pytest.mark.parametrize("points", ["0", "1", "2", "-2"])
    def test_rejects_points_below_three(self, capsys, monkeypatch, points):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_capacity ran before --points was checked")

        monkeypatch.setattr("binomcap.cli.solve_capacity", no_solve)
        code, out, err = run_cli(capsys, "curves", "--n", "2", "--points", points)
        assert code == 2
        assert out == ""
        assert "--points must be >= 3" in err


class TestEntropyBoundsCommand:
    def test_sandwich_rows(self, capsys):
        code, out, _ = run_cli(capsys, "entropy-bounds", "--n", "10", "--points", "31")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,lower,exact,upper"
        assert len(lines) == 32
        for line in lines[1:]:
            _, lo, exact, hi = map(float, line.split(","))
            assert lo <= exact + 1e-12
            assert exact <= hi + 1e-12

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_rejects_nonpositive_points(self, capsys, points):
        code, out, err = run_cli(capsys, "entropy-bounds", "--n", "10", "--points", points)
        assert code == 2
        assert out == ""
        assert "--points must be >= 1" in err


class TestRepeatedCalls:
    """main() builds its parser once per process; nothing of one call may
    reach the next."""

    def test_parser_built_once(self, capsys):
        cli._parser.cache_clear()
        run_cli(capsys, "table")
        run_cli(capsys, "bounds", "--n", "3")
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cli.build_parser() is not cli.build_parser()

    def test_bits_then_none(self, capsys):
        _, _, err = run_cli(capsys, "solve", "--n", "1", "--bits")
        assert "bits" in err
        _, _, err = run_cli(capsys, "solve", "--n", "1")
        assert err == ""

    def test_output_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "bounds.json"
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--output", str(target))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, "bounds", "--n", "5")
        assert code == 0 and out == target.read_text()

    def test_kkt_tol_then_default(self, capsys, tmp_path):
        # the n = 2 optimum, 3e-7 of mass moved to the centre: slack 3.2e-7
        dist = tmp_path / "dist.json"
        e = 3e-7
        dist.write_text(json.dumps({"points": [0.0, 0.5, 1.0],
                                    "weights": [15 / 34 - e, 2 / 17 + 2 * e, 15 / 34 - e]}))
        argv = ("verify", "--n", "2", "--dist", str(dist))
        _, default, _ = run_cli(capsys, *argv)
        _, loose, _ = run_cli(capsys, *argv, "--kkt-tol", "1e-6")
        _, again, _ = run_cli(capsys, *argv)
        assert json.loads(loose)["flags"]["kkt_inequality"] is True
        assert json.loads(default)["flags"]["kkt_inequality"] is False
        assert again == default

    def test_interleaved_commands(self, capsys, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"points": [0.0, 0.5, 1.0],
                                    "weights": [15 / 34, 2 / 17, 15 / 34]}))
        calls = [("solve", "--n", "3"), ("verify", "--n", "2", "--dist", str(dist)),
                 ("sweep", "--n-max", "3")]
        first = [run_cli(capsys, *argv) for argv in calls]
        again = [run_cli(capsys, *argv) for argv in calls[::-1] + calls]
        assert again == first[::-1] + first
