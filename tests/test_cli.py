import json

import numpy as np
import pytest

from framecond import cli, conic, frames, precondition


def run(*argv):
    return cli.main(list(argv))


class TestMatrixFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 9))
        path = tmp_path / "a.mat"
        cli.write_matrix(path, mat)
        assert (cli.read_matrix(path) == mat).all()

    def test_canonical_output_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
        cli.write_matrix(p1, rng.standard_normal((3, 4)))
        cli.write_matrix(p2, cli.read_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 3\n1 2 3\n1 2 3 4\n")
        with pytest.raises(cli.ParseError, match=":3"):
            cli.read_matrix(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.mat"
        path.write_text("")
        with pytest.raises(cli.ParseError, match="missing header"):
            cli.read_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("2\n1 2\n3 4\n", ":1: header must be 'rows cols'"),
        ("2 x\n1 2\n3 4\n", ":1: header must be 'rows cols'"),
        ("2 2\n1 2\n3 four\n", ":3: non-numeric entry"),
        ("2 2\n1 2\nnan 4\n", ": non-finite entry"),
        ("2 2\n1 inf\n3 4\n", ": non-finite entry"),
    ], ids=["short-header", "bad-header", "non-numeric", "nan", "inf"])
    def test_malformed_contents(self, tmp_path, text, where):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        with pytest.raises(cli.ParseError) as exc:
            cli.read_matrix(path)
        assert str(exc.value) == f"{path}{where}"

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mat"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(cli.DimensionMismatch):
            cli.read_matrix(path)


class TestSubcommands:
    def test_gen_analyze_pipeline(self, tmp_path, capsys):
        out = tmp_path / "phi.mat"
        assert run("gen", "--m", "5", "--M", "12", "--seed", "7", "--out", str(out)) == 0
        assert run("analyze", str(out)) == 0
        text = capsys.readouterr().out
        stats = dict(line.split(": ", 1) for line in text.strip().splitlines())
        assert float(stats["coherence"]) >= float(stats["welch_bound"]) - 1e-9

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        run("gen", "--m", "4", "--M", "8", "--seed", "3", "--out", str(a))
        run("gen", "--m", "4", "--M", "8", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_precondition_outputs(self, tmp_path):
        phi = tmp_path / "phi.mat"
        g = tmp_path / "g.mat"
        report = tmp_path / "r.json"
        run("gen", "--m", "4", "--M", "9", "--seed", "1", "--out", str(phi))
        assert run("precondition", str(phi), "--out", str(g), "--report", str(report)) == 0
        gmat = cli.read_matrix(g)
        mapped = gmat @ cli.read_matrix(phi)
        gram = mapped.T @ mapped
        assert np.abs(np.diag(gram) - 1.0).max() <= 1e-6
        doc = json.loads(report.read_text())
        for key in ("q", "coherence_before", "coherence_after", "welch_bound", "kappa"):
            assert key in doc["result"]
        assert doc["result"]["coherence_after"] <= doc["result"]["coherence_before"] + 1e-5
        assert doc["solver"]["status"] == "Optimal"
        assert doc["config"]["command"] == "precondition"

    def test_certify_reports_no_improvement(self, tmp_path, capsys):
        path = tmp_path / "mb.mat"
        cli.write_matrix(path, frames.mercedes_benz_frame().matrix)
        assert run("certify", str(path)) == 0
        assert "no strict" in capsys.readouterr().out

    def test_certify_reports_improvement(self, tmp_path, capsys):
        mat = np.array([[1, 1, 0, 0], [1, -1, 1, 1], [0, 0, 1, -1]], dtype=float) / np.sqrt(2)
        path = tmp_path / "sp.mat"
        cli.write_matrix(path, mat)
        assert run("certify", str(path)) == 0
        assert "improvement possible" in capsys.readouterr().out

    def test_diag_lp_matches_closed_form(self, tmp_path, capsys):
        mat = np.array([[1, 1, 0, 0], [1, -1, 1, 1], [0, 0, 1, -1]], dtype=float) / np.sqrt(2)
        path = tmp_path / "sp.mat"
        g = tmp_path / "g.mat"
        cli.write_matrix(path, mat)
        assert run("diag-lp", str(path), "--out", str(g)) == 0
        gmat = cli.read_matrix(g)
        assert np.abs(gmat - np.diag(np.sqrt([4 / 3, 2 / 3, 4 / 3]))).max() <= 1e-4

    def test_tighten_then_analyze(self, tmp_path, capsys):
        phi = tmp_path / "phi.mat"
        tight = tmp_path / "tight.mat"
        run("gen", "--m", "4", "--M", "12", "--seed", "2", "--out", str(phi))
        assert run("tighten", str(phi), "--out", str(tight)) == 0
        capsys.readouterr()
        assert run("analyze", str(tight)) == 0
        text = capsys.readouterr().out
        stats = dict(line.split(": ", 1) for line in text.strip().splitlines())
        assert float(stats["tight_defect"]) <= 1e-7

    def test_recover_roundtrip(self, tmp_path, capsys):
        phi = tmp_path / "phi.mat"
        sig = tmp_path / "y.mat"
        xhat = tmp_path / "x.mat"
        fr = frames.dirac_hadamard_frame(8)
        cli.write_matrix(phi, fr.matrix)
        x = np.zeros(16)
        x[3] = 2.0
        cli.write_matrix(sig, (fr.matrix @ x).reshape(-1, 1))
        assert run("recover", str(phi), str(sig), "--decoder", "omp", "--k", "1",
                   "--out", str(xhat)) == 0
        assert np.abs(cli.read_matrix(xhat).ravel() - x).max() <= 1e-8
        # without --k, OMP may use up to m atoms
        report = tmp_path / "r.json"
        assert run("recover", str(phi), str(sig), "--decoder", "omp", "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["k"] is None and doc["result"]["support"] == [3]

    def test_sweep_csv(self, tmp_path):
        phi = tmp_path / "phi.mat"
        csv = tmp_path / "sweep.csv"
        run("gen", "--m", "4", "--M", "8", "--seed", "5", "--out", str(phi))
        assert run("sweep", str(phi), "--t2", "0.5", "--t1", "1.0", "--t1-max", "2.0",
                   "--t1-step", "0.5", "--out", str(csv), "--report", str(tmp_path / "r.json")) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "t1,coherence,kappa"
        assert len(lines) == 4
        doc = json.loads((tmp_path / "r.json").read_text())
        assert len(doc["result"]["t1_grid"]) == len(doc["result"]["coherence"])
        assert doc["result"]["failed_solves"] == 0
        assert (tmp_path / "sweep.csv.gp").exists()

    def test_phase_csv_and_report(self, tmp_path):
        csv = tmp_path / "phase.csv"
        report = tmp_path / "phase.json"
        assert run("phase", "--M", "8", "--m-min", "3", "--m-max", "4", "--trials", "4",
                   "--seed", "1", "--decoder", "bp", "--pipeline", "phi",
                   "--out", str(csv), "--report", str(report)) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "m,sparsity,success_rate"
        assert len(lines) == 1 + 3 + 4
        doc = json.loads(report.read_text())
        assert doc["result"]["csv_path"] == str(csv)
        assert doc["result"]["failed_decodes"] == 0

    def test_table_csv(self, tmp_path):
        csv = tmp_path / "table.csv"
        assert run("table", "--M", "10", "--m-list", "3,4", "--trials", "2",
                   "--seed", "2", "--out", str(csv)) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "m,mean_mu_phi,mean_mu_precond,welch_bound,failed_solves"
        assert len(lines) == 3

    def test_table_counts_failed_solves(self, tmp_path):
        # one interior-point iteration finishes no preconditioner solve
        csv, report = tmp_path / "table.csv", tmp_path / "table.json"
        assert run("table", "--M", "10", "--m-list", "3,4", "--trials", "2", "--max-iter", "1",
                   "--out", str(csv), "--report", str(report)) == 0
        assert [line.split(",")[-1] for line in csv.read_text().splitlines()[1:]] == ["2", "2"]
        doc = json.loads(report.read_text())
        assert [row["m"] for row in doc["result"]["rows"]] == [3, 4]
        assert [row["failed_solves"] for row in doc["result"]["rows"]] == [2, 2]
        assert doc["result"]["failed_solves"] == 4
        assert doc["config"]["m_list"] == [3, 4]


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            run("gen", "--m", "4")   # missing --M
        assert info.value.code == 2

    @pytest.mark.parametrize("k", ["0", "-2", "two"])
    def test_recover_k_below_one_is_a_usage_error(self, tmp_path, k, capsys):
        with pytest.raises(SystemExit) as info:
            run("recover", str(tmp_path / "phi.mat"), str(tmp_path / "y.mat"), "--decoder", "omp", "--k", k)
        assert info.value.code == 2
        assert "--k: expected an integer >= 1" in capsys.readouterr().err

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as info:
            run("frobnicate")
        assert info.value.code == 2

    def test_tol_is_a_usage_error_outside_certify(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("precondition", str(tmp_path / "phi.mat"), "--tol", "1e-3")
        assert info.value.code == 2

    def test_certify_tol_reaches_the_report(self, tmp_path, capsys):
        path, report = tmp_path / "mb.mat", tmp_path / "r.json"
        cli.write_matrix(path, frames.mercedes_benz_frame().matrix)
        assert run("certify", str(path), "--report", str(report)) == 0
        assert json.loads(report.read_text())["config"]["tol"] == precondition.CERTIFICATE_TOL
        # the solver's --gap-tol is still accepted, and ignored
        assert run("certify", str(path), "--tol", "1e-3", "--gap-tol", "1e-6", "--report", str(report)) == 0
        assert json.loads(report.read_text())["config"]["tol"] == 1e-3

    def test_missing_file_is_two(self, tmp_path):
        assert run("analyze", str(tmp_path / "nope.mat")) == 2

    def test_solver_failure_is_one_without_allow_inexact(self, tmp_path):
        phi = tmp_path / "phi.mat"
        run("gen", "--m", "4", "--M", "10", "--seed", "4", "--out", str(phi))
        assert run("precondition", str(phi), "--max-iter", "1") == 1
        assert run("precondition", str(phi), "--max-iter", "1", "--allow-inexact") == 0

    def test_certify_solver_failure_is_one(self, tmp_path, monkeypatch, capsys):
        real_solve = conic.solve

        def stalled(prob, settings=conic.SolverSettings()):
            sol = real_solve(prob, settings)
            sol.status = conic.SolverStatus.MAX_ITER
            return sol

        monkeypatch.setattr(conic, "solve", stalled)
        path = tmp_path / "mb.mat"
        cli.write_matrix(path, frames.mercedes_benz_frame().matrix)
        assert run("certify", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: certificate LP status MaxIter\n"
        assert captured.out == ""

    def test_report_replay_config(self, tmp_path):
        phi = tmp_path / "phi.mat"
        report = tmp_path / "r.json"
        run("gen", "--m", "3", "--M", "7", "--seed", "9", "--out", str(phi),
            "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["config"] == {"command": "gen", "m": 3, "M": 7}
        assert doc["seed"] == 9
        assert "framecond" in doc["versions"]


class TestReportEnvelope:
    @pytest.mark.parametrize(
        "command",
        ["gen", "analyze", "precondition", "diag-lp", "tighten", "certify", "recover", "phase", "sweep",
         "table"],
    )
    def test_every_report_shares_the_envelope(self, tmp_path, command, capsys):
        phi, dh, sig = tmp_path / "phi.mat", tmp_path / "dh.mat", tmp_path / "y.mat"
        report = tmp_path / "r.json"
        run("gen", "--m", "4", "--M", "9", "--seed", "1", "--out", str(phi))
        fr = frames.dirac_hadamard_frame(4)
        cli.write_matrix(dh, fr.matrix)
        cli.write_matrix(sig, fr.matrix[:, :1])
        out = str(tmp_path / "out")
        argv = {
            "gen": ["--m", "3", "--M", "5", "--out", out],
            "analyze": [str(phi)],
            "precondition": [str(phi)],
            "diag-lp": [str(phi)],
            "tighten": [str(phi)],
            "certify": [str(phi)],
            "recover": [str(dh), str(sig)],
            "phase": ["--M", "6", "--m-min", "3", "--m-max", "3", "--trials", "2", "--out", out],
            "sweep": [str(phi), "--t2", "0.5", "--t1-max", "1.5", "--out", out],
            "table": ["--M", "9", "--m-list", "3,4", "--trials", "2", "--out", out],
        }[command]
        assert run(command, *argv, "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"config", "seed", "frame_stats", "result", "solver", "versions"}
        assert doc["config"]["command"] == command
        assert doc["seed"] == 0
