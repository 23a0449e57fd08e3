"""End-to-end tests of the ``msvg`` command line, run in-process."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import msvg.cli
from msvg.cli import information_summary, main
from msvg.distribution import MsvgParams, sample
from msvg.ecm import FitConfig
from msvg.inference import InfoMatrix

FIXTURE = Path(__file__).parent / "data" / "fixture_prices.csv"
PANEL_ARGS = ["--data", str(FIXTURE), "--date-column", "date", "--columns", "AAA,BBB"]
TINY_SPEC = {
    "true_params": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.3], [0.3, 1.0]],
                    "gamma": [0.2, -0.1], "nu": 2.0},
    "n": 200,
    "r": 1,
    "base_seed": 3,
    "algorithms": ["hecm"],
}


@pytest.fixture(autouse=True)
def serial_workers(monkeypatch):
    monkeypatch.setenv("MSVG_THREADS", "1")


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def fit_files(prefix: Path) -> dict[str, bytes]:
    """Every file a fit wrote next to ``prefix``, by suffix."""
    return {p.name[len(prefix.name):]: p.read_bytes()
            for p in sorted(prefix.parent.glob(prefix.name + "*"))}


@pytest.fixture(scope="module", params=[0, 1], ids=["plain", "ar1"])
def fitted(request, tmp_path_factory):
    """Two runs of the same fixture fit, each into its own directory."""
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MSVG_THREADS", "1")
        for name in ("first", "second"):
            prefix = tmp_path_factory.mktemp(name) / "fit"
            code = run_cli("fit", *PANEL_ARGS, "--tol", "1e-6",
                           "--ar", request.param, "--out", prefix)
            runs.append((code, prefix))
    return request.param, runs


def write_json(path: Path, blob) -> Path:
    path.write_text(json.dumps(blob))
    return path


def write_values(path: Path, rows) -> Path:
    """``rows`` as a values CSV with one named column per dimension."""
    path.write_text(",".join("abcde"[:rows.shape[1]]) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return path


def write_ar_panel(path: Path, seed: int) -> Path:
    """A 52-row d=5 AR(1) sample as a values CSV."""
    params = MsvgParams(mu=np.zeros(5), beta1=0.2 * np.eye(5),
                        sigma=0.3 * np.ones((5, 5)) + 0.7 * np.eye(5),
                        gamma=[0.1, 0.2, 0.3, 0.4, 0.5], nu=2.5)
    return write_values(path, sample(params, 52, seed=seed))


class TestFit:
    def test_exit_zero_and_files(self, fitted):
        ar, runs = fitted
        code, prefix = runs[0]
        assert code == 0
        expected = {".json", ".txt"} | ({"_residuals.csv"} if ar else set())
        assert set(fit_files(prefix)) == expected

    def test_rerun_byte_identical(self, fitted):
        _, runs = fitted
        (_, first), (_, second) = runs
        assert fit_files(first) == fit_files(second)

    def test_report_contents(self, fitted):
        ar, runs = fitted
        blob = json.loads(Path(f"{runs[0][1]}.json").read_text())
        assert blob["converged"] is True
        assert blob["ar_order"] == ar
        assert blob["series"] == ["AAA", "BBB"]
        loc = "beta0" if ar else "mu"
        assert set(blob["params"]) == {loc, "sigma", "gamma", "nu"} | (
            {"beta1"} if ar else set())
        assert {f"{loc}_1", f"{loc}_2"} <= set(blob["estimates"])
        assert ("beta1_21" in blob["estimates"]) == bool(ar)
        assert blob["estimates"][f"{loc}_1"] == blob["params"][loc][0]
        # standard errors are best-effort: all of them, or the reason for none
        if blob["se_error"] is None:
            assert set(blob["standard_errors"]) == set(blob["estimates"])
        else:
            assert blob["standard_errors"] == {}

    def test_report_records_no_seed(self, fitted, tmp_path):
        # a fit draws no random numbers, so neither the report nor the CLI
        # carries a seed
        blob = json.loads(Path(f"{fitted[1][0][1]}.json").read_text())
        assert "seed" not in blob
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", *PANEL_ARGS, "--seed", 1, "--out", tmp_path / "o")
        assert exc.value.code == 2

    def test_information_block(self, fitted):
        # at tol 1e-6 the plain fixture fit converges to a point whose
        # observed information is indefinite; the report says so
        ar, runs = fitted
        prefix = runs[0][1]

        def no_nan(name):
            raise AssertionError(f"{name} written to the fit report")

        blob = json.loads(Path(f"{prefix}.json").read_text(), parse_constant=no_nan)
        info = blob["information"]
        assert set(info) == {"min_eigenvalue", "max_eigenvalue",
                             "condition_number", "positive_definite"}
        assert blob["converged"] is True
        assert info["min_eigenvalue"] <= info["max_eigenvalue"]
        if ar:
            assert info["positive_definite"] is True
            assert info["condition_number"] == pytest.approx(
                info["max_eigenvalue"] / info["min_eigenvalue"])
        else:
            assert info["positive_definite"] is False
            assert info["min_eigenvalue"] < 0
            assert info["condition_number"] is None
        lines = [ln for ln in Path(f"{prefix}.txt").read_text().splitlines()
                 if ln.startswith("information:")]
        assert len(lines) == 1
        assert lines[0].endswith(f"positive definite: {info['positive_definite']}")

    def test_undefined_aicc_keeps_the_fit(self, tmp_path):
        # d=5 AR(1) on 52 rows: 51 modelled rows and k = 51 free parameters
        data = write_ar_panel(tmp_path / "panel.csv", seed=0)
        prefix = tmp_path / "fit"
        code = run_cli("fit", "--data", data, "--values", "--ar", 1, "--out", prefix)
        assert code in (0, 1)
        blob = json.loads(Path(f"{prefix}.json").read_text())
        assert blob["aicc"] is None
        assert blob["k"] == blob["n_modelled"] == 51
        assert "AICc: n/a" in Path(f"{prefix}.txt").read_text()

    def test_degenerate_ar_panel_is_a_numerical_failure(self, tmp_path, capsys):
        # seed 3 of the same panel collapses a row onto the location, and the
        # log-likelihood turns NaN
        data = write_ar_panel(tmp_path / "panel.csv", seed=3)
        prefix = tmp_path / "fit"
        code = run_cli("fit", "--data", data, "--values", "--ar", 1, "--out", prefix)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: log-likelihood is not finite at cycle")
        assert not Path(f"{prefix}.json").exists()

    def test_reversed_rows_write_the_same_files(self, tmp_path):
        # the estimates and the information both sum the rows in one
        # canonical order, so the report is the same bytes for any row order
        params = MsvgParams(mu=[0.1, -0.1, 0.0], sigma=0.6 * np.eye(3) + 0.4,
                            gamma=[0.3, -0.2, 0.1], nu=2.5)
        rows = sample(params, 400, seed=4)
        files = []
        for name, block in (("forwards", rows), ("reversed", rows[::-1])):
            data = write_values(tmp_path / f"{name}.csv", block)
            prefix = tmp_path / name / "fit"
            prefix.parent.mkdir()
            assert run_cli("fit", "--data", data, "--values", "--out", prefix) == 0
            files.append(fit_files(prefix))
        assert set(files[0]) == {".json", ".txt"}
        assert files[0] == files[1]

    def test_information_null_when_it_cannot_be_formed(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no information here")

        monkeypatch.setattr(msvg.cli, "observed_info", fail)
        prefix = tmp_path / "fit"
        assert run_cli("fit", *PANEL_ARGS, "--tol", "1e-6", "--out", prefix) == 0
        blob = json.loads(Path(f"{prefix}.json").read_text())
        assert blob["information"] is None
        assert blob["se_error"] == "ValueError: no information here"
        assert "information: unavailable" in Path(f"{prefix}.txt").read_text()

    def test_information_summary_values(self):
        def summary(*diag):
            return information_summary(InfoMatrix(np.diag(diag), ["a", "b"]))

        assert summary(2.0, 8.0) == {"min_eigenvalue": 2.0, "max_eigenvalue": 8.0,
                                     "condition_number": 4.0, "positive_definite": True}
        assert summary(-1.0, 8.0)["condition_number"] is None
        assert summary(0.0, 8.0)["positive_definite"] is False
        assert information_summary(None) is None

    def test_nonfinite_information_is_an_se_error(self, tmp_path, monkeypatch):
        def nan_hessian(params, design, m1, m_1):
            p = msvg.inference.n_free_params(params)
            return np.full((p, p), math.nan)

        monkeypatch.setattr(msvg.inference, "_expected_hessian", nan_hessian)
        prefix = tmp_path / "fit"
        assert run_cli("fit", *PANEL_ARGS, "--tol", "1e-6", "--out", prefix) == 0
        blob = json.loads(Path(f"{prefix}.json").read_text())
        assert blob["information"] is None
        assert blob["standard_errors"] == {}
        assert blob["se_error"] == "ValueError: information matrix is not finite"

    def test_one_eigendecomposition_per_information(self, monkeypatch):
        # observed_info's warning, standard_errors and the report's summary
        # all read the spectrum InfoMatrix computed
        params = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                            gamma=[0.2, 0.3], nu=2.5)
        data = sample(params, 400, seed=1)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(1) or eigvalsh(m))
        info = msvg.inference.observed_info(params, data)
        msvg.inference.standard_errors(info)
        summary = information_summary(info)
        assert len(calls) == 1
        assert summary["positive_definite"] is True

    def test_not_converged_exits_one_and_writes_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(msvg.cli, "FitConfig", functools.partial(FitConfig, max_iter=3))
        prefix = tmp_path / "fit"
        assert run_cli("fit", *PANEL_ARGS, "--out", prefix) == 1
        assert json.loads(Path(f"{prefix}.json").read_text())["converged"] is False
        assert "converged: False" in Path(f"{prefix}.txt").read_text()
        assert f"wrote {prefix}.txt, {prefix}.json" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fit", "summary"])
    def test_no_value_columns_is_a_usage_error(self, tmp_path, capsys, command):
        data = tmp_path / "dates.csv"
        data.write_text("date\n2020-01-01\n2020-01-02\n2020-01-03\n")
        out = ["--out", tmp_path / "o"] if command == "fit" else []
        assert run_cli(command, "--data", data, "--date-column", "date", *out) == 2
        assert "no value columns" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "summary", "simulate"])
    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys, command):
        # a directory where a file is expected: IsADirectoryError, an OSError
        args = {"fit": ["fit", "--data", tmp_path, "--out", tmp_path / "o"],
                "summary": ["summary", "--data", tmp_path],
                "simulate": ["simulate", tmp_path, "--out", tmp_path / "o"]}
        assert run_cli(*args[command]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_printed_line_names_the_files(self, tmp_path, capsys):
        prefix = tmp_path / "fit"
        assert run_cli("fit", *PANEL_ARGS, "--tol", "1e-6", "--out", prefix) == 0
        out = capsys.readouterr().out
        assert f"wrote {prefix}.txt, {prefix}.json" in out


class TestGrid:
    def test_grid_from_fit_report(self, fitted, tmp_path):
        ar, runs = fitted
        report = Path(f"{runs[0][1]}.json")
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--params", report, "--xlim=-0.05,0.05",
                       "--ylim=-0.05,0.05", "--res", 6, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + 36
        dens = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.all(np.isfinite(dens)) and np.all(dens > 0)

        # an AR report is gridded as its residual distribution centred on
        # the intercept: the same grid as a bare plain block with mu = beta0
        params = json.loads(report.read_text())["params"]
        plain = {"mu": params["beta0" if ar else "mu"], "sigma": params["sigma"],
                 "gamma": params["gamma"], "nu": params["nu"]}
        bare = write_json(tmp_path / "bare.json", plain)
        out2 = tmp_path / "grid2.csv"
        assert run_cli("grid", "--params", bare, "--xlim=-0.05,0.05",
                       "--ylim=-0.05,0.05", "--res", 6, "--out", out2) == 0
        assert out2.read_bytes() == out.read_bytes()

    def test_missing_nu_is_a_schema_error(self, tmp_path, capsys):
        bare = write_json(tmp_path / "p.json", {"mu": [0.0, 0.0], "gamma": [0.0, 0.0],
                                                "sigma": [[1.0, 0.0], [0.0, 1.0]]})
        code = run_cli("grid", "--params", bare, "--xlim=-1,1", "--ylim=-1,1",
                       "--res", 2, "--out", tmp_path / "g.csv")
        assert code == 2
        assert "nu" in capsys.readouterr().err

    def test_trivariate_block_is_a_usage_error(self, tmp_path, capsys):
        bare = write_json(tmp_path / "p.json", {
            "mu": [0.0] * 3, "sigma": np.eye(3).tolist(), "gamma": [0.0] * 3,
            "nu": 2.0})
        out = tmp_path / "g" / "g.csv"
        code = run_cli("grid", "--params", bare, "--xlim=-1,1", "--ylim=-1,1",
                       "--res", 2, "--out", out)
        assert code == 2
        assert "d = 3" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_indefinite_sigma_is_a_schema_error(self, tmp_path, capsys):
        bare = write_json(tmp_path / "p.json", {"mu": [0.0, 0.0], "gamma": [0.0, 0.0],
                                                "sigma": [[1.0, 2.0], [2.0, 1.0]], "nu": 2.0})
        code = run_cli("grid", "--params", bare, "--xlim=-1,1", "--ylim=-1,1",
                       "--res", 2, "--out", tmp_path / "g.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: parameter block's sigma is not positive definite\n")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("top", ["params", 5, None], ids=["string", "number", "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, top):
        bare = write_json(tmp_path / "p.json", top)
        code = run_cli("grid", "--params", bare, "--xlim=-1,1", "--ylim=-1,1",
                       "--res", 2, "--out", tmp_path / "g.csv")
        assert code == 2
        assert "parameter block must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestSimulate:
    def test_spec_sidecar_reproduces_study(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", TINY_SPEC)
        assert run_cli("simulate", spec, "--out", tmp_path / "a") == 0
        study = (tmp_path / "a" / "study.csv").read_bytes()
        assert study.startswith(b"algorithm,delta,gamma,statistic,value\n")
        assert b"hecm,default,0.2|-0.1,mean.nu," in study
        sidecar = tmp_path / "a" / "study_spec.json"
        assert json.loads(sidecar.read_text())["true_params"] == TINY_SPEC["true_params"]
        assert run_cli("simulate", sidecar, "--out", tmp_path / "b") == 0
        assert (tmp_path / "b" / "study.csv").read_bytes() == study

    def test_flagged_study_exits_one(self, tmp_path, capsys):
        # one cycle cannot converge: every replicate fails and the cell is flagged
        spec = write_json(tmp_path / "spec.json", {**TINY_SPEC, "fit": {"max_iter": 1}})
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 1
        assert "(1 flagged cell(s))" in capsys.readouterr().out
        rows = (tmp_path / "o" / "study.csv").read_text().splitlines()
        stats = {line.split(",")[3]: float(line.split(",")[4]) for line in rows[1:]}
        assert stats["n_failed"] == TINY_SPEC["r"]
        assert stats["flagged"] == 1.0
        sidecar = json.loads((tmp_path / "o" / "study_spec.json").read_text())
        reasons = sidecar["cell_failure_reasons"]
        assert reasons
        for cell in reasons.values():
            assert cell == {"not converged": TINY_SPEC["r"]}

    def test_invalid_json(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 2

    def test_missing_true_params(self, tmp_path, capsys):
        blob = {k: v for k, v in TINY_SPEC.items() if k != "true_params"}
        spec = write_json(tmp_path / "spec.json", blob)
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 2
        assert "true_params" in capsys.readouterr().err

    def test_parameter_block_not_an_object(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**TINY_SPEC, "true_params": [1, 2]})
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 2
        assert "JSON object" in capsys.readouterr().err

    def test_parameter_block_missing_nu(self, tmp_path, capsys):
        params = {k: v for k, v in TINY_SPEC["true_params"].items() if k != "nu"}
        spec = write_json(tmp_path / "spec.json", {**TINY_SPEC, "true_params": params})
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 2
        assert "nu" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("algorithms", [], "non-empty list"),
        ("algorithms", "hecm", "non-empty list"),
        ("algorithms", ["hecm", "hecm"], "twice"),
        ("delta_levels", 0.001, "'delta_levels' must be a list of numbers"),
        ("delta_levels", ["a"], "'delta_levels' must be a list of numbers"),
        ("gamma_levels", 0.5, "'gamma_levels' must be a list"),
        ("gamma_levels", [[0.1, 0.2, 0.3]], "'gamma_levels[0]' must be a list of 2 numbers"),
        ("base_seed", "x", "'base_seed' must be an integer"),
        ("delta_levels", [1e999], "delta levels: delta threshold must be positive"),
        ("fit", {"nu_bounds": [1e-4, 200.0]}, "unknown field 'fit.nu_bounds'"),
        ("fit", {"delta_cap": -1.0}, "delta threshold must be positive"),
        ("fit", {"scale_c": 1e999}, "scale_c must be positive and finite"),
        ("fit", {"tol": "x"}, "'fit.tol' must be a number"),
        ("fit", {"max_iter": 2.5}, "max_iter must be an integer"),
        ("algorithm", ["ecme"], "unknown field 'algorithm'"),
        ("fit", {"max_iters": 1}, "unknown field 'fit.max_iters'"),
        ("n", 20, "n must be an integer >= 21"),
        ("fit", {"ar_order": 1}, "ar_order is 1, but the true parameters lack"),
        ("true_params", {**{k: v for k, v in TINY_SPEC["true_params"].items() if k != "mu"},
                         "beta0": [0.0, 0.0], "beta1": [[0.3, 0.0], [0.0, 0.3]]},
         "ar_order is 0, but the true parameters carry"),
        ("fit", {"ar_order": True}, "ar_order must be the integer 0 or 1"),
        ("true_params", {**TINY_SPEC["true_params"], "sigma": [[1.0, 2.0], [2.0, 1.0]]},
         "sigma is not positive definite"),
    ], ids=["algorithms-empty", "algorithms-string", "algorithms-duplicate",
            "delta-number", "delta-string", "gamma-number", "gamma-length",
            "seed-string", "delta-inf", "nu_bounds-number", "delta_cap-negative",
            "scale_c-inf", "tol-string", "max_iter-float",
            "unknown-key", "unknown-fit-key", "n-10d", "ar_order-plain-params",
            "ar-params-no-ar_order", "ar_order-bool", "sigma-indefinite"])
    def test_schema_error_exits_two(self, tmp_path, capsys, field, value, message):
        spec = write_json(tmp_path / "spec.json", {**TINY_SPEC, field: value})
        assert run_cli("simulate", spec, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o" / "study.csv").exists()


class TestSummary:
    def test_summary_file_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        assert run_cli("summary", *PANEL_ARGS, "--out", out) == 0
        capsys.readouterr()
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "series,AAA,BBB"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "mean", "sd", "max", "min", "skewness", "kurtosis", "n", "dropped_rows"]
        assert lines[7] == "n,59"
        assert run_cli("summary", *PANEL_ARGS) == 0
        assert capsys.readouterr().out == text
