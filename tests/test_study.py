import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from msvg import ecm, study
from msvg.distribution import MsvgParams, sample
from msvg.ecm import FitConfig
from msvg.study import StudySpec, _spec_to_json, parse_study_spec, replicate_seed, run_study

TRUE = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                  gamma=[0.2, 0.3], nu=2.5)
TRUE_AR = dataclasses.replace(TRUE, beta1=[[0.3, 0.0], [0.1, 0.2]])


def small_spec(**kw):
    base = dict(true_params=TRUE, n=250, r=2, base_seed=7,
                algorithms=("mcecm",),
                fit_config=FitConfig(algorithm="mcecm", tol=1e-7))
    base.update(kw)
    return StudySpec(**base)


def spec_blob(spec, **kw):
    """The JSON form of ``spec`` with the keys ``kw`` added or replaced."""
    return {**_spec_to_json(spec), **kw}


def assert_same_spec(a, b):
    assert a.true_params.to_json() == b.true_params.to_json()
    assert ((a.n, a.r, a.base_seed, a.algorithms, a.delta_levels, a.fit_config)
            == (b.n, b.r, b.base_seed, b.algorithms, b.delta_levels, b.fit_config))
    levels = [None if s.gamma_levels is None else [g.tolist() for g in s.gamma_levels]
              for s in (a, b)]
    assert levels[0] == levels[1]


def assert_no_nan(table):
    bad = [r for r in table.rows if not math.isfinite(r["value"])]
    assert not bad, bad


@pytest.fixture(autouse=True)
def serial_workers(monkeypatch):
    monkeypatch.setenv("MSVG_THREADS", "1")


class TestSpecValidation:
    def test_replicate_seed_deterministic(self):
        assert replicate_seed(7, 3) == replicate_seed(7, 3)
        assert replicate_seed(7, 3) != replicate_seed(7, 4)
        assert replicate_seed(8, 3) != replicate_seed(7, 3)

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="r must"):
            small_spec(r=0)
        with pytest.raises(ValueError, match="n must"):
            small_spec(n=5)
        with pytest.raises(ValueError, match="delta levels"):
            small_spec(delta_levels=[1e-4, -1.0])

    @pytest.mark.parametrize("kw, message", [
        ({"algorithms": ()}, "non-empty list"),
        ({"algorithms": ("mcecm", "em")}, "non-empty list"),
        ({"algorithms": ("hecm", "mcecm", "hecm")}, "twice"),
        ({"gamma_levels": [np.array([0.2, 0.3]), np.array([1.0, 2.0, 3.0])]},
         r"'gamma_levels\[1\]' must be a list of 2 numbers"),
        ({"gamma_levels": [[0.2, math.inf]]}, "all finite"),
        ({"base_seed": -1}, "'base_seed' must be an integer >= 0"),
        ({"r": 2.0}, "r must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"fit_config": FitConfig(ar_order=1)}, "ar_order is 1, but the true parameters lack"),
        ({"true_params": TRUE_AR}, "ar_order is 0, but the true parameters carry"),
    ], ids=["algorithms-empty", "algorithms-unknown", "algorithms-duplicate",
            "gamma-length", "gamma-inf", "seed-negative", "r-float", "n-bool",
            "ar_order-plain-params", "ar-params-no-ar_order"])
    def test_rejected_values(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**kw)

    @pytest.mark.parametrize("true_params, ar_order, n_min",
                             [(TRUE, 0, 21), (TRUE_AR, 1, 22)], ids=["plain", "ar1"])
    def test_sample_size_bound_is_what_fit_needs(self, true_params, ar_order, n_min):
        # fit needs more than MIN_OBS_PER_DIM modelled rows per dimension,
        # and an AR(1) sample spends its first row on conditioning
        assert n_min == ecm.MIN_OBS_PER_DIM * true_params.d + 1 + ar_order
        config = FitConfig(algorithm="mcecm", ar_order=ar_order, max_iter=2)
        with pytest.raises(ValueError, match=f"n must be an integer >= {n_min}"):
            small_spec(true_params=true_params, n=n_min - 1, fit_config=config)
        spec = small_spec(true_params=true_params, n=n_min, r=1, fit_config=config)
        data = sample(true_params, spec.n, seed=replicate_seed(spec.base_seed, 0))
        ecm.fit(data, config)  # enough rows: no "need more than" error
        with pytest.raises(ValueError, match="need more than"):
            ecm.fit(data[1:], config)


class TestSpecJson:
    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(true_params=TRUE_AR, n=60,
                   fit_config=FitConfig(algorithm="ecme", ar_order=1, delta_cap=1e-5)),
        small_spec(algorithms=("hecm", "mcecm"), delta_levels=[1e-7, 1e-4],
                   gamma_levels=[np.array([0.2, 0.3]), np.array([0.5, 2.0])]),
    ], ids=["plain", "ar1", "levels"])
    def test_roundtrip(self, spec):
        kind, back = parse_study_spec(_spec_to_json(spec))
        assert kind == "study"
        assert_same_spec(back, spec)

    def test_fit_algorithm_defaults_to_the_first_listed(self):
        blob = spec_blob(small_spec(algorithms=("ecme", "hecm")))
        del blob["fit"]["algorithm"]
        _, spec = parse_study_spec(blob)
        assert spec.fit_config.algorithm == "ecme"


class TestRunStudy:
    def test_single_replicate_smoke(self):
        table = run_study(small_spec(r=1))
        cell = table.cell(algorithm="mcecm")
        assert cell["r"] == 1.0
        assert cell["n_failed"] == 0.0
        assert "mean.nu" in cell
        assert "mean.final_loglik" in cell
        assert cell["sd.nu"] == 0.0  # single replicate: no spread
        # MCECM never switches stage: a zero count and no mean over nothing
        assert cell["n_switched"] == 0.0
        assert "mean.switch_iter" not in cell
        assert_no_nan(table)

    def test_reproducibility_byte_identical(self, tmp_path):
        spec = small_spec()
        t1, t2 = run_study(spec), run_study(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        t1.write_csv(p1)
        t2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        # "no switch" in an MCECM cell is n_switched 0, never a nan value
        lines = p1.read_text().splitlines()[1:]
        assert lines
        for line in lines:
            assert math.isfinite(float(line.rsplit(",", 1)[1])), line
        assert not any(",mean.switch_iter," in line for line in lines)

    def test_datasets_shared_across_algorithms(self):
        # the replicate seed depends only on (base seed, index), so every
        # algorithm cell refits the same data
        spec = small_spec(algorithms=("mcecm", "ecme", "hecm"))
        seeds = [replicate_seed(spec.base_seed, i) for i in range(spec.r)]
        digests = {hashlib.sha256(sample(TRUE, spec.n, seed=s).tobytes()).hexdigest()
                   for s in seeds}
        assert len(digests) == spec.r  # distinct replicates, identical per cell
        table = run_study(spec)
        lls = [table.cell(algorithm=a)["mean.final_loglik"]
               for a in ("mcecm", "ecme", "hecm")]
        assert max(lls) - min(lls) < 1e-3 * abs(lls[0])
        for a in ("mcecm", "ecme"):
            cell = table.cell(algorithm=a)
            assert cell["n_switched"] == 0.0
            assert "mean.switch_iter" not in cell
        hecm = table.cell(algorithm="hecm")
        assert hecm["n_switched"] == hecm["r"] - hecm["n_failed"]
        assert_no_nan(table)

    def test_back_scaling_correctness(self):
        spec1 = small_spec(fit_config=FitConfig(algorithm="mcecm", scale_c=1.0))
        spec100 = small_spec(fit_config=FitConfig(algorithm="mcecm", scale_c=100.0))
        t1, t100 = run_study(spec1), run_study(spec100)
        c1, c100 = t1.cell(algorithm="mcecm"), t100.cell(algorithm="mcecm")
        for lab in ("mu_1", "mu_2", "sigma_11", "sigma_21", "sigma_22",
                    "gamma_1", "gamma_2", "nu"):
            a, b = c1[f"mean.{lab}"], c100[f"mean.{lab}"]
            assert b == pytest.approx(a, rel=1e-6, abs=1e-9), lab

    def test_sidecar_roundtrip(self, tmp_path):
        import json

        table = run_study(small_spec())
        path = tmp_path / "spec.json"
        table.write_spec_sidecar(path)
        blob = json.loads(path.read_text())
        assert blob["n"] == 250
        assert blob["true_params"]["nu"] == 2.5

    def test_parallel_matches_serial(self, monkeypatch):
        # the second spec's blocks reach the Bessel kernel's thread-split size
        for spec in (small_spec(r=3),
                     small_spec(n=4096, fit_config=FitConfig(algorithm="mcecm",
                                                             max_iter=3))):
            monkeypatch.setenv("MSVG_THREADS", "1")
            serial = run_study(spec)
            monkeypatch.setenv("MSVG_THREADS", "2")
            parallel = run_study(spec)
            s = {(r["statistic"]): r["value"] for r in serial.rows}
            p = {(r["statistic"]): r["value"] for r in parallel.rows}
            assert s == p
            assert (serial.spec_json["cell_failure_reasons"]
                    == parallel.spec_json["cell_failure_reasons"])

    @pytest.mark.parametrize("threads, r, expected", [("8", 2, 2), ("2", 3, 2)])
    def test_pool_sized_by_replicates(self, monkeypatch, threads, r, expected):
        # a stand-in executor that records its size and starts no process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(study, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("MSVG_THREADS", threads)
        spec = small_spec(r=r, fit_config=FitConfig(algorithm="mcecm", max_iter=3))
        run_study(spec)
        assert sizes == [expected]


def counted_fit(monkeypatch, keep_stage=True):
    """Replace the study's fit by one that records each call's algorithm and,
    with ``keep_stage=False``, drops the MCECM stage of an HECM report."""
    calls = []

    def fit(data, config):
        calls.append(config.algorithm)
        report = ecm.fit(data, config)
        return report if keep_stage else dataclasses.replace(report, mcecm_stage=None)

    monkeypatch.setattr(study, "fit", fit)
    return calls


class TestMcecmFromHecm:
    def race(self, r):
        # 3 algorithms x 2 deltas x 2 skew levels = 12 cells
        return small_spec(n=150, r=r, algorithms=("mcecm", "ecme", "hecm"),
                          fit_config=FitConfig(tol=1e-6),
                          delta_levels=[1e-7, 1e-4],
                          gamma_levels=[np.array([0.2, 0.3]), np.array([0.5, 2.0])])

    @pytest.mark.parametrize("r", [1, 2])
    def test_shared_study_matches_unshared(self, monkeypatch, tmp_path, r):
        spec = self.race(r)
        tables, calls = {}, {}
        for keep in (True, False):
            calls[keep] = counted_fit(monkeypatch, keep_stage=keep)
            tables[keep] = run_study(spec)
            tables[keep].write_csv(tmp_path / f"{keep}.csv")
        assert (tmp_path / "True.csv").read_bytes() == (tmp_path / "False.csv").read_bytes()
        shared, unshared = tables[True].spec_json, tables[False].spec_json
        assert list(shared["cell_wall_times"]) == list(unshared["cell_wall_times"])
        assert shared["cell_failure_reasons"] == unshared["cell_failure_reasons"]
        # one HECM and one ECME fit per replicate and block; MCECM is read off
        assert len(calls[False]) == 12 * r
        assert len(calls[True]) == 8 * r
        assert "mcecm" not in calls[True]

    def test_mcecm_fitted_when_hecm_raises(self, monkeypatch):
        # HECM fails after its switch: the MCECM cell still gets its own fit
        calls = []

        def fit(data, config):
            calls.append(config.algorithm)
            report = ecm.fit(data, config)
            if config.algorithm == "hecm":
                assert report.mcecm_stage is not None
                raise RuntimeError("failed after the switch")
            return report

        monkeypatch.setattr(study, "fit", fit)
        spec = small_spec(algorithms=("mcecm", "hecm"))
        table = run_study(spec)
        assert calls == ["hecm"] * spec.r + ["mcecm"] * spec.r
        hecm = table.cell(algorithm="hecm")
        assert hecm["n_failed"] == spec.r
        reasons = table.spec_json["cell_failure_reasons"]
        assert reasons["hecm,default,0.2|0.3"] == {
            "RuntimeError: failed after the switch": spec.r}
        monkeypatch.setattr(study, "fit", ecm.fit)
        alone = run_study(small_spec(algorithms=("mcecm",)))
        assert table.cell(algorithm="mcecm") == alone.cell(algorithm="mcecm")


class TestSweeps:
    def test_delta_sweep_warns_when_density_bounded(self):
        blob = spec_blob(small_spec(delta_levels=[1e-4]), kind="delta_sweep")
        with pytest.warns(RuntimeWarning, match="unbounded"):  # true nu = 2.5 > d/2
            kind, spec = parse_study_spec(blob)
        assert kind == "delta_sweep"
        assert_no_nan(run_study(spec))

    def test_delta_sweep_requires_levels(self):
        with pytest.raises(ValueError, match="delta_levels"):
            parse_study_spec(spec_blob(small_spec(), kind="delta_sweep"))

    def test_skew_sweep_cells(self):
        spec = small_spec(gamma_levels=[np.array([0.2, 0.2]),
                                        np.array([0.5, 2.0])],
                          algorithms=("hecm",),
                          fit_config=FitConfig(algorithm="hecm", tol=1e-7))
        kind, spec = parse_study_spec(spec_blob(spec, kind="skew_sweep"))
        assert kind == "skew_sweep"
        table = run_study(spec)
        g1 = table.cell(gamma="0.2|0.2")
        g2 = table.cell(gamma="0.5|2.0")
        assert g1 and g2
        assert "mean.switch_iter" in g1
        assert "mean.conv_iter" in g1
        for cell in (g1, g2):
            # a HECM fit converges only after it has switched to ECME
            assert cell["n_switched"] == cell["r"] - cell["n_failed"]
        assert_no_nan(table)

    def test_skew_sweep_validates_levels(self):
        blob = spec_blob(small_spec(), kind="skew_sweep", gamma_levels=[[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match=r"'gamma_levels\[0\]' must be a list of 2"):
            parse_study_spec(blob)
        with pytest.raises(ValueError, match="gamma_levels"):
            parse_study_spec(spec_blob(small_spec(), kind="skew_sweep"))
