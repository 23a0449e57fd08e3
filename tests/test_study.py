import hashlib
import math
import os

import numpy as np
import pytest

from msvg import study
from msvg.distribution import MsvgParams, sample
from msvg.ecm import FitConfig
from msvg.study import StudySpec, delta_sweep, replicate_seed, run_study, skew_sweep

TRUE = MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                  gamma=[0.2, 0.3], nu=2.5)


def small_spec(**kw):
    base = dict(true_params=TRUE, n=250, r=2, base_seed=7,
                algorithms=("mcecm",),
                fit_config=FitConfig(algorithm="mcecm", tol=1e-7))
    base.update(kw)
    return StudySpec(**base)


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


class TestSweeps:
    def test_delta_sweep_consistency_with_run_study(self):
        spec = small_spec(true_params=MsvgParams(mu=[0.0, 0.0],
                                                 sigma=[[1.0, 0.4], [0.4, 1.0]],
                                                 gamma=[0.2, 0.3], nu=0.6),
                          delta_levels=[1e-4])
        sweep = delta_sweep(spec)
        direct = run_study(spec)
        assert sweep.rows == direct.rows

    def test_delta_sweep_warns_when_density_bounded(self):
        spec = small_spec(delta_levels=[1e-4])  # true nu = 2.5 > d/2
        with pytest.warns(RuntimeWarning, match="unbounded"):
            table = delta_sweep(spec)
        assert_no_nan(table)

    def test_delta_sweep_requires_levels(self):
        with pytest.raises(ValueError, match="delta_levels"):
            delta_sweep(small_spec())

    def test_skew_sweep_cells(self):
        spec = small_spec(gamma_levels=[np.array([0.2, 0.2]),
                                        np.array([0.5, 2.0])],
                          algorithms=("hecm",),
                          fit_config=FitConfig(algorithm="hecm", tol=1e-7))
        table = skew_sweep(spec)
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
        with pytest.raises(ValueError, match="invalid skew level"):
            skew_sweep(small_spec(gamma_levels=[np.array([1.0, 2.0, 3.0])]))
        with pytest.raises(ValueError, match="gamma_levels"):
            skew_sweep(small_spec())
