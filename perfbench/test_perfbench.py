"""Tests of the benchmark itself: stable inputs, declared metric names, and a
correctness gate that fires.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = checks.load_reference()


@pytest.fixture(scope="module")
def msvg():
    return run.import_msvg(run.ROOT)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_byte_identical_for_a_seed(msvg, name):
    workload = workloads.WORKLOADS[name]
    first = workload.digest(workload.make_inputs(msvg, run.ROOT, 0))
    again = workload.digest(workload.make_inputs(msvg, run.ROOT, 0))
    assert first == again
    assert first == checks.reference_entry(REFERENCE, name, 0)["inputs"]


def test_bulk_inputs_follow_the_seed(msvg):
    bulk = workloads.Bulk
    assert (bulk.digest(bulk.make_inputs(msvg, run.ROOT, 1))
            != bulk.digest(bulk.make_inputs(msvg, run.ROOT, 2)))


def test_printed_end_to_end_names_match_benchmark_json():
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "study_guarded",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in DECLARED["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_names_match_benchmark_json_and_seed_counts(msvg):
    p = msvg.MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]],
                        gamma=[0.2, 0.3], nu=2.5)
    data = msvg.sample(p, 300, seed=4)
    with probe.Recorder(probe.TRACED) as rec:
        report = msvg.fit(data, msvg.FitConfig(algorithm="mcecm"))
        msvg.standard_errors(msvg.observed_info(report.params, data))
    layers = probe.layer_metrics(rec.spans)
    names = set(layers) | set(run.STUDY_METRICS) | {"trace.fit_overhead_s"}
    assert names == {m["name"] for m in DECLARED["per_layer"]}
    assert layers["ecm.bessel_calls_per_iter"] == 9.0
    assert layers["inference.bessel_calls_per_info"] == 29.0
    assert layers["ecm.iters_per_fit"] == report.conv_iter
    # the wrappers are gone once the recorder exits
    assert msvg.fit.__module__ == "msvg.ecm" and not hasattr(msvg.fit, "__wrapped__")


@pytest.fixture(scope="module")
def bulk_pass(msvg, tmp_path_factory):
    """Inputs and outcome of one bulk_n1e4 pass at seed 0."""
    inputs = workloads.Bulk.make_inputs(msvg, run.ROOT, 0)
    outcome, _ = workloads.quiet_pass(workloads.Bulk, msvg, inputs,
                                      tmp_path_factory.mktemp("bulk"))
    return inputs, outcome


def _failed_checks(msvg, name, outcome, ref, inputs=None):
    gate = checks.Gate()
    checks.check_pass(gate, msvg, name, outcome, ref, inputs)
    assert gate.attempted > 0
    return {n for n, ok, _ in gate.results if not ok}


def _perturb(blob, where, change):
    node = blob
    for key in where[:-1]:
        node = node[key]
    if isinstance(change, float) and not isinstance(node[where[-1]], bool):
        node[where[-1]] += change
    else:
        node[where[-1]] = change


PERTURBATIONS = [
    ("bulk_n1e4", ("d2_mcecm", "final_loglik"), 1.0, "d2_mcecm.loglik_vs_reference"),
    ("bulk_n1e4", ("d5_hecm", "estimates", 25), 0.01, "d5_hecm.estimates_vs_reference"),
    ("fixture_cli", ("summary", "sha256"), "0" * 64, "summary.output_vs_reference"),
    ("fixture_cli", ("fit_ar", "estimates", 0), 1e-3, "fit_ar.estimates_vs_reference"),
    ("study_guarded", ("cells", "hecm,0.0001,0.5|2.0", "n_failed"), 1.0,
     "hecm,0.0001,0.5|2.0.n_failed"),
    ("study_guarded", ("cells", "ecme,1e-07,0.2|0.2", "switched"), True,
     "ecme,1e-07,0.2|0.2.switched"),
    ("study_guarded", ("cells", "mcecm,1e-07,0.2|0.2", "means", 7), 0.01,
     "mcecm,1e-07,0.2|0.2.means_vs_reference"),
]


@pytest.mark.parametrize("name,where,change,check", PERTURBATIONS)
def test_gate_fires_when_a_reference_value_is_perturbed(msvg, bulk_pass, name, where, change,
                                                         check):
    ref = checks.reference_entry(REFERENCE, name, 0)
    if name == "bulk_n1e4":
        inputs, outcome = bulk_pass
    else:
        inputs, outcome = None, copy.deepcopy(ref["outcome"])
    assert _failed_checks(msvg, name, outcome, ref, inputs) == set()

    bad = copy.deepcopy(ref)
    _perturb(bad["outcome"], where, change)
    assert _failed_checks(msvg, name, outcome, bad, inputs) == {check}


# outcome changes caught without any reference, as on an unrecorded seed:
# (fit, estimate index or None for the final log-likelihood, change in SEs
# of that estimate or in log-likelihood units, checks that fire)
UNRECORDED = [
    ("d2_ecme", None, -1.0, {"d2.mcecm_vs_ecme_loglik"}),
    ("d5_hecm", 25, 1.0, {"d5_hecm.stationary"}),
    ("d2_mcecm", 4, 1.0, {"d2_mcecm.stationary", "d2.mcecm_vs_ecme_estimates"}),
]


@pytest.mark.parametrize("key,index,change,fired", UNRECORDED)
def test_gate_fires_without_a_reference(msvg, bulk_pass, key, index, change, fired):
    inputs, outcome = bulk_pass
    assert _failed_checks(msvg, "bulk_n1e4", outcome, None, inputs) == set()
    bad = copy.deepcopy(outcome)
    if index is None:
        bad[key]["final_loglik"] += change
    else:
        bad[key]["estimates"][index] += change * bad[key]["ses"][index]
    assert _failed_checks(msvg, "bulk_n1e4", bad, None, inputs) == fired


def test_a_fit_command_that_writes_nothing_fails_the_gate(msvg, monkeypatch, tmp_path):
    real_main = msvg.cli.main

    def failing_fit(argv):
        # a fit that main maps to exit 1 without writing its output
        return real_main(argv) if argv[0] == "summary" else 1

    monkeypatch.setattr(msvg.cli, "main", failing_fit)
    inputs = workloads.FixtureCli.make_inputs(msvg, run.ROOT, 0)
    outcome, _ = workloads.quiet_pass(workloads.FixtureCli, msvg, inputs, tmp_path)
    ref = checks.reference_entry(REFERENCE, "fixture_cli", 0)
    assert _failed_checks(msvg, "fixture_cli", outcome, ref) == {"fit.exit_0", "fit_ar.exit_0"}


def test_switch_comparison_is_nan_aware():
    assert not workloads.switched(float("nan"))
    assert not workloads.switched(None)
    assert workloads.switched(12.0)
