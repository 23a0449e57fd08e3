"""Correctness gate: every pass's outcome against the values recorded at the
seed commit in ``reference.json``.

Tolerances, stated once:

* ``LL_RTOL``: the final log-likelihood may fall below the reference by at
  most ``LL_RTOL * (|reference| + 1)``.  A higher value is a better
  maximum and passes.
* ``EST_RTOL``: every estimate lies within ``EST_RTOL`` times the largest
  reference magnitude of its block (location, lag matrix, scale, skew,
  shape) of the reference estimate.
* ``ASCENT_SLACK``: MCECM and ECME log-likelihood traces never drop by more
  than this share of ``|loglik| + 1`` per cycle (the slack of the
  monotone-ascent tests in ``tests/test_ecm.py``).

Two checks need no reference and apply to every ``bulk_n1e4`` seed,
whether or not ``reference.json`` records it:

* every bulk fit sits at a stationary point: one Newton step from its
  estimate would raise the log-likelihood by at most
  ``LL_RTOL * (|loglik| + 1)``.  The step uses the central-difference
  gradient of ``msvg.ecm.observed_loglik`` (relative step ``GRAD_STEP``)
  and the program's observed information; its gain is ``g' I^-1 g / 2``.
* MCECM and ECME maximise the same likelihood on the same d = 2 data:
  their final log-likelihoods agree within ``LL_RTOL * (|loglik| + 1)``
  and their estimates within ``AGREE_Z`` of ECME's standard errors.

Iteration counts are not gated: they are the ``ecm_iters`` metric.  The
study's ``mean.switch_iter`` is compared only as "this cell switched or
not"; a missing value, ``None`` and NaN all read as "no switch".
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import BULK_FITS, BULK_MODELS, FIXTURE_COMMANDS, model_params

REFERENCE = Path(__file__).resolve().parent / "reference.json"

LL_RTOL = 1e-6
EST_RTOL = 1e-3
ASCENT_SLACK = 1e-8
GRAD_STEP = 1e-5
AGREE_Z = 0.25


class Gate:
    """Named pass/fail checks; failures keep a one-line reason."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), "" if ok else detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def reference_entry(reference: dict, workload: str, seed: int) -> dict | None:
    """The recorded inputs digest and outcome for this workload and seed."""
    entries = reference.get(workload, {})
    return entries.get(str(seed), entries.get("any"))


def _block(label: str) -> str:
    return label.split("_")[0]


def _estimates_close(obs: dict, ref: dict) -> tuple[bool, str]:
    if obs.get("labels") != ref["labels"]:
        return False, f"labels {obs.get('labels')} != {ref['labels']}"
    est = obs["estimates"]
    if any(v is None or not math.isfinite(v) for v in est):
        return False, "non-finite estimate"
    scale: dict[str, float] = {}
    for lab, r in zip(ref["labels"], ref["estimates"]):
        scale[_block(lab)] = max(scale.get(_block(lab), 0.0), abs(r))
    worst, where = 0.0, ""
    for lab, e, r in zip(ref["labels"], est, ref["estimates"]):
        excess = abs(e - r) / (EST_RTOL * scale[_block(lab)] or 1.0)
        if excess > worst:
            worst, where = excess, f"{lab}: {e!r} vs {r!r}"
    return worst <= 1.0, where


def _match_fit(gate: Gate, key: str, obs: dict, ref: dict) -> None:
    floor = ref["final_loglik"] - LL_RTOL * (abs(ref["final_loglik"]) + 1.0)
    gate.check(f"{key}.loglik_vs_reference", obs["final_loglik"] >= floor,
               f"{obs['final_loglik']!r} < {floor!r}")
    ok, detail = _estimates_close(obs, ref)
    gate.check(f"{key}.estimates_vs_reference", ok, detail)


def newton_gain(msvg, params, data, info) -> float:
    """Log-likelihood gain of one Newton step from ``params``: g' I^-1 g / 2."""
    theta = msvg.inference.flatten_params(params)

    def loglik(vec):
        return msvg.ecm.observed_loglik(data, msvg.inference.unflatten_params(vec, params))

    grad = np.empty_like(theta)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = GRAD_STEP * max(1.0, abs(theta[j]))
        grad[j] = (loglik(theta + step) - loglik(theta - step)) / (2.0 * step[j])
    return float(0.5 * grad @ np.linalg.solve(np.asarray(info), grad))


def _check_bulk(gate: Gate, msvg, outcome: dict, ref: dict | None, inputs) -> None:
    for key, model, algorithm in BULK_FITS:
        obs = outcome.get(key, {})
        if "labels" not in obs:
            gate.check(f"{key}.fit", False, obs.get("error", "missing"))
            continue
        gate.check(f"{key}.converged", obs["converged"], f"{obs['conv_iter']} cycles")
        if algorithm in ("mcecm", "ecme"):
            gate.check(f"{key}.loglik_never_decreases",
                       obs["worst_rel_drop"] <= ASCENT_SLACK,
                       f"relative drop {obs['worst_rel_drop']:.3e}")
        info_pd = obs["info_min_eig"] is not None and obs["info_min_eig"] > 0
        gate.check(f"{key}.information_pd", info_pd,
                   obs["error"] or f"smallest eigenvalue {obs['info_min_eig']!r}")
        gate.check(f"{key}.se_finite", obs["se_finite"], obs["error"] or "non-finite SE")
        if info_pd:
            params = msvg.inference.unflatten_params(
                np.asarray(obs["estimates"]), model_params(msvg, BULK_MODELS[model]))
            gain = newton_gain(msvg, params, inputs[model], obs["info"])
            limit = LL_RTOL * (abs(obs["final_loglik"]) + 1.0)
            gate.check(f"{key}.stationary", gain <= limit,
                       f"one Newton step gains {gain:.3e} > {limit:.3e}")
        if ref is not None:
            _match_fit(gate, key, obs, ref["outcome"][key])
    mcecm, ecme = outcome.get("d2_mcecm", {}), outcome.get("d2_ecme", {})
    if "labels" in mcecm and "labels" in ecme:
        gap = abs(mcecm["final_loglik"] - ecme["final_loglik"])
        limit = LL_RTOL * (abs(ecme["final_loglik"]) + 1.0)
        gate.check("d2.mcecm_vs_ecme_loglik", gap <= limit, f"gap {gap:.3e} > {limit:.3e}")
        if ecme["se_finite"]:
            z = (np.abs(np.subtract(mcecm["estimates"], ecme["estimates"]))
                 / np.asarray(ecme["ses"]))
            gate.check("d2.mcecm_vs_ecme_estimates", np.all(z <= AGREE_Z),
                       f"largest gap {float(z.max()):.3f} SE")


def _check_fixture(gate: Gate, outcome: dict, ref: dict) -> None:
    for key, _ in FIXTURE_COMMANDS:
        obs, exp = outcome.get(key, {}), ref["outcome"][key]
        gate.check(f"{key}.exit_0", obs.get("exit") == 0,
                   obs.get("failure") or f"exit code {obs.get('exit')}")
        if "failure" in obs or not obs:
            continue
        if key == "summary":
            gate.check("summary.output_vs_reference", obs["sha256"] == exp["sha256"],
                       "summary CSV differs")
            continue
        gate.check(f"{key}.converged", obs["converged"], f"{obs['conv_iter']} cycles")
        _match_fit(gate, key, obs, exp)
        # the AR fit's information is indefinite at the seed: not gated
        if exp["se_finite"]:
            gate.check(f"{key}.se_finite", obs["se_finite"], obs["error"] or "non-finite SE")


def _check_study(gate: Gate, outcome: dict, ref: dict) -> None:
    exp_cells = ref["outcome"]["cells"]
    gate.check("study.cells", sorted(outcome["cells"]) == sorted(exp_cells),
               f"cells {sorted(outcome['cells'])}")
    for key, exp in exp_cells.items():
        obs = outcome["cells"].get(key)
        if obs is None:
            continue
        gate.check(f"{key}.n_failed", obs["n_failed"] == exp["n_failed"],
                   f"{obs['n_failed']} failed, reference {exp['n_failed']}")
        gate.check(f"{key}.switched", obs["switched"] == exp["switched"],
                   f"switched={obs['switched']}, reference {exp['switched']}")
        if None not in exp["means"]:
            ok, detail = _estimates_close(
                {"labels": obs["labels"], "estimates": obs["means"]},
                {"labels": exp["labels"], "estimates": exp["means"]})
            gate.check(f"{key}.means_vs_reference", ok, detail)
    # information and SEs are gated only where they hold at the seed: at
    # delta = 1e-7 standard_errors reports the information singular
    for key, exp in ref["outcome"]["se_step"].items():
        obs = outcome["se_step"].get(key, {})
        if (exp["info_min_eig"] or 0.0) > 0:
            gate.check(f"{key}.information_pd", (obs.get("info_min_eig") or 0.0) > 0,
                       obs.get("error") or f"smallest eigenvalue {obs.get('info_min_eig')!r}")
        if exp["se_finite"]:
            gate.check(f"{key}.se_finite", obs.get("se_finite"),
                       obs.get("error") or "non-finite SE")


def check_pass(gate: Gate, msvg, workload: str, outcome: dict, ref: dict | None,
               inputs) -> None:
    """Add the checks of one pass's outcome (made from ``inputs``) to ``gate``."""
    if workload == "bulk_n1e4":
        _check_bulk(gate, msvg, outcome, ref, inputs)
    elif ref is None:
        gate.check(f"{workload}.reference", False, "no recorded reference")
    elif workload == "fixture_cli":
        _check_fixture(gate, outcome, ref)
    else:
        _check_study(gate, outcome, ref)
