"""The benchmark's workloads: their inputs and one timed pass over each.

Every call into msvg goes through a module attribute looked up at call
time (``msvg.fit``, ``msvg.cli.main``), so the span wrappers of
``probe.py`` see it.  A pass returns an *outcome*: the plain-JSON values
that ``checks.py`` compares against ``reference.json``.

* ``bulk_n1e4``: two n = 10 000 samples drawn from ``--seed``; the d = 2
  sample is fitted with MCECM and with ECME, the d = 5 sample with HECM,
  and each estimate gets ``observed_info`` and ``standard_errors``.  Few
  cycles over large arrays: per-element kernel work dominates.
* ``fixture_cli``: ``msvg summary`` and two ``msvg fit`` runs (plain and
  AR(1)) on the repository's price fixture, in-process.  Thousands of
  cycles over 58 rows: per-call overhead and iteration count dominate.
* ``study_guarded``: ``run_study`` on ``study_guarded.json`` (nu = 0.6 <
  d/2, so the delta-region guard fires), then ``observed_info`` and
  ``standard_errors`` at each cell's estimate (r = 1: the cell mean is the
  replicate's estimate).  Its data come from the spec's ``base_seed``,
  not from ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


class Unavailable(RuntimeError):
    """The checkout lacks what the benchmark measures."""


BULK_N = 10_000
BULK_MODELS = {
    "d2": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.4], [0.4, 1.0]],
           "gamma": [0.2, 0.3], "nu": 2.5},
    "d5": {"mu": [0.0] * 5,
           "sigma": (0.3 * np.ones((5, 5)) + 0.7 * np.eye(5)).tolist(),
           "gamma": [0.1, 0.2, 0.3, 0.4, 0.5], "nu": 2.5},
}
BULK_FITS = (("d2_mcecm", "d2", "mcecm"), ("d2_ecme", "d2", "ecme"),
             ("d5_hecm", "d5", "hecm"))

FIXTURE = Path("tests") / "data" / "fixture_prices.csv"
FIXTURE_COMMANDS = (
    ("summary", ["summary", "--date-column", "date"]),
    ("fit", ["fit", "--date-column", "date", "--tol", "1e-8"]),
    ("fit_ar", ["fit", "--date-column", "date", "--tol", "1e-8", "--ar", "1"]),
)

STUDY_SPEC = HERE / "study_guarded.json"
# replicates per cell for the pool comparison of a traced run; the measured
# pass keeps the spec's r = 1, which run_study dispatches without a pool
STUDY_POOL_R = 2


def _sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def model_params(msvg, blob):
    return msvg.MsvgParams(**blob)


def _fit_outcome(msvg, report):
    trace = np.asarray(report.loglik_trace)
    drops = (trace[:-1] - trace[1:]) / (np.abs(trace[1:]) + 1.0)
    return {
        "algorithm": report.algorithm,
        "converged": bool(report.converged),
        "conv_iter": int(report.conv_iter),
        "final_loglik": float(report.final_loglik),
        "worst_rel_drop": float(drops.max()) if drops.size else 0.0,
        "labels": msvg.inference.param_labels(report.params),
        "estimates": msvg.inference.flatten_params(report.params).tolist(),
    }


def _info_outcome(msvg, params, data, guard=None):
    out = {"info_min_eig": None, "se_finite": False, "ses": None, "info": None,
           "error": None}
    # errors are reported to the gate, not raised
    try:
        info = msvg.observed_info(params, data, guard=guard)
        out["info"] = info.matrix.tolist()
        out["info_min_eig"] = float(np.linalg.eigvalsh(info.matrix)[0])
        ses = msvg.standard_errors(info)
    except Exception as exc:  # noqa: BLE001
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out["ses"] = [float(ses[lab]) for lab in info.index_map]
    out["se_finite"] = bool(np.all(np.isfinite(out["ses"])))
    return out


class Bulk:
    name = "bulk_n1e4"

    @staticmethod
    def make_inputs(msvg, root: Path, seed: int):
        return {key: msvg.sample(model_params(msvg, blob), BULK_N,
                                 seed=msvg.replicate_seed(seed, i))
                for i, (key, blob) in enumerate(BULK_MODELS.items())}

    @staticmethod
    def digest(inputs) -> str:
        return _sha256(*(np.ascontiguousarray(inputs[k]).tobytes() for k in sorted(inputs)))

    @staticmethod
    def run_pass(msvg, inputs, workdir: Path) -> dict:
        out = {}
        for key, model, algorithm in BULK_FITS:
            data = inputs[model]
            try:
                report = msvg.fit(data, msvg.FitConfig(algorithm=algorithm))
            except Exception as exc:  # noqa: BLE001 - a failed fit is a failed check
                out[key] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            out[key] = _fit_outcome(msvg, report)
            out[key].update(_info_outcome(msvg, report.params, data))
        return out


class FixtureCli:
    name = "fixture_cli"

    @staticmethod
    def make_inputs(msvg, root: Path, seed: int):
        if not (root / FIXTURE).is_file():
            raise Unavailable(f"no fixture at {root / FIXTURE}")
        return root / FIXTURE

    @staticmethod
    def digest(inputs) -> str:
        return _sha256(Path(inputs).read_bytes())

    @staticmethod
    def run_pass(msvg, inputs, workdir: Path) -> dict:
        out = {}
        for key, argv in FIXTURE_COMMANDS:
            target = workdir / (f"{key}.csv" if argv[0] == "summary" else key)
            full = [argv[0], "--data", str(inputs), *argv[1:], "--out", str(target)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = msvg.cli.main(full)
            except Exception as exc:  # noqa: BLE001 - main should map every error to a code
                out[key] = {"exit": None, "failure": f"{type(exc).__name__}: {exc}"}
                continue
            written = target if argv[0] == "summary" else Path(f"{target}.json")
            if not written.is_file():
                # main maps a failed fit to exit 1 or 2 and writes nothing
                out[key] = {"exit": code, "failure": f"exit code {code}, no {written.name}"}
                continue
            if argv[0] == "summary":
                out[key] = {"exit": code, "sha256": _sha256(written.read_bytes())}
                continue
            blob = json.loads(written.read_text())
            ses = blob["standard_errors"]
            out[key] = {
                "exit": code,
                "converged": bool(blob["converged"]),
                "conv_iter": int(blob["conv_iter"]),
                "final_loglik": float(blob["final_loglik"]),
                "labels": list(blob["estimates"]),
                "estimates": [float(v) for v in blob["estimates"].values()],
                "se_finite": bool(len(ses) == len(blob["estimates"])
                                  and all(np.isfinite(v) for v in ses.values())),
                "error": blob["se_error"],
            }
        return out


def load_study_spec(msvg, r: int | None = None):
    blob = json.loads(STUDY_SPEC.read_text())
    _, spec = msvg.cli.parse_study_spec(blob)
    return spec if r is None else replace(spec, r=r)


def switched(mean_switch_iter) -> bool:
    """Whether a study cell switched stage; missing, None and NaN mean no."""
    return mean_switch_iter is not None and bool(np.isfinite(mean_switch_iter))


def _gamma_key(gamma) -> str:
    # the cell key format of msvg.study.run_study
    return "|".join(repr(float(g)) for g in np.asarray(gamma))


class StudyGuarded:
    name = "study_guarded"

    @staticmethod
    def make_inputs(msvg, root: Path, seed: int):
        spec = load_study_spec(msvg)
        data = {}
        for gamma in spec.gamma_levels:
            cell = replace(spec.true_params, gamma=np.asarray(gamma, dtype=float))
            for i in range(spec.r):
                data[(_gamma_key(gamma), i)] = msvg.sample(
                    cell, spec.n, seed=msvg.replicate_seed(spec.base_seed, i))
        return {"spec": spec, "data": data}

    @staticmethod
    def digest(inputs) -> str:
        data = inputs["data"]
        return _sha256(STUDY_SPEC.read_bytes(),
                       *(np.ascontiguousarray(data[k]).tobytes() for k in sorted(data)))

    @staticmethod
    def run_pass(msvg, inputs, workdir: Path) -> dict:
        spec = inputs["spec"]
        table = msvg.run_study(spec)
        labels = msvg.inference.param_labels(spec.true_params)
        cells = {}
        for row in table.rows:
            key = f"{row['algorithm']},{row['delta']},{row['gamma']}"
            cells.setdefault(key, {})[row["statistic"]] = row["value"]
        out = {"cells": {}, "se_step": {}}
        for key, stats in cells.items():
            out["cells"][key] = {
                "n_failed": stats["n_failed"],
                "switched": switched(stats.get("mean.switch_iter")),
                "labels": labels,
                "means": [stats.get(f"mean.{lab}") for lab in labels],
                "conv_iter": stats.get("mean.conv_iter"),
            }
        for key, stats in cells.items():
            if f"mean.{labels[0]}" not in stats:    # every replicate failed
                continue
            _, delta, gkey = key.split(",")
            gamma = [float(g) for g in gkey.split("|")]
            cell_true = replace(spec.true_params, gamma=np.asarray(gamma))
            theta = np.array([stats[f"mean.{lab}"] for lab in labels])
            params = msvg.inference.unflatten_params(theta, cell_true)
            out["se_step"][key] = _info_outcome(
                msvg, params, inputs["data"][(gkey, 0)],
                guard=msvg.CenterGuard(float(delta)))
        return out


WORKLOADS = {w.name: w for w in (Bulk, FixtureCli, StudyGuarded)}


def quiet_pass(workload, msvg, inputs, workdir: Path) -> tuple[dict, list[str]]:
    """One pass with the program's warnings captured instead of printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = workload.run_pass(msvg, inputs, workdir)
    return outcome, sorted({f"{w.category.__name__}: {w.message}" for w in caught})
