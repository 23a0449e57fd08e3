"""Simulation studies: the spec (:class:`StudySpec`, which checks its values),
its JSON reader :func:`parse_study_spec` and writer (the sidecar), and the
driver :func:`run_study`, which also runs the threshold and skewness sweeps.

Every cell of a study is a (algorithm, delta threshold, skew level) triple.
Replicate datasets depend only on the base seed, the replicate index and
the cell's true parameters, so the same datasets are refitted across
algorithms and across delta levels.  An HECM fit contains the MCECM fit of
its replicate (:attr:`msvg.ecm.FitReport.mcecm_stage`), so when a study
lists both, each (delta, skew) block runs its HECM cell first and reads the
MCECM cell from those fits; MCECM is fitted afresh only for a replicate
whose HECM fit raised or kept no stage.  Replicates may run in parallel;
aggregation folds over the replicate index, so the output is identical
regardless of scheduling.  ``MSVG_THREADS`` (0 = auto, see
:func:`msvg.specfun.thread_count`) caps both the worker processes of a study
and the threads of the Bessel kernel; the workers already fill the cores, so
each runs its kernel on one thread.

The sidecar written next to the table records, per cell, the summed fit wall
time (``cell_wall_times``; for an MCECM cell read from HECM fits, their time
up to the switch) and how often each reason ended a failed
replicate (``cell_failure_reasons``: the exception text, or "not converged"
for a fit that reached ``max_iter``).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .distribution import CenterGuard, MsvgParams, sample
from .ecm import ALGORITHMS, MIN_OBS_PER_DIM, FitConfig, _is_int, fit
from .inference import flatten_params, param_labels
from .specfun import thread_count as _worker_count


@dataclass
class StudySpec:
    """One simulation study: true model, sizes, seeds, and the cells to run.

    The one check of a spec's values; keeps ``algorithms`` as a tuple and
    each skew level as a float array."""

    true_params: MsvgParams
    n: int
    r: int
    base_seed: int = 0
    algorithms: tuple[str, ...] = ("hecm",)
    delta_levels: list[float] | None = None
    gamma_levels: list[np.ndarray] | None = None
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        params, ar_order = self.true_params, self.fit_config.ar_order
        if not _is_int(self.r) or self.r < 1:
            raise ValueError(f"replicate count r must be an integer >= 1, got {self.r!r}")
        if not _is_int(self.base_seed) or self.base_seed < 0:
            raise ValueError(f"'base_seed' must be an integer >= 0, got {self.base_seed!r}")
        if ar_order != int(params.ar):
            raise ValueError(f"fit ar_order is {ar_order}, but the true parameters "
                             f"{'carry' if params.ar else 'lack'} the AR(1) lag matrix")
        # fit needs more than MIN_OBS_PER_DIM rows per dimension after the AR(1) one
        n_min = MIN_OBS_PER_DIM * params.d + 1 + ar_order
        if not _is_int(self.n) or self.n < n_min:
            raise ValueError(f"sample size n must be an integer >= {n_min}, got {self.n!r}")
        if (not isinstance(self.algorithms, (list, tuple)) or not self.algorithms
                or not all(a in ALGORITHMS for a in self.algorithms)):
            raise ValueError(f"algorithms must be a non-empty list of names from "
                             f"{ALGORITHMS}, got {self.algorithms!r}")
        self.algorithms = tuple(self.algorithms)
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError("algorithms lists an algorithm twice")
        for x in self.delta_levels or ():
            try:
                CenterGuard(x)
            except ValueError as exc:
                raise ValueError(f"delta levels: {exc}") from None
        if self.gamma_levels:
            self.gamma_levels = [np.asarray(g, dtype=float) for g in self.gamma_levels]
        for i, g in enumerate(self.gamma_levels or ()):
            if g.shape != (params.d,) or not np.all(np.isfinite(g)):
                raise ValueError(f"'gamma_levels[{i}]' must be a list of {params.d} numbers, "
                                 "all finite")


def replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic per-replicate seed from a splittable counter scheme."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _replicate_result(report) -> dict:
    return {
        "converged": bool(report.converged),
        "estimates": flatten_params(report.params),
        "final_loglik": report.final_loglik,
        "conv_iter": report.conv_iter,
        "switch_iter": report.switch_iter,
        "wall_time": report.wall_time,
    }


def _run_replicate(task):
    true_params, n, seed, config = task
    data = sample(true_params, n, seed=seed)
    try:
        report = fit(data, config)
    except Exception as exc:  # noqa: BLE001 - a failed replicate must not kill the cell
        return {"converged": False, "error": f"{type(exc).__name__}: {exc}"}
    out = _replicate_result(report)
    if report.mcecm_stage is not None:
        out["mcecm_stage"] = _replicate_result(report.mcecm_stage)
    return out


def _one_kernel_thread() -> None:
    os.environ["MSVG_THREADS"] = "1"


def _map_tasks(tasks):
    workers = _worker_count()
    if workers <= 1 or len(tasks) <= 1:
        return [_run_replicate(t) for t in tasks]
    try:
        # a fork-started pool launches all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=_one_kernel_thread) as pool:
            return list(pool.map(_run_replicate, tasks))
    except (OSError, RuntimeError) as exc:
        warnings.warn(f"parallel replicates unavailable ({exc}); running serially",
                      RuntimeWarning)
        return [_run_replicate(t) for t in tasks]


@dataclass
class StudyTable:
    """Long-format study results: one row per (cell, statistic)."""

    rows: list[dict]
    spec_json: dict

    def cell(self, **keys) -> dict[str, float]:
        """Statistics of one cell as a dict, selected by cell keys.

        A ``mean.*`` or ``sd.*`` statistic is present only when at least one
        replicate contributes to it; ``n_switched`` is present in every cell
        with a converged replicate.  MCECM and ECME cells never switch stage,
        so they carry ``n_switched = 0`` and no ``mean.switch_iter``.
        """
        out = {}
        for row in self.rows:
            if all(str(row[k]) == str(v) for k, v in keys.items()):
                out[row["statistic"]] = row["value"]
        return out

    def write_csv(self, path) -> None:
        lines = ["algorithm,delta,gamma,statistic,value"]
        for row in self.rows:
            value = row["value"]
            text = repr(float(value)) if isinstance(value, float) else str(value)
            lines.append(f"{row['algorithm']},{row['delta']},{row['gamma']},"
                         f"{row['statistic']},{text}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_spec_sidecar(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spec_json, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _spec_to_json(spec: StudySpec) -> dict:
    cfg = asdict(spec.fit_config)
    cfg.pop("init", None)
    return {
        "true_params": spec.true_params.to_json(),
        "n": spec.n,
        "r": spec.r,
        "base_seed": spec.base_seed,
        "algorithms": list(spec.algorithms),
        "delta_levels": spec.delta_levels,
        "gamma_levels": [g.tolist() for g in spec.gamma_levels]
        if spec.gamma_levels else None,
        "fit": cfg,
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_numbers(value, name: str) -> None:
    if not isinstance(value, list) or not all(_is_number(x) for x in value):
        raise ValueError(f"field {name!r} must be a list of numbers")


# the keys of a study spec; the last three are those the study sidecar adds,
# so that a sidecar reruns as a spec
_SPEC_KEYS = ("kind", "true_params", "n", "r", "base_seed", "algorithms",
              "delta_levels", "gamma_levels", "fit",
              "cell_wall_times", "cell_failure_reasons", "elapsed_seconds")
# each kind of study and the levels it sweeps
_KINDS = {"study": None, "delta_sweep": "delta_levels", "skew_sweep": "gamma_levels"}


def _reject_unknown(blob: dict, known, prefix: str = "") -> None:
    for key in blob:
        if key not in known:
            raise ValueError(f"unknown field {prefix + key!r}")


def parse_study_spec(blob: dict) -> tuple[str, StudySpec]:
    """Build a study spec and its kind from the JSON form.

    The inverse of the spec part of the sidecar, which therefore reruns as a
    spec.  This reader checks the JSON shape only (known keys, required
    keys, value types, the levels a ``kind`` sweeps); :class:`StudySpec`
    checks the values.  Every kind runs through :func:`run_study`; a
    ``delta_sweep`` whose true nu exceeds d/2 warns, since its density is
    bounded and the threshold then hardly matters.
    """
    if not isinstance(blob, dict):
        raise ValueError("study spec must be a JSON object")
    _reject_unknown(blob, _SPEC_KEYS)
    kind = blob.get("kind", "study")
    if kind not in _KINDS:
        raise ValueError(f"field 'kind' must be study|delta_sweep|skew_sweep, got {kind!r}")
    for name in ("true_params", "n", "r"):
        if name not in blob:
            raise ValueError(f"field {name!r} is required")
    if _KINDS[kind] and not blob.get(_KINDS[kind]):
        raise ValueError(f"field {_KINDS[kind]!r} is required for a {kind}")
    if blob.get("delta_levels") is not None:
        _check_numbers(blob["delta_levels"], "delta_levels")
    gamma_levels = blob.get("gamma_levels")
    if gamma_levels is not None:
        if not isinstance(gamma_levels, list):
            raise ValueError("field 'gamma_levels' must be a list of skew vectors")
        for i, g in enumerate(gamma_levels):
            _check_numbers(g, f"gamma_levels[{i}]")
    # the fit block's keys are FitConfig's; those it leaves out take its defaults
    fit_blob = blob.get("fit", {})
    if not isinstance(fit_blob, dict):
        raise ValueError("field 'fit' must be an object")
    _reject_unknown(fit_blob, [f.name for f in fields(FitConfig) if f.name != "init"], "fit.")
    for key in ("tol", "scale_c", "delta_cap"):
        if key in fit_blob and not (_is_number(fit_blob[key])
                                    or key == "delta_cap" and fit_blob[key] is None):
            raise ValueError(f"field 'fit.{key}' must be a number")
    config = FitConfig(**fit_blob)
    spec = StudySpec(
        true_params=MsvgParams.from_json(blob["true_params"]), fit_config=config,
        **{key: blob[key] for key in ("n", "r", "base_seed", "algorithms",
                                      "delta_levels", "gamma_levels") if key in blob})
    if "algorithm" not in fit_blob:
        # run_study sets each cell's algorithm; the config records the first
        config.algorithm = spec.algorithms[0]
    params = spec.true_params
    if kind == "delta_sweep" and params.nu > params.d / 2:
        warnings.warn(
            "delta sweep is aimed at the unbounded-density regime "
            "(true nu <= d/2); results will be insensitive to the threshold",
            RuntimeWarning)
    return kind, spec


def _aggregate_cell(results, labels) -> dict[str, float]:
    """Fold one cell's replicate results into named statistics.

    ``r``, ``n_failed`` and ``flagged`` are always present.  A ``mean.*`` or
    ``sd.*`` statistic appears only when at least one replicate contributes
    to it, so no statistic is a mean over an empty set (and none is NaN).
    ``n_switched`` is present whenever a replicate converged; MCECM and ECME
    cells therefore carry ``n_switched = 0`` and no ``mean.switch_iter``.
    """
    ok = [r for r in results if r["converged"]]
    n_failed = len(results) - len(ok)
    stats: dict[str, float] = {
        "r": float(len(results)),
        "n_failed": float(n_failed),
        "flagged": float(n_failed > 0.2 * len(results)),
    }
    if ok:
        est = np.vstack([r["estimates"] for r in ok])
        for j, lab in enumerate(labels):
            stats[f"mean.{lab}"] = float(est[:, j].mean())
            stats[f"sd.{lab}"] = float(est[:, j].std(ddof=1)) if len(ok) > 1 else 0.0
        stats["mean.final_loglik"] = float(np.mean([r["final_loglik"] for r in ok]))
        stats["mean.conv_iter"] = float(np.mean([r["conv_iter"] for r in ok]))
        switches = [r["switch_iter"] for r in ok if r["switch_iter"] is not None]
        if switches:
            stats["mean.switch_iter"] = float(np.mean(switches))
        stats["n_switched"] = float(len(switches))
    return stats


def _mcecm_from_stages(hecm_results, tasks):
    """MCECM replicate results read from the HECM results of the same
    replicates; a replicate without a stage is fitted by its own task."""
    results = [r.get("mcecm_stage") for r in hecm_results]
    missing = [i for i, r in enumerate(results) if r is None]
    for i, result in zip(missing, _map_tasks([tasks[i] for i in missing])):
        results[i] = result
    return results


def _failure_reasons(results) -> dict[str, int]:
    reasons = Counter(r.get("error", "not converged") for r in results if not r["converged"])
    return dict(sorted(reasons.items()))


def run_study(spec: StudySpec) -> StudyTable:
    """Fit every (algorithm, delta, gamma) cell over shared replicate datasets.

    Rows come in spec order; an MCECM cell is read from the HECM fits of its
    block when the spec lists both.
    """
    t0 = time.perf_counter()
    deltas = spec.delta_levels if spec.delta_levels else [spec.fit_config.delta_cap]
    gammas = spec.gamma_levels if spec.gamma_levels else [spec.true_params.gamma]
    labels = param_labels(spec.true_params)

    rows: list[dict] = []
    wall_times: dict[str, float] = {}
    failures: dict[str, dict[str, int]] = {}
    for gamma in gammas:
        cell_true = replace(spec.true_params, gamma=np.asarray(gamma, dtype=float))
        seeds = [replicate_seed(spec.base_seed, i) for i in range(spec.r)]
        gamma_key = "|".join(repr(float(g)) for g in np.asarray(gamma))
        for delta in deltas:
            delta_key = repr(float(delta)) if delta is not None else "default"
            cells = {}
            # HECM first: its fits carry the MCECM cell's
            for algorithm in sorted(spec.algorithms, key=lambda a: a != "hecm"):
                config = replace(spec.fit_config, algorithm=algorithm,
                                 delta_cap=delta)
                tasks = [(cell_true, spec.n, s, config) for s in seeds]
                if algorithm == "mcecm" and "hecm" in cells:
                    cells[algorithm] = _mcecm_from_stages(cells["hecm"], tasks)
                else:
                    cells[algorithm] = _map_tasks(tasks)
            for algorithm in spec.algorithms:
                results = cells[algorithm]
                stats = _aggregate_cell(results, labels)
                # timing lives in the sidecar: the CSV stays byte-stable
                cell_key = f"{algorithm},{delta_key},{gamma_key}"
                wall_times[cell_key] = round(
                    sum(r.get("wall_time", 0.0) for r in results), 3)
                failures[cell_key] = _failure_reasons(results)
                for name, value in stats.items():
                    rows.append({"algorithm": algorithm, "delta": delta_key,
                                 "gamma": gamma_key, "statistic": name,
                                 "value": value})
    table = StudyTable(rows=rows, spec_json=_spec_to_json(spec))
    table.spec_json["cell_wall_times"] = wall_times
    table.spec_json["cell_failure_reasons"] = failures
    table.spec_json["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    return table
