"""Simulation-study driver: replicate generation, algorithm races, and
threshold/skewness sweeps with aggregate tables.

Every cell of a study is a (algorithm, delta threshold, skew level) triple.
Replicate datasets depend only on the base seed, the replicate index and
the cell's true parameters, so the same datasets are refitted across
algorithms and across delta levels.  Replicates may run in parallel;
aggregation folds over the replicate index, so the output is identical
regardless of scheduling.  ``MSVG_THREADS`` (0 = auto, see
:func:`msvg.specfun.thread_count`) caps both the worker processes of a study
and the threads of the Bessel kernel; the workers already fill the cores, so
each runs its kernel on one thread.

The sidecar written next to the table records, per cell, the summed fit wall
time (``cell_wall_times``) and how often each reason ended a failed
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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .distribution import MsvgParams, sample
from .ecm import FitConfig, fit
from .inference import flatten_params, param_labels
from .specfun import thread_count as _worker_count


@dataclass
class StudySpec:
    """One simulation study: true model, sizes, seeds, and the cells to run."""

    true_params: MsvgParams
    n: int
    r: int
    base_seed: int = 0
    algorithms: tuple[str, ...] = ("hecm",)
    delta_levels: list[float] | None = None
    gamma_levels: list[np.ndarray] | None = None
    fit_config: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("replicate count r must be >= 1")
        if self.n < 10 * self.true_params.d:
            raise ValueError(f"sample size n must be >= 10 d = {10 * self.true_params.d}")
        if self.delta_levels is not None and any(x <= 0 for x in self.delta_levels):
            raise ValueError("delta levels must be positive")


def replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic per-replicate seed from a splittable counter scheme."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_replicate(task):
    true_params, n, seed, config = task
    data = sample(true_params, n, seed=seed)
    try:
        report = fit(data, config)
    except Exception as exc:  # noqa: BLE001 - a failed replicate must not kill the cell
        return {"converged": False, "error": f"{type(exc).__name__}: {exc}"}
    out = {
        "converged": bool(report.converged),
        "estimates": flatten_params(report.params),
        "final_loglik": report.final_loglik,
        "conv_iter": report.conv_iter,
        "switch_iter": report.switch_iter,
        "wall_time": report.wall_time,
    }
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
    cfg["nu_bounds"] = list(spec.fit_config.nu_bounds)
    return {
        "true_params": spec.true_params.to_json(),
        "n": spec.n,
        "r": spec.r,
        "base_seed": spec.base_seed,
        "algorithms": list(spec.algorithms),
        "delta_levels": spec.delta_levels,
        "gamma_levels": [np.asarray(g).tolist() for g in spec.gamma_levels]
        if spec.gamma_levels else None,
        "fit": cfg,
    }


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


def _failure_reasons(results) -> dict[str, int]:
    reasons = Counter(r.get("error", "not converged") for r in results if not r["converged"])
    return dict(sorted(reasons.items()))


def run_study(spec: StudySpec) -> StudyTable:
    """Fit every (algorithm, delta, gamma) cell over shared replicate datasets."""
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
        for delta in deltas:
            for algorithm in spec.algorithms:
                config = replace(spec.fit_config, algorithm=algorithm,
                                 delta_cap=delta)
                tasks = [(cell_true, spec.n, s, config) for s in seeds]
                results = _map_tasks(tasks)
                stats = _aggregate_cell(results, labels)
                gamma_key = "|".join(repr(float(g)) for g in np.asarray(gamma))
                delta_key = repr(float(delta)) if delta is not None else "default"
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


def delta_sweep(spec: StudySpec) -> StudyTable:
    """One cell per delta threshold, refitting the same datasets at each level."""
    if not spec.delta_levels:
        raise ValueError("delta_sweep needs delta_levels in the spec")
    if spec.true_params.nu > spec.true_params.d / 2:
        warnings.warn(
            "delta sweep is aimed at the unbounded-density regime "
            "(true nu <= d/2); results will be insensitive to the threshold",
            RuntimeWarning)
    return run_study(spec)


def skew_sweep(spec: StudySpec) -> StudyTable:
    """One cell per skewness level, reporting switch/convergence iterations."""
    if not spec.gamma_levels:
        raise ValueError("skew_sweep needs gamma_levels in the spec")
    for g in spec.gamma_levels:
        g = np.asarray(g, dtype=float)
        if g.shape != (spec.true_params.d,) or not np.all(np.isfinite(g)):
            raise ValueError(f"invalid skew level {g}")
    return run_study(spec)
