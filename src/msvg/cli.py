"""Command-line front end: fit, grid, simulate, summary.

All numeric output is written with repr / ``%.17g`` formatting and no file
records a run time, so repeated runs with identical inputs produce
byte-identical files; ``fit`` reports its wall time only in the printed
``wrote ...`` line.  Parameter blocks are read and written by
:meth:`MsvgParams.from_json` / :meth:`MsvgParams.to_json`: ``mu`` for the
plain model, ``beta0`` and ``beta1`` for AR(1); study specs by
:func:`msvg.study.parse_study_spec`.  Exit codes: 0 success, 1 numerical
failure, 2 usage or schema error (any ``ValueError``) or a file that
cannot be read or written (any ``OSError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .distribution import CenterGuard, MsvgParams, density_grid, moments
from .ecm import ALGORITHMS, FitConfig, fit
from .inference import (
    aicc,
    flatten_params,
    n_free_params,
    observed_info,
    param_labels,
    standard_errors,
)
from .returns import ReturnsPanel, load_returns, load_values, summary_statistics
from .study import parse_study_spec, run_study


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_panel(args) -> ReturnsPanel:
    columns = args.columns.split(",") if args.columns else None
    if args.values:
        return load_values(args.data, date_column=args.date_column,
                           value_columns=columns)
    return load_returns(args.data, date_column=args.date_column,
                        price_columns=columns)


def _corr_from_cov(cov: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)


def _matrix_lines(name: str, mat: np.ndarray) -> list[str]:
    lines = [name]
    for row in np.atleast_2d(mat):
        lines.append("  " + " ".join(_fmt(v) for v in row))
    return lines


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def information_summary(info) -> dict | None:
    """Extreme eigenvalues of the observed information, for the fit report.

    ``None`` when the information could not be formed.  A condition number
    that overflows is reported as ``None``, and so is the condition number
    of a matrix that is not positive definite.
    """
    if info is None:
        return None
    lo, hi = float(info.eigenvalues[0]), float(info.eigenvalues[-1])
    pd = lo > 0.0
    return {
        "min_eigenvalue": _finite_or_none(lo),
        "max_eigenvalue": _finite_or_none(hi),
        "condition_number": _finite_or_none(hi / lo) if pd else None,
        "positive_definite": pd,
    }


def _information_line(summary: dict | None) -> str:
    if summary is None:
        return "information: unavailable"
    def num(key):
        return "n/a" if summary[key] is None else _fmt(summary[key])

    return (f"information: min eigenvalue {num('min_eigenvalue')}  "
            f"max eigenvalue {num('max_eigenvalue')}  "
            f"condition number {num('condition_number')}  "
            f"positive definite: {summary['positive_definite']}")


def cmd_fit(args) -> int:
    panel = _load_panel(args)
    config = FitConfig(algorithm=args.algorithm, tol=args.tol,
                       delta_cap=args.delta, scale_c=args.scale,
                       ar_order=args.ar)
    report = fit(panel.values, config)
    params = report.params
    guard = CenterGuard(args.delta) if args.delta is not None else None

    ses: dict[str, float] = {}
    se_error = None
    info = None
    try:
        info = observed_info(params, panel.values, guard=guard)
        ses = standard_errors(info)
    except Exception as exc:  # noqa: BLE001 - SEs are best-effort in the report
        se_error = f"{type(exc).__name__}: {exc}"
    information = information_summary(info)

    k = n_free_params(params)
    try:
        ic = aicc(report.final_loglik, k, report.n_obs)
    except ValueError:  # n <= k + 1: the fit stands, its AICc is undefined
        ic = None
    corr_sigma = _corr_from_cov(params.sigma)
    corr_total = _corr_from_cov(moments(params)[1])

    labels = param_labels(params)
    est = flatten_params(params)
    blob = {
        "series": panel.series_names,
        "n": panel.n,
        "n_modelled": report.n_obs,
        "dropped_rows": panel.dropped_rows,
        "algorithm": report.algorithm,
        "ar_order": args.ar,
        "tol": args.tol,
        "delta_cap": args.delta,
        "scale_c": args.scale,
        "converged": report.converged,
        "conv_iter": report.conv_iter,
        "switch_iter": report.switch_iter,
        "final_loglik": report.final_loglik,
        "aicc": ic,
        "k": k,
        "params": params.to_json(),
        "estimates": {lab: float(v) for lab, v in zip(labels, est)},
        "standard_errors": {lab: float(v) for lab, v in ses.items()},
        "se_error": se_error,
        "corr_sigma": corr_sigma.tolist(),
        "corr_total": corr_total.tolist(),
        "guarded_count_final": report.guarded_count_final,
        "information": information,
    }

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out}.json", "w") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = [
        f"model: MSVG{' AR(1)' if args.ar == 1 else ''} "
        f"({', '.join(panel.series_names)})",
        f"n: {panel.n}  modelled: {report.n_obs}  dropped_rows: {panel.dropped_rows}",
        f"algorithm: {report.algorithm}  converged: {report.converged}  "
        f"iterations: {report.conv_iter}"
        + (f"  switch_iter: {report.switch_iter}" if report.switch_iter else ""),
        f"loglik: {_fmt(report.final_loglik)}  "
        f"AICc: {'n/a' if ic is None else _fmt(ic)}  k: {k}",
        _information_line(information),
        "",
        "estimate (standard error)",
    ]
    for lab, v in zip(labels, est):
        se_txt = f" ({_fmt(ses[lab])})" if lab in ses else ""
        lines.append(f"  {lab}: {_fmt(v)}{se_txt}")
    lines.append("")
    lines += _matrix_lines("correlation (from the scale matrix):", corr_sigma)
    lines += _matrix_lines("correlation (from the model covariance):", corr_total)
    if se_error:
        lines += ["", f"standard errors unavailable: {se_error}"]
    with open(f"{out}.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")

    if args.ar == 1:
        y, y_prev = params.modelled_rows(panel.values)
        resid = y - params.location(y_prev)
        with open(f"{out}_residuals.csv", "w", newline="") as fh:
            fh.write(",".join(panel.series_names) + "\n")
            for row in resid:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    print(f"wrote {out}.txt, {out}.json"
          + (f", {out}_residuals.csv" if args.ar == 1 else "")
          + f" (fit wall time {report.wall_time:.3f} s)")
    return 0 if report.converged else 1


def cmd_grid(args) -> int:
    with open(args.params) as fh:
        blob = json.load(fh)
    if isinstance(blob, dict) and "params" in blob:
        blob = blob["params"]
    # an AR(1) block is gridded as its innovation plus the intercept
    params = replace(MsvgParams.from_json(blob), beta1=None)
    xlim = tuple(float(v) for v in args.xlim.split(","))
    ylim = tuple(float(v) for v in args.ylim.split(","))
    if len(xlim) != 2 or len(ylim) != 2:
        raise ValueError("xlim/ylim must be 'low,high'")
    guard = CenterGuard(args.delta) if args.delta is not None else None
    values = density_grid(params, xlim, ylim, args.res, guard=guard)
    dx = (xlim[1] - xlim[0]) / args.res
    dy = (ylim[1] - ylim[0]) / args.res
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write("x,y,density\n")
        for i in range(args.res):
            xc = xlim[0] + dx * (i + 0.5)
            for j in range(args.res):
                yc = ylim[0] + dy * (j + 0.5)
                fh.write(f"{_fmt(xc)},{_fmt(yc)},{_fmt(values[i, j])}\n")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args) -> int:
    with open(args.spec) as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.spec}: invalid JSON ({exc})") from None
    _, spec = parse_study_spec(blob)
    table = run_study(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / "study.csv")
    table.write_spec_sidecar(out / "study_spec.json")
    flagged = sum(1 for row in table.rows
                  if row["statistic"] == "flagged" and row["value"])
    print(f"wrote {out / 'study.csv'} ({flagged} flagged cell(s))")
    return 1 if flagged else 0


def cmd_summary(args) -> int:
    panel = _load_panel(args)
    stats = summary_statistics(panel)
    lines = ["series," + ",".join(panel.series_names)]
    for name in ("mean", "sd", "max", "min", "skewness", "kurtosis"):
        lines.append(name + "," + ",".join(_fmt(v) for v in stats[name]))
    lines.append(f"n,{panel.n}")
    lines.append(f"dropped_rows,{panel.dropped_rows}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_panel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV (header row required)")
    p.add_argument("--date-column", default=None)
    p.add_argument("--columns", default=None,
                   help="comma-separated price columns (default: all non-date)")
    p.add_argument("--values", action="store_true",
                   help="treat the CSV columns as the modelled values "
                        "themselves (skip return computation)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvg",
        description="Fit and explore the multivariate skewed variance gamma model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a return panel")
    _add_panel_args(p_fit)
    p_fit.add_argument("--ar", type=int, choices=(0, 1), default=0)
    p_fit.add_argument("--algorithm", choices=ALGORITHMS, default="hecm")
    p_fit.add_argument("--tol", type=float, default=1e-10)
    p_fit.add_argument("--delta", type=float, default=None,
                       help="delta-region threshold (default by dimension)")
    p_fit.add_argument("--scale", type=float, default=100.0)
    p_fit.add_argument("--out", required=True, help="output path prefix")
    p_fit.set_defaults(func=cmd_fit)

    p_grid = sub.add_parser("grid", help="write a bivariate density grid as CSV")
    p_grid.add_argument("--params", required=True,
                        help="fit report JSON or a bare parameter JSON")
    p_grid.add_argument("--xlim", required=True, help="'low,high'")
    p_grid.add_argument("--ylim", required=True, help="'low,high'")
    p_grid.add_argument("--res", type=int, default=100)
    p_grid.add_argument("--delta", type=float, default=None)
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(func=cmd_grid)

    p_sim = sub.add_parser("simulate", help="run a simulation study from a JSON spec")
    p_sim.add_argument("spec", help="study spec JSON path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_sum = sub.add_parser("summary", help="summary statistics of a return panel")
    _add_panel_args(p_sum)
    p_sum.add_argument("--out", default=None)
    p_sum.set_defaults(func=cmd_summary)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
