"""Spans around msvg's public functions, recorded from outside the package.

``from .x import f`` copies ``f`` into the importing module, so a layer is
wrapped where its consumers look it up (``msvg.ecm.log_density``,
``msvg.inference.log_bessel_k``, ...), not only where it is defined.
Nothing under ``src/`` is edited: the wrappers are installed on the
imported modules for the length of one pass and removed afterwards.

A span is ``[label, parent index, start, end, note]``.  Spans stay in
memory; the runner writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _note_fit(args, kwargs, report):
    return [report.algorithm, int(report.conv_iter)]


def _note_bessel(args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return int(np.size(z))


def _note_posterior(args, kwargs, mix):
    return [bool(kwargs.get("need_log", True)), int(mix.guarded.sum()),
            int(mix.guarded.size)]


_NOTES = {
    "ecm.fit": _note_fit,
    "specfun.log_bessel_k": _note_bessel,
    "distribution.posterior_lambda_moments": _note_posterior,
}

# (module, attribute, span label).  The end-to-end run wraps only the calls
# its metrics time; every binding of fit/observed_info/standard_errors that
# a workload reaches is listed.
TIMED = [
    ("msvg", "fit", "ecm.fit"),
    ("msvg.cli", "fit", "ecm.fit"),
    ("msvg.study", "fit", "ecm.fit"),
    ("msvg", "observed_info", "inference.observed_info"),
    ("msvg.cli", "observed_info", "inference.observed_info"),
    ("msvg", "standard_errors", "inference.standard_errors"),
    ("msvg.cli", "standard_errors", "inference.standard_errors"),
]

TRACED = TIMED + [
    ("msvg.specfun", "log_bessel_k", "specfun.log_bessel_k"),
    ("msvg.distribution", "log_bessel_k", "specfun.log_bessel_k"),
    ("msvg.inference", "log_bessel_k", "specfun.log_bessel_k"),
    ("msvg.inference", "bessel_k_order_derivative_over_k", "specfun.order_derivative"),
    ("msvg.ecm", "log_density", "distribution.log_density"),
    ("msvg.ecm", "posterior_lambda_moments", "distribution.posterior_lambda_moments"),
    ("msvg.ecm", "accumulate_suff_stats", "ecm.accumulate_suff_stats"),
    ("msvg.ecm", "cm_step_location_skew", "ecm.cm_step_location_skew"),
    ("msvg.ecm", "cm_step_ar", "ecm.cm_step_ar"),
    ("msvg.ecm", "cm_step_scale", "ecm.cm_step_scale"),
    ("msvg.ecm", "cm_step_shape_mcecm", "ecm.cm_step_shape_mcecm"),
    ("msvg.ecm", "cm_step_shape_ecme", "ecm.cm_step_shape_ecme"),
    ("msvg.ecm", "observed_loglik", "ecm.observed_loglik"),
    ("msvg.inference", "conditional_lambda_moment", "inference.conditional_lambda_moment"),
    ("msvg", "run_study", "study.run_study"),
    ("msvg.cli", "load_returns", "returns.load_returns"),
    ("msvg.cli", "summary_statistics", "returns.summary_statistics"),
    ("msvg.cli", "cmd_fit", "cli.cmd_fit"),
    ("msvg.cli", "cmd_summary", "cli.cmd_summary"),
    ("msvg.cli", "main", "cli.main"),
]


class Recorder:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self, sites):
        self.sites = sites
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Recorder":
        for modname, attr, label in self.sites:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, label):
        note = _NOTES.get(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return wrapper


def _durations(spans, label):
    return [s[3] - s[2] for s in spans if s[0] == label]


def timed_totals(spans) -> dict[str, float]:
    """The end-to-end quantities one pass's spans give: fit_s, info_s, ecm_iters."""
    fits = [s for s in spans if s[0] == "ecm.fit"]
    return {
        "fit_s": sum(s[3] - s[2] for s in fits),
        "info_s": sum(_durations(spans, "inference.observed_info"))
        + sum(_durations(spans, "inference.standard_errors")),
        "ecm_iters": float(sum(s[4][1] for s in fits)),
    }


def _ancestor_flags(spans, label):
    """inside[i] is True when span i has an ancestor (or is itself) ``label``."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = s[0] == label or (s[1] >= 0 and inside[s[1]])
    return inside


def _bessel_calls_per_mcecm_cycle(spans) -> float:
    """Mean ``log_bessel_k`` calls over the ECM cycles with an MCECM shape step.

    A fit's direct children are its starting log-likelihood followed by
    cycles, each closed by the cycle's own ``observed_loglik``.
    """
    cycle_of: list[tuple | None] = [None] * len(spans)
    state: dict[int, list] = {}   # fit index -> [cycle number, start seen]
    mcecm: set[tuple] = set()
    counts: dict[tuple, int] = {}
    for i, (label, parent, _, _, _) in enumerate(spans):
        if parent < 0:
            continue
        if spans[parent][0] == "ecm.fit":
            st = state.setdefault(parent, [0, False])
            if not st[1]:
                st[1] = label == "ecm.observed_loglik"
                continue
            cycle_of[i] = (parent, st[0])
            if label == "ecm.cm_step_shape_mcecm":
                mcecm.add(cycle_of[i])
            elif label == "ecm.observed_loglik":
                st[0] += 1
        else:
            cycle_of[i] = cycle_of[parent]
        if label == "specfun.log_bessel_k" and cycle_of[i] is not None:
            counts[cycle_of[i]] = counts.get(cycle_of[i], 0) + 1
    return sum(counts.get(k, 0) for k in mcecm) / len(mcecm) if mcecm else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced pass, named ``<module>.<function>.<stat>``.

    A layer the workload never reaches reads 0.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + (s[3] - s[2]) - child_time[i]

    def n(label):
        return float(calls.get(label, 0))

    def t(label):
        return self_s.get(label, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    bessel = "specfun.log_bessel_k"
    elems = float(sum(s[4] for s in spans if s[0] == bessel))
    posterior = [s[4] for s in spans if s[0] == "distribution.posterior_lambda_moments"]
    fits = [s for s in spans if s[0] == "ecm.fit"]
    iters = float(sum(s[4][1] for s in fits))
    fit_wall = sum(s[3] - s[2] for s in fits)
    in_info = _ancestor_flags(spans, "inference.observed_info")
    shape_ecme = "ecm.cm_step_shape_ecme"
    ecme_density = sum(1 for s in spans if s[0] == "distribution.log_density"
                       and s[1] >= 0 and spans[s[1]][0] == shape_ecme)

    out = {
        "specfun.log_bessel_k.calls": n(bessel),
        "specfun.log_bessel_k.elems": elems,
        "specfun.log_bessel_k.self_s": t(bessel),
        "specfun.log_bessel_k.ns_per_elem": ratio(t(bessel) * 1e9, elems),
        "specfun.log_bessel_k.us_per_call": ratio(t(bessel) * 1e6, n(bessel)),
        "specfun.order_derivative.calls": n("specfun.order_derivative"),
        "specfun.order_derivative.self_s": t("specfun.order_derivative"),
        "distribution.log_density.calls": n("distribution.log_density"),
        "distribution.log_density.self_s": t("distribution.log_density"),
        "distribution.posterior_lambda_moments.calls": float(len(posterior)),
        "distribution.posterior_lambda_moments.self_s":
            t("distribution.posterior_lambda_moments"),
        "distribution.posterior_lambda_moments.log_calls":
            float(sum(1 for p in posterior if p[0])),
        "distribution.guarded_frac": ratio(float(sum(p[1] for p in posterior)),
                                           float(sum(p[2] for p in posterior))),
        "ecm.bessel_calls_per_iter": _bessel_calls_per_mcecm_cycle(spans),
        "ecm.cm_step_shape_ecme.self_s": t(shape_ecme),
        "ecm.cm_step_shape_ecme.density_calls_per_step":
            ratio(float(ecme_density), n(shape_ecme)),
        "ecm.ms_per_iter": ratio(fit_wall * 1e3, iters),
        "ecm.iters_per_fit": ratio(iters, float(len(fits))),
    }
    for step in ("cm_step_location_skew", "cm_step_ar", "cm_step_scale",
                 "cm_step_shape_mcecm", "accumulate_suff_stats", "observed_loglik"):
        out[f"ecm.{step}.self_s"] = t(f"ecm.{step}")
    out.update({
        "inference.observed_info.self_s": t("inference.observed_info"),
        "inference.conditional_lambda_moment.calls":
            n("inference.conditional_lambda_moment"),
        "inference.conditional_lambda_moment.self_s":
            t("inference.conditional_lambda_moment"),
        "inference.bessel_calls_per_info": ratio(
            float(sum(1 for i, s in enumerate(spans) if s[0] == bessel and in_info[i])),
            n("inference.observed_info")),
        "returns.load_returns.self_s": t("returns.load_returns"),
        "cli.cmd_fit.self_s": t("cli.cmd_fit"),
    })
    return out
