"""msvg benchmark: one workload, timed for a fixed run length, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk_n1e4 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps every layer (see ``probe.py``) and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, per-pass values, failed checks, warnings) goes to
``.perfbench/results/`` and a traced run's spans to ``.perfbench/spans/``.

msvg is imported from ``src/`` of the checkout and nowhere else; without
it, or without the price fixture under ``tests/data/``, the benchmark exits
with code 2 and prints no result.  The benchmark
never sets BLAS, OpenMP or ``MSVG_THREADS`` variables for its measured
passes; it records them.  Only a traced ``study_guarded`` run sets
``MSVG_THREADS=1``, for the serial half of its pool comparison.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench"
# per-layer metrics of the traced study_guarded run's pool comparison; the
# other workloads start no pool and report 0
STUDY_METRICS = ("study.workers", "study.replicate_fit_s", "study.speedup_vs_serial")
SETUP_RUNS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "MSVG_THREADS")

# a fresh interpreter: import msvg and fit a small sample (argv: src dir, seed)
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import msvg
p = msvg.MsvgParams(mu=[0.0, 0.0], sigma=[[1.0, 0.4], [0.4, 1.0]], gamma=[0.2, 0.3], nu=2.5)
sys.exit(0 if msvg.fit(msvg.sample(p, 200, seed=int(sys.argv[2]))).converged else 1)
"""


def import_msvg(root: Path):
    src = root / "src"
    if not (src / "msvg" / "__init__.py").is_file():
        raise workloads.Unavailable(f"no msvg package under {src}")
    sys.path.insert(0, str(src))
    msvg = importlib.import_module("msvg")
    importlib.import_module("msvg.cli")
    if Path(msvg.__file__).resolve().parent != (src / "msvg").resolve():
        raise workloads.Unavailable(f"msvg was imported from {msvg.__file__}, not from {src}")
    return msvg


def declared_metrics(root: Path) -> tuple[dict, int]:
    """Metric name -> unit for each kind, and the default run length."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return units, int(spec["run_seconds"])


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
    }


def warm_up(msvg) -> None:
    """Load scipy's lazy modules and fill caches before any timed pass."""
    data = msvg.sample(workloads.model_params(msvg, workloads.BULK_MODELS["d2"]), 200, seed=0)
    report = msvg.fit(data)
    msvg.standard_errors(msvg.observed_info(report.params, data))
    msvg.cli.build_parser()


def measure_setup(root: Path, gate: checks.Gate) -> list[float]:
    times = []
    for i in range(SETUP_RUNS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src"), str(i)],
                             cwd=root, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        gate.check(f"setup[{i}].exit_0", res.returncode == 0,
                   (res.stderr.strip().splitlines() or [f"exit {res.returncode}"])[-1])
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pool_comparison(msvg) -> dict[str, float]:
    """The study at r = STUDY_POOL_R, at the default worker count and at one."""
    spec = workloads.load_study_spec(msvg, r=workloads.STUDY_POOL_R)
    t0 = time.perf_counter()
    table = msvg.run_study(spec)
    parallel = time.perf_counter() - t0
    saved = os.environ.get("MSVG_THREADS")
    os.environ["MSVG_THREADS"] = "1"
    try:
        t0 = time.perf_counter()
        msvg.run_study(spec)
        serial = time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ["MSVG_THREADS"]
        else:
            os.environ["MSVG_THREADS"] = saved
    count = getattr(msvg.study, "_worker_count", None)
    return {
        "study.workers": float(count()) if count else 0.0,
        "study.replicate_fit_s": float(sum(table.spec_json["cell_wall_times"].values())),
        "study.speedup_vs_serial": serial / parallel,
        "pass_s_default_workers": parallel,
        "pass_s_one_worker": serial,
    }


@dataclass
class Pass:
    total_s: float
    spans: list
    outcome: dict
    warnings: list[str]


def run_passes(workload, msvg, inputs, ref, gate, sites, deadline, workdir, first=False):
    """Timed passes until ``deadline`` (at least one; exactly one if ``first``).

    No pass starts that would end more than half a pass past the deadline.
    """
    passes = []
    while not passes or (not first and time.perf_counter() + 0.5 * passes[-1].total_s
                         < deadline):
        pass_dir = workdir / f"pass{len(passes)}"
        pass_dir.mkdir(parents=True)
        with probe.Recorder(sites) as rec:
            t0 = time.perf_counter()
            outcome, warns = workloads.quiet_pass(workload, msvg, inputs, pass_dir)
            total = time.perf_counter() - t0
        checks.check_pass(gate, msvg, workload.name, outcome, ref, inputs)
        passes.append(Pass(total, rec.spans, outcome, warns))
    return passes


def _median(values):
    return float(statistics.median(values))


def run(args, root: Path) -> tuple[dict, list[str], dict]:
    """One workload run: the result line, the failed checks, the environment."""
    units, default_seconds = declared_metrics(root)
    seconds = args.seconds if args.seconds is not None else default_seconds
    msvg = import_msvg(root)
    workload = workloads.WORKLOADS[args.workload]
    env = environment(root, args.seed)
    ref = checks.reference_entry(checks.load_reference(), workload.name, args.seed)
    gate = checks.Gate()
    inputs = workload.make_inputs(msvg, root, args.seed)
    digest = workload.digest(inputs)
    if ref is not None:
        gate.check("inputs_vs_reference", digest == ref["inputs"], "input data differ")

    warm_up(msvg)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record: dict = {"workload": workload.name, "seconds": seconds, "trace": args.trace,
                    "environment": env, "inputs_sha256": digest}
    deadline = time.perf_counter() + seconds
    try:
        if args.trace == 0:
            passes = run_passes(workload, msvg, inputs, ref, gate, probe.TIMED,
                                deadline, workdir)
            rss = peak_rss_mb()
            setup = measure_setup(root, gate)
            totals = [probe.timed_totals(p.spans) for p in passes]
            metrics = {
                "total_s": _median([p.total_s for p in passes]),
                "fit_s": _median([t["fit_s"] for t in totals]),
                "info_s": _median([t["info_s"] for t in totals]),
                "ecm_iters": _median([t["ecm_iters"] for t in totals]),
                "pass_frac": (gate.attempted - gate.failed) / gate.attempted,
                "peak_rss_mb": rss,
                "setup_s": _median(setup),
            }
            record["setup_s"] = setup
            kind = "end_to_end"
        else:
            plain = run_passes(workload, msvg, inputs, ref, gate, probe.TIMED,
                               deadline, workdir / "plain", first=True)
            passes = run_passes(workload, msvg, inputs, ref, gate, probe.TRACED,
                                deadline, workdir / "traced")
            layers = [probe.layer_metrics(p.spans) for p in passes]
            metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
            metrics.update(dict.fromkeys(STUDY_METRICS, 0.0))
            if workload is workloads.StudyGuarded:
                record["pool_comparison"] = pool_comparison(msvg)
                metrics.update({k: record["pool_comparison"][k] for k in STUDY_METRICS})
            untraced_fit = probe.timed_totals(plain[0].spans)["fit_s"]
            metrics["trace.fit_overhead_s"] = _median(
                [probe.timed_totals(p.spans)["fit_s"] for p in passes]) - untraced_fit
            record["untraced_pass"] = {"total_s": plain[0].total_s, "fit_s": untraced_fit}
            write_spans(workload.name, args.seed, passes[0].spans)
            kind = "per_layer"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units[kind]):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units[kind]))} "
                           f"disagree with BENCHMARK.json")
    record.update({
        "passes": [{"total_s": p.total_s, **probe.timed_totals(p.spans)} for p in passes],
        "outcome": passes[0].outcome,
        "warnings": sorted({w for p in passes for w in p.warnings}),
        "failed_checks": gate.failures(),
    })
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[kind][name]}
                    for name in units[kind]},
    }
    record["result"] = result
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return result, gate.failures(), env


def write_spans(workload: str, seed: int, spans) -> None:
    labels = sorted({s[0] for s in spans})
    index = {lab: i for i, lab in enumerate(labels)}
    t0 = spans[0][2] if spans else 0.0
    blob = {"fields": ["label", "parent", "start_s", "end_s", "note"], "labels": labels,
            "spans": [[index[s[0]], s[1], s[2] - t0, s[3] - t0, s[4]] for s in spans]}
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    with gzip.open(OUT / "spans" / f"{workload}-seed{seed}.json.gz", "wt") as fh:
        json.dump(blob, fh)


def run_all(args) -> dict:
    """Every workload in its own interpreter, as a single-workload run would."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed (exit {res.returncode}): {res.stderr.strip()}")
        sub = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and sub["correct"]
        merged["attempted"] += sub["attempted"]
        merged["failed"] += sub["failed"]
        for metric, value in sub["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, failures, env = run(args, ROOT)
            print(f"# {args.workload} seed={args.seed} trace={args.trace}")
            print(f"# environment {json.dumps(env)}")
            for name, m in result["metrics"].items():
                print(f"{name:50s} {m['value']:.6g} {m['unit']}")
            for failure in failures:
                print(f"FAILED {failure}")
    except workloads.Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
