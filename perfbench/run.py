"""Benchmark of rabi_spectra: cold-process, closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {residuals,sweep,rows,oracles,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (``child.py``), which
imports ``rabi_spectra`` from ``src/``, makes every call of the workload's
plan once, then checks every output against an independent route outside
the timed region.  Passes run one after another, each started when the
previous one has ended, until ``--seconds`` have elapsed and at least
``MIN_PASSES`` have run.  Every pass of a run uses the same inputs, drawn
from ``--seed``.

``--trace 0`` reports the end-to-end metrics, each the median over passes:

    wall_s       s   wall time of the pass's timed calls
    setup_s      s   process spawn until ``import rabi_spectra`` returns, also
                     sampled by ``SETUP_PROBES`` import-only processes per pass
    peak_rss_mb  MB  peak resident set of the pass's process

``wall_s`` and ``setup_s`` are rescaled to the reference host speed of
``hostspeed.py``, which each child samples while it imports the package and
while its calls run; the times as measured and the host's speed during the
calls are printed on the summary lines.

``--trace 1`` alternates untraced and traced passes (``tracing.py`` wraps
the package's public functions from outside) and reports the per-layer
metrics of ``LAYER_UNITS``, each the median over traced passes.

The failed-operation ratio ``failed_frac`` and the largest error of every
output check are printed on the summary lines.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where each
metric is ``{"value", "unit"}``.  Every child is started with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to ``BLAS_THREADS``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("residuals", "sweep", "rows", "oracles")
BLAS_THREADS = 1
MIN_PASSES = 3
SETUP_PROBES = 3  # set-up-only processes started before each pass
RUN_LIMIT_S = 170.0  # no pass may end later than this after the run started

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed on the summary lines only: the times as measured and the host speed.
RAW_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "host_speed": "ratio"}
CALLS = ("cli.main", "model.build_chain", "eigensolve.converged_levels", "perturb.v_tilde_row",
         "perturb.v_tilde", "polys.p_fast_parts", "squeeze.u_matrix_oracle", "squeeze.u_element")
SELF_TIMES = ("eigensolve.converged_levels", "perturb.v_tilde_row", "perturb.v_tilde",
              "perturb.residual_study", "polys.p_fast_parts", "polys.p_exact", "polys.p_asym_parts",
              "polys.phase_integral", "polys.hyper_f", "squeeze.u_matrix_oracle",
              "squeeze.factorization_residual", "squeeze.u_element",
              "squeeze.h0_transform_residual", "squeeze.uvu_residual")
LAYER_UNITS = {
    **{f"{span}.calls": "count" for span in CALLS},
    "cli.self_s": "s",
    **{f"{span}.self_s": "s" for span in SELF_TIMES},
    "model.build_chain.rows": "count",
    "eigensolve.solves_per_cert": "ratio",
    "eigensolve.truncation_dim.max": "count",
    "eigensolve.ns_per_row_level": "ns",
    "perturb.v_tilde_row.entries": "count",
    "perturb.v_tilde_row.us_per_entry": "us",
    "polys.p_fast_parts.escalated": "count",
    "polys.p_fast_parts.escalation_ratio": "ratio",
    "bench.trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, speed: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``bench.trace_overhead``).

    Self times are rescaled by the pass's host speed, as ``wall_s`` is.
    """
    calls, counts = (defaultdict(int, trace[key]) for key in ("calls", "counts"))
    self_s = defaultdict(float, {span: t * speed for span, t in trace["self_s"].items()})
    out = {f"{span}.calls": calls[span] for span in CALLS}
    out.update({f"{span}.self_s": self_s[span] for span in SELF_TIMES})
    out["cli.self_s"] = self_s["cli.main"]
    for key in ("model.build_chain.rows", "eigensolve.truncation_dim.max",
                "perturb.v_tilde_row.entries", "polys.p_fast_parts.escalated"):
        out[key] = counts[key]
    out["eigensolve.solves_per_cert"] = _ratio(
        counts["eigensolve.cert_solves"], calls["eigensolve.converged_levels"])
    out["eigensolve.ns_per_row_level"] = 1e9 * _ratio(
        self_s["eigensolve.converged_levels"], counts["eigensolve.row_levels"])
    out["perturb.v_tilde_row.us_per_entry"] = 1e6 * _ratio(
        self_s["perturb.v_tilde_row"], counts["perturb.v_tilde_row.entries"])
    out["polys.p_fast_parts.escalation_ratio"] = _ratio(
        counts["polys.p_fast_parts.escalated"], calls["polys.p_fast_parts"])
    return out


def module_shares(trace: dict, wall_s: float) -> dict[str, float]:
    """Self time of each module as a share of the pass's timed calls."""
    shares: dict[str, float] = {}
    for span, seconds in trace["self_s"].items():
        module = span.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + seconds / wall_s
    shares["(outside spans)"] = 1.0 - trace["top_s"] / wall_s
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import mpmath
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def run_child(args: list[str], timeout: float) -> dict:
    """One child process; a crash or a missing result comes back as a failure."""
    spawn = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), *args, repr(spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failures": [f"{args[0]} process timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip()[-2000:]
        return {"attempted": 1, "failures": [f"{args[0]} process exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """The closed loop: set-up probes and passes until the run's time is up."""
    passes: list[tuple[bool, dict]] = []
    setups: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe = run_child(["setup"], RUN_LIMIT_S - (began - start))
            setups.extend([probe] if "setup_s" in probe else [])
        args = [workload, str(seed), str(int(traced))]
        passes.append((traced, run_child(args, RUN_LIMIT_S - (time.perf_counter() - start))))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            return passes, setups
        if elapsed + longest > RUN_LIMIT_S:
            return passes, setups


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes, setups = run_passes(workload, seed, seconds, trace)
    good = [(traced, p) for traced, p in passes if "wall_s" in p]
    failures = [f for _, p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(min(len(p["failures"]), p["attempted"]) for _, p in passes)
    untraced = [p for traced, p in good if not traced]
    report = {"workload": workload, "passes": len(passes), "traced_passes": sum(t for t, _ in passes),
              "attempted": attempted, "failed": failed, "failures": failures, "metrics": {}}
    max_error: dict[str, list[float]] = {}
    for _, p in good:
        for name, (err, tol) in p["max_error"].items():
            worst = max_error.setdefault(name, [0.0, tol])
            worst[0] = max(worst[0], err)
    report["max_error"] = max_error
    if not untraced:
        return report
    samples = {key: [p[key] for p in untraced] for key in END_TO_END_UNITS}
    samples["setup_s"] += [probe["setup_s"] for probe in setups]
    report["samples"] = samples
    raw = {key: [p[key] for p in untraced] for key in RAW_UNITS}
    raw["raw_setup_s"] += [probe["raw_setup_s"] for probe in setups]
    report["raw"] = {key: statistics.median(vals) for key, vals in raw.items()}
    if not trace:
        report["metrics"] = {key: statistics.median(vals) for key, vals in samples.items()}
        return report
    traced_passes = [p for traced, p in good if traced]
    if not traced_passes:
        return report
    layers = [layer_metrics(p["trace"], p["host_speed"]) for p in traced_passes]
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    metrics["bench.trace_overhead"] = traced_wall / statistics.median(samples["wall_s"]) - 1.0
    report["metrics"] = metrics
    report["shares"] = module_shares(traced_passes[-1]["trace"], traced_passes[-1]["raw_wall_s"])
    return report


def print_summary(report: dict) -> None:
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    print(f"{report['workload']}: {report['passes']} passes ({report['traced_passes']} traced)")
    for key, value in report["metrics"].items():
        spread = ""
        if key in report.get("samples", {}):
            vals = report["samples"][key]
            spread = f"  (median of {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})"
        print(f"  {key:38s} {value:14.6g} {units[key]}{spread}")
    for key, value in report.get("raw", {}).items():
        print(f"  {key:38s} {value:14.6g} {RAW_UNITS[key]}  (median, as measured)")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'failed_frac':38s} {frac:14.6g} ratio  "
          f"({report['failed']} of {report['attempted']} operations)")
    for name, (err, tol) in sorted(report["max_error"].items()):
        print(f"  max error {name:28s} {err:14.3e} (tol {tol:.1e})")
    for module, share in report.get("shares", {}).items():
        print(f"  self-time share {module:22s} {100.0 * share:8.2f} %")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rabi_spectra" / "__init__.py").is_file():
        print(f"error: no rabi_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment()))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace))
        print_summary(report)
        if not report["metrics"]:
            print(f"error: workload {name} produced no measurement", file=sys.stderr)
            return 1
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": report["metrics"][key], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
