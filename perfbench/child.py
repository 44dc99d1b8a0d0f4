"""One benchmark pass in a fresh interpreter; started by run.py.

Usage: python3 child.py WORKLOAD SEED TRACED SPAWN_TIME
       python3 child.py setup SPAWN_TIME

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC on Linux, shared by all processes), so
``setup_s`` covers interpreter start-up and ``import rabi_spectra``.

With ``setup`` the process only reports ``setup_s`` and exits.  Otherwise
the pass makes every call of the workload's plan once, in order, timing each
call; then, outside the timed region, it checks each output.  The last line
of stdout is one JSON object describing the pass.

Both times are reported as measured (``raw_setup_s``, ``raw_wall_s``) and
rescaled to the reference host speed of ``hostspeed.py`` (``setup_s``,
``wall_s``), from reference loops sampled while the import and the timed
calls run.  The host speed sampled during the import also stands for the
interpreter start-up before it, which runs none of this file's code.
"""

import sys

from hostspeed import INTERPRETER_REF_S, PACKAGE_REF_S, SpeedSampler, interpreter_loop, package_loop

SETUP_SAMPLER = SpeedSampler(interpreter_loop, INTERPRETER_REF_S, 0.01)
SETUP_SAMPLER.start()
import rabi_spectra  # noqa: E402,F401  (set-up ends when this import returns)

SETUP_END = SETUP_SAMPLER.clock()
SETUP_SAMPLER.stop()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def setup_times(spawn: float) -> dict:
    raw = SETUP_END - spawn
    return {"setup_s": raw * SETUP_SAMPLER.speed(), "raw_setup_s": raw}


def main(workload: str, seed: int, traced: bool, spawn: float) -> dict:
    ops = WORKLOADS[workload](seed)
    sampler = SpeedSampler(package_loop, PACKAGE_REF_S, 0.1)
    tracer = Tracer(sampler.clock) if traced else None
    outputs = []
    wall_s = 0.0
    if tracer:
        tracer.install()
    sampler.start()
    try:
        for op in ops:
            start = sampler.clock()
            try:
                out = op.call()
            except Exception:
                out = traceback.format_exc(limit=3)
                outputs.append((False, out))
            else:
                outputs.append((True, out))
            wall_s += sampler.clock() - start
    finally:
        sampler.stop()
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    max_error: dict[str, list[float]] = {}
    for op, (ok, out) in zip(ops, outputs):
        if not ok:
            failures.append(f"{op.label}: raised\n{out}")
            continue
        try:
            checks = op.check(out)
        except Exception:
            failures.append(f"{op.label}: check raised\n{traceback.format_exc(limit=3)}")
            continue
        bad = [f"{name}={err:.3e} (tol {tol:.1e})" for name, err, tol in checks if not err < tol]
        if bad:
            failures.append(f"{op.label}: " + ", ".join(bad))
        for name, err, tol in checks:
            worst = max_error.setdefault(name, [0.0, tol])
            worst[0] = max(worst[0], err)

    result = {
        **setup_times(spawn),
        "wall_s": wall_s * sampler.speed(),
        "raw_wall_s": wall_s,
        "host_speed": sampler.speed(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "max_error": max_error,
    }
    if tracer:
        spans = sum(tracer.self_s.values())
        # Self times partition the top-level spans, which lie inside the timed calls.
        if not (math.isclose(spans, tracer.top_s, rel_tol=1e-9, abs_tol=1e-9)
                and tracer.top_s <= wall_s):
            failures.append(f"trace: self times {spans:.6f} s, top-level spans "
                            f"{tracer.top_s:.6f} s, timed calls {wall_s:.6f} s")
        result["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counts": tracer.counts,
            "top_s": tracer.top_s,
        }
    return result


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup_times(float(sys.argv[2]))))
    else:
        name, seed_arg, traced_arg, spawn_arg = sys.argv[1:5]
        print(json.dumps(main(name, int(seed_arg), traced_arg == "1", float(spawn_arg))))
