#!/usr/bin/env python3
"""dualdec benchmark: one workload, one seed, one closed loop in this process.

    python3 perfbench/run.py --workload sweep-rand5 --seed 0 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload is set up and solved over and over on
the same inputs until the next pass would overrun ``--seconds``; every
pass is checked.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics come from the traced ones (see
spans.py).  The last line of
standard output is the JSON result; the lines before it give the
environment and each metric's median, quartiles and sample count.
Spans and CSVs go to ``.bench_out/<workload>-seed<seed>/``.
"""

import os

# Pin BLAS to one thread before numpy loads.  The workloads are one
# closed loop; OpenBLAS would otherwise start a thread per core (up to
# its build's MAX_THREADS) to compete with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Before every pass the workload is set up again for at least SETUP_SLICE
# seconds (at least once); setup_s is the median of all these set-ups.
# Spreading them over the run, rather than timing them all at the start,
# keeps setup_s from depending on the machine's speed in one second.
SETUP_SLICE = 0.25


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "dualdec" / "__init__.py").is_file():
        _die(f"no dualdec sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import dualdec
    if Path(dualdec.__file__).resolve().parent != (src / "dualdec").resolve():
        _die(f"imported dualdec from {dualdec.__file__}, not from {src}")


def environment() -> dict:
    """Versions, core count and the BLAS thread setting in force."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": None,
    }
    # numpy's bundled OpenBLAS is already loaded; ask it how many threads it runs
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                      "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _pass(wl, state, errors_out):
    """One timed pass: solve, then check.  Returns (seconds, Outcome or None)."""
    t0 = time.perf_counter()
    try:
        result = wl.solve(state)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    out = wl.check(state, result)
    errors_out.extend(out.errors)
    return dt, out


def _fits(started, seconds, durations):
    return time.perf_counter() - started + max(durations) <= seconds


def _setups(wl, seed, workdir, times):
    """Set up for at least SETUP_SLICE seconds; returns the last state."""
    t_end = time.perf_counter() + SETUP_SLICE
    while True:
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= t_end:
            return state


def measure(wl, seed, seconds, workdir):
    """Untraced run: returns (end-to-end metric values, passes attempted, passes failed)."""
    setup_times, errors, times, outcomes, failed = [], [], [], [], 0
    started = time.perf_counter()
    while True:
        state = _setups(wl, seed, workdir, setup_times)
        dt, out = _pass(wl, state, errors)
        times.append(dt)
        if out is None or out.errors:
            failed += 1
        if out is not None:
            outcomes.append(out)
        if out is None or not _fits(started, seconds, [t + SETUP_SLICE for t in times]):
            break
    if not outcomes or outcomes[0].runs == 0:
        _die("no pass of the workload produced a solver run")
    if len({(o.rounds, o.runs, o.converged) for o in outcomes}) > 1:
        errors.append("passes over the same inputs disagree on rounds or convergence")
        failed += 1
    o = outcomes[0]
    solve = quartiles(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    stats = {  # name: ((q1, median, q3), samples)
        "setup_s": (quartiles(setup_times), len(setup_times)),
        "solve_s": (solve, len(times)),
        "us_per_iter": (tuple(t / o.rounds * 1e6 for t in solve), len(times)),
        "rounds": ((o.rounds,) * 3, 1),
        "converged_frac": ((o.converged / o.runs,) * 3, 1),
        "peak_rss_mb": ((rss_mb,) * 3, 1),
    }
    print("pass times s: " + " ".join(f"{t:.4f}" for t in times))
    for name, ((q1, med, q3), n) in stats.items():
        print(f"{name:>16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    print(f"{'fail_frac':>16} {failed}/{len(times)} passes failed a check or raised "
          f"({o.runs} runs, {o.converged} converged)")
    for e in errors:
        print(f"check failed: {e}")
    return {k: v[0][1] for k, v in stats.items()}, len(times), failed


def layer_metrics(tr, lo, hi):
    """Per-layer numbers from the spans lo..hi-1 of one traced segment."""
    t = tr.totals(lo, hi)

    def tot(name, field="total_s"):
        return t.get(name, {}).get(field, 0.0)

    counts = tr.run_counts_in(lo, hi)

    def csum(key):
        return sum(c[key] for c in counts)

    sub_calls = tot("subsolver.solve_local", "calls")
    sub_s = tot("subsolver.solve_local")
    agent_iters = csum("agent_iters")
    return {
        "engine.run_s": sum(tot(r) for r in spans.RUN_SPANS),
        "engine.self_s": sum(tot(r, "self_s") for r in spans.RUN_SPANS),
        "engine.log_calls": tot("engine.eval_dual", "calls"),
        "engine.log_s": tot("engine.eval_dual"),
        "engine.trace_mb": csum("trace_bytes") / 1e6,
        "engine.fire_frac": csum("fired") / agent_iters if agent_iters else 0.0,
        "subsolver.calls": sub_calls,
        "subsolver.solve_s": sub_s,
        "subsolver.us_per_call": sub_s / sub_calls * 1e6 if sub_calls else 0.0,
        "netsim.build_s": tot("netsim.build_network"),
        "netsim.link_draws": csum("link_draws"),
        "netsim.alpha_mean": csum("alpha_iters") / agent_iters if agent_iters else 0.0,
        "stepsize.build_s": tot("stepsize.build_stepsizes"),
        "oracle.solve_kkt_s": tot("oracle.solve_kkt"),
        "opf.build_s": tot("opf.build_opf_instance"),
        "synth.build_s": tot("synth.random_instance"),
        "model.coupling_mb": max((c["coupling_bytes"] for c in counts), default=0) / 1e6,
        "cli.montecarlo_s": tot("cli.main"),
        "cli.overhead_s": tot("cli.main", "self_s"),
    }


# counts worked out from array sizes and returned traces rather than timed
COMPUTED = ("engine.trace_mb", "engine.fire_frac", "netsim.link_draws",
            "netsim.alpha_mean", "model.coupling_mb")
# layers whose work happens in set-up; their traced set-up median is added
SETUP_LAYERS = ("netsim.build_s", "stepsize.build_s", "oracle.solve_kkt_s",
                "opf.build_s", "synth.build_s")


def measure_traced(wl, seed, seconds, workdir, env):
    """Traced run: returns (per-layer metric values, passes attempted, passes failed)."""
    tr = spans.Tracer()
    setup_segs, state = [], None
    tr.install()
    try:
        for _ in range(3):
            lo = len(tr)
            state = wl.setup(seed, workdir)
            setup_segs.append((lo, len(tr)))
    finally:
        tr.uninstall()

    errors, failed, attempted = [], 0, 0
    plain, traced, rep_segs = [], [], []
    started = time.perf_counter()
    while True:
        dt, out_plain = _pass(wl, state, errors)
        plain.append(dt)
        lo = len(tr)
        tr.install()
        try:
            dt, out_traced = _pass(wl, state, errors)
        finally:
            tr.uninstall()
        traced.append(dt)
        rep_segs.append((lo, len(tr)))
        attempted += 2
        failed += sum(o is None or bool(o.errors) for o in (out_plain, out_traced))
        if out_plain is None or out_traced is None:
            break
        if out_plain.rounds != out_traced.rounds:
            errors.append(f"traced rounds {out_traced.rounds} != untraced {out_plain.rounds}")
            failed += 1
        if not _fits(started, seconds, [p + t for p, t in zip(plain, traced)]):
            break

    setup_rows = [layer_metrics(tr, lo, hi) for lo, hi in setup_segs]
    rep_rows = [layer_metrics(tr, lo, hi) for lo, hi in rep_segs]
    values = {}
    for name in rep_rows[0]:
        values[name] = statistics.median(r[name] for r in rep_rows)
        if name in SETUP_LAYERS:
            values[name] += statistics.median(r[name] for r in setup_rows)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, value in values.items():
        print(f"{name:>22} {value:.6g}" + ("  (computed)" if name in COMPUTED else ""))
    print(f"{'traced passes':>22} {len(traced)} (untraced solve_s median "
          f"{statistics.median(plain):.4g} s, traced {statistics.median(traced):.4g} s)")
    print(f"{'span':<26}{'calls':>9}{'total_s':>12}{'self_s':>12}   (traced set-ups, passes)")
    for name, row in sorted(tr.totals().items()):
        print(f"{name:<26}{row['calls']:>9}{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
    for e in errors:
        print(f"check failed: {e}")
    tr.write(workdir / "spans.json", {"workload": wl.name, "seed": seed, "env": env,
                                      "setup_segments": setup_segs,
                                      "traced_segments": rep_segs})
    return values, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _die("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_out" / f"{wl.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env))
    if args.trace:
        values, attempted, failed = measure_traced(wl, args.seed, args.seconds, workdir, env)
    else:
        values, attempted, failed = measure(wl, args.seed, args.seconds, workdir)
    if set(values) != set(units):
        _die(f"measured metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
