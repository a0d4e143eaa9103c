#!/usr/bin/env python3
"""Run the perfbench workloads and record the results as a BENCH_*.json entry.

    python3 scripts/bench.py --workloads sweep-rand5,dispatch-grid --seeds 1,2,3 \\
        --seconds 40 --label lean-kernel [--against OTHER_CHECKOUT]

Each (workload, seed) runs ``perfbench/run.py`` in a fresh process from
this checkout.  With ``--against``, the same run is made in the other
checkout too, in alternating order (this tree first on even pairs), so
that drifts in machine speed fall on both sides alike.  The entry
``BENCH_<date>_<label>.json`` keeps, per run, the env line, the metric
lines as printed, the result JSON, ``rounds`` and (untraced runs only)
``pass_times``, each solve pass's seconds; per workload it summarises
each metric (end-to-end, or per-layer with ``--trace 1``) by the median
over seeds and, for pairs, how often this tree did better, and per tree
``pass_iqr_frac``, the median over runs of each run's interquartile
range of pass times over their median.
Paired end-to-end metrics also get a verdict against the other checkout,
printed one line per workload: ``worse`` (the median is worse by more
than the metric's bound in BENCHMARK.json), ``unresolved`` (the other
side's interquartile range is wider than that bound, or there are fewer
than two pairs, and not every run here beats every run there), ``gain``
(at least 9 of 10 pairs won, ties counting for neither side, and the
medians apart by more than the other side's interquartile range) or
``inside``; the first that applies.
"""

import argparse
import datetime
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASS_TIMES = "pass times s:"


def _git(tree: Path, *args) -> str:
    out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return out.stdout.rstrip() if out.returncode == 0 else ""


def describe(tree: Path) -> dict:
    """The commit a checkout is at, whether it has uncommitted changes to
    tracked files, the paths of those files (so a record made while only
    docs were edited says so), and the line count of ``src/dualdec/*.py``
    (None for a tree without it)."""
    status = _git(tree, "status", "--porcelain", "--untracked-files=no").splitlines()
    changed = [ln[3:] for ln in status]  # each line is "XY path"
    src = list((tree / "src" / "dualdec").glob("*.py"))
    return {"commit": _git(tree, "rev-parse", "HEAD") or None, "dirty": bool(changed),
            "changed": changed,
            "src_lines": sum(p.read_bytes().count(b"\n") for p in src) if src else None}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; returns its env, metric lines and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    metric_lines = [ln.strip() for ln in lines[:-1]
                    if " median " in ln or " passes failed " in ln or "  (computed)" in ln]
    rounds = result["metrics"].get("rounds", {}).get("value")
    # each solve pass's seconds, printed by untraced runs only
    pass_times = next(([float(t) for t in ln[len(PASS_TIMES):].split()]
                       for ln in lines if ln.startswith(PASS_TIMES)), None)
    return {"workload": workload, "seed": seed, "env": env, "lines": metric_lines,
            "result": result, "rounds": rounds, "pass_times": pass_times}


def pass_spread(runs) -> float | None:
    """The median over runs of each run's interquartile range of pass
    times over their median: the share of a run's spread that lies within
    one process.  Runs of fewer than two passes have no spread."""
    spreads = []
    for r in runs:
        if len(r.get("pass_times") or ()) > 1:
            q1, med, q3 = statistics.quantiles(r["pass_times"], n=4, method="inclusive")
            spreads.append((q3 - q1) / med)
    return statistics.median(spreads) if spreads else None


def verdict(ours: list[float], theirs: list[float], *, wins: int, iqr: float, sign: int,
            bound: float) -> str:
    """One metric's verdict from paired runs (this tree's, the other's, in
    pair order), the pairs this tree won, and the other's interquartile
    range (inf for fewer than two runs); ``sign`` is 1 when lower is
    better, -1 when higher is."""
    mine, base = statistics.median(ours), statistics.median(theirs)
    if sign * (mine - base) > bound * abs(base):
        return "worse"
    every_run_better = max(sign * a for a in ours) < min(sign * b for b in theirs)
    if iqr > bound * abs(base) and not every_run_better:
        return "unresolved"
    if wins >= 0.9 * len(theirs) and sign * (base - mine) > iqr:
        return "gain"
    return "inside"


def summarise(runs: list[dict], metrics: list[dict], paired: bool) -> dict:
    """Per workload and metric: median per tree, and pair wins when paired,
    with a verdict for each metric that has a bound."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        mine = {r["seed"]: r for r in runs if r["workload"] == wl and r["tree"] == "this"}
        other = {r["seed"]: r for r in runs if r["workload"] == wl and r["tree"] == "against"}
        rows = {}
        for m in metrics:
            name = m["name"]
            vals = [r["result"]["metrics"][name]["value"] for r in mine.values()
                    if name in r["result"]["metrics"]]
            if not vals:
                continue
            row = {"this_median": statistics.median(vals)}
            if paired:
                seeds = sorted(set(mine) & set(other))
                theirs = [other[s]["result"]["metrics"][name]["value"] for s in seeds]
                ours = [mine[s]["result"]["metrics"][name]["value"] for s in seeds]
                row["against_median"] = statistics.median(theirs)
                iqr = math.inf
                if len(theirs) > 1:
                    q1, _, q3 = statistics.quantiles(theirs, n=4, method="inclusive")
                    row["against_q1_q3"] = [q1, q3]
                    iqr = q3 - q1
                sign = 1 if m["better"] == "lower" else -1
                row["this_better"] = sum(sign * (b - a) > 0 for a, b in zip(ours, theirs))
                row["ties"] = sum(a == b for a, b in zip(ours, theirs))
                row["pairs"] = len(seeds)
                if "bound" in m:
                    row["verdict"] = verdict(ours, theirs, wins=row["this_better"], iqr=iqr,
                                             sign=sign, bound=m["bound"])
            rows[name] = row
        if any(r.get("pass_times") is not None for r in [*mine.values(), *other.values()]):
            rows["pass_iqr_frac"] = {"this_median": pass_spread(mine.values())}
            if paired:
                rows["pass_iqr_frac"]["against_median"] = pass_spread(other.values())
        out[wl] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", required=True, help="name part of the output file")
    ap.add_argument("--against", type=Path, help="another checkout to run in alternation")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not workloads or not seeds or args.seconds <= 0:
        ap.error("need at least one workload, one seed and --seconds > 0")
    trees = {"this": ROOT}
    if args.against is not None:
        if not (args.against / "perfbench" / "run.py").is_file():
            ap.error(f"--against {args.against} has no perfbench/run.py")
        trees["against"] = args.against.resolve()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, pair = [], 0
    for wl in workloads:
        for seed in seeds:
            order = list(trees) if pair % 2 == 0 else list(reversed(trees))
            for position, name in enumerate(order):
                rec = run_once(trees[name], wl, seed, args.seconds, args.trace)
                rec.update(tree=name, position=position, pair=pair)
                runs.append(rec)
                vals = rec["result"]["metrics"]
                shown = {k: round(v["value"], 6) for k, v in vals.items()
                         if k in ("solve_s", "us_per_iter", "rounds", "engine.run_s",
                                  "engine.log_calls")}
                print(f"{wl} seed {seed} {name}: {json.dumps(shown)}", flush=True)
            pair += 1

    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    entry = {
        "label": args.label,
        "date": date,
        "command": {"seconds": args.seconds, "trace": args.trace, "workloads": workloads,
                    "seeds": seeds},
        "trees": {name: describe(path) for name, path in trees.items()},
        "summary": summarise(runs, spec["per_layer" if args.trace else "end_to_end"],
                             "against" in trees),
        "runs": runs,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / f"BENCH_{date}_{args.label}.json"
    out.write_text(json.dumps(entry, indent=1) + "\n")
    for wl, rows in entry["summary"].items():
        got = [f"{name} {row['verdict']}" for name, row in rows.items() if "verdict" in row]
        if got:
            print(f"{wl}: " + ", ".join(got))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
