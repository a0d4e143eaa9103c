"""Smoke runs of the experiment scripts as subprocesses."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CASES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rate_check_short_run(tmp_path):
    out = tmp_path / "rate.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rate_check.py"), "--runs", "2", "--iters", "100",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [ln.split()[0] for ln in proc.stdout.splitlines() if ln.startswith("k=")] == \
        ["k=50", "k=100"]
    lines = out.read_text().splitlines()
    assert len(lines) == 101
    assert lines[0] == "k,det_gap,det_bound,mean_gap@0.2,stoch_bound@0.2"


def test_rate_check_rejects_an_empty_budget(tmp_path):
    # --runs 0 used to exit 0 with nan in every mean-gap column
    for flags, msg in [(["--iters", "0"], "--iters must be >= 1"),
                       (["--runs", "0"], "--runs must be >= 1"),
                       (["--gammas", ""], "cannot parse --gammas"),
                       (["--gammas", "0.1,x"], "cannot parse --gammas"),
                       (["--gammas", "0.1,1e-1"], "distinct values in [0, 1)"),
                       (["--gammas", "1"], "distinct values in [0, 1)"),
                       (["--gammas", "-0.1"], "distinct values in [0, 1)")]:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "rate_check.py"), "--runs", "1", "--iters", "5",
             *flags, "--out", str(tmp_path / "rate.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and msg in proc.stderr, (flags, proc.stderr)
        assert "Traceback" not in proc.stderr and not (tmp_path / "rate.csv").exists()


def test_rate_check_rejects_no_agents(tmp_path):
    # --agents 0 and --instance-seed -1 used to end in random_instance's
    # ValueError traceback (exit 1)
    for flag, value, msg in (("--agents", "0", "--agents must be >= 1"),
                             ("--instance-seed", "-1", "--instance-seed must be >= 0")):
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "rate_check.py"), flag, value, "--runs", "1",
             "--iters", "5", "--out", str(tmp_path / "rate.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and msg in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr and not (tmp_path / "rate.csv").exists()


def test_rate_check_gammas_short_run(tmp_path):
    out = tmp_path / "rate.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "rate_check.py"), "--gammas", "0.5,0", "--runs", "2",
         "--iters", "50", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == ("k,det_gap,det_bound,mean_gap@0.0,stoch_bound@0.0,"
                        "mean_gap@0.5,stoch_bound@0.5") and len(lines) == 51


def test_make_ieee14_case_writes_the_bundled_case(tmp_path):
    # the script writes ../cases/ieee14.json next to itself, so run a copy
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(SCRIPTS / "make_ieee14_case.py", tmp_path / "scripts")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cases" / "ieee14.json").read_bytes() == \
        (CASES / "ieee14.json").read_bytes()


def test_run_opf_two_bus(tmp_path):
    trace = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_opf.py"), "--case", str(CASES / "opf_2bus.json"),
         "--max-iters", "5000", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    k = int(re.search(r"k=(\d+) converged=True", proc.stdout).group(1))
    lines = trace.read_text().splitlines()
    assert lines[0] == "k,q,residual,gap,V,updates" and len(lines) == 1 + k


def test_run_opf_empty_budget(tmp_path):
    trace = tmp_path / "trace.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_opf.py"), "--case", str(CASES / "opf_2bus.json"),
         "--max-iters", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "k=0 (empty run) stop=budget" in proc.stdout
    assert trace.read_text().splitlines() == ["k,q,residual,gap,V,updates"]


def test_run_opf_rejects_bad_flags(tmp_path):
    # each used to end in a ValidationError traceback after solve_kkt had run
    for flags, msg in [(["--gamma", "1"], "--gamma must lie in [0, 1)"),
                       (["--gamma", "-0.1"], "--gamma must lie in [0, 1)"),
                       (["--gamma", "nan"], "--gamma must lie in [0, 1)"),
                       (["--max-iters", "-1"], "--max-iters must be >= 0"),
                       (["--eps=-1e-6"], "--eps must be finite and >= 0"),
                       (["--eps", "inf"], "--eps must be finite and >= 0"),
                       (["--eps", "nan"], "--eps must be finite and >= 0")]:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_opf.py"), "--case", str(CASES / "opf_2bus.json"),
             *flags, "--trace", str(tmp_path / "trace.csv")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and msg in proc.stderr, (flags, proc.stderr)
        assert "Traceback" not in proc.stderr and proc.stdout == "", flags
        assert not (tmp_path / "trace.csv").exists()


def test_oracle_ladder_smallest_grid():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_ladder.py"), "--sizes", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, row = proc.stdout.splitlines()
    assert head.split() == ["grid", "n", "m", "route", "seconds", "kkt_residual"]
    grid, n, m, route, seconds, res = row.split()
    # 4 buses over 24 h, one of them a generator: 5 * 24 decisions, 4 * 24 rows
    assert (grid, n, m, route) == ("2x2x24", "120", "96", "kkt")
    assert float(seconds) > 0 and float(res) <= 1e-8
    bad = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_ladder.py"), "--sizes", "2,x"],
        capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and "--sizes" in bad.stderr


def test_bench_writes_paired_entry(tmp_path):
    # the same checkout on both sides exercises the alternating pair layout
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--workloads", "dispatch-grid",
         "--seeds", "1", "--seconds", "1", "--label", "smoke", "--against", str(root),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.glob("BENCH_*_smoke.json")
    entry = json.loads(path.read_text())
    assert [(r["tree"], r["position"]) for r in entry["runs"]] == [("this", 0), ("against", 1)]
    for r in entry["runs"]:
        assert r["result"]["correct"] and r["env"]["nproc"] >= 1
        assert r["rounds"] == entry["runs"][0]["rounds"] > 0
        solve = next(ln for ln in r["lines"] if ln.startswith("solve_s median"))
        # one time per solve pass, as many as the solve_s line counts
        assert len(r["pass_times"]) == int(solve.rsplit("n=", 1)[1]) >= 1
        assert all(isinstance(t, float) and t > 0.0 for t in r["pass_times"])
    summary = entry["summary"]["dispatch-grid"]
    row = summary["rounds"]
    assert row["pairs"] == 1 and row["ties"] == 1
    spread = _bench_module().pass_spread
    assert summary["pass_iqr_frac"] == {"this_median": spread(entry["runs"][:1]),
                                        "against_median": spread(entry["runs"][1:])}
    # per run, the interquartile range of its pass times over their median
    # (2 / 3 and 0; a run of one pass has none), then the median over runs
    runs = [{"pass_times": [5.0, 1.0, 4.0, 2.0, 3.0]}, {"pass_times": [2.0, 2.0, 2.0]},
            {"pass_times": [9.0]}, {"pass_times": None}]
    assert spread(runs) == pytest.approx(1.0 / 3.0)
    assert spread(runs[2:]) is None


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_describe_names_the_changed_files(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    git("init", "-q")
    for name in ("a.py", "b.md", "c.md"):
        (tmp_path / name).write_text("x\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "seed")
    describe = _bench_module().describe
    clean = describe(tmp_path)
    assert re.fullmatch("[0-9a-f]{40}", clean["commit"])
    assert (clean["dirty"], clean["changed"]) == (False, [])
    # a worktree edit, a staged edit and an untracked file (not counted)
    (tmp_path / "b.md").write_text("y\n")
    (tmp_path / "c.md").write_text("y\n")
    git("add", "c.md")
    (tmp_path / "new.py").write_text("x\n")
    edited = describe(tmp_path)
    assert edited["commit"] == clean["commit"]
    assert (edited["dirty"], edited["changed"]) == (True, ["b.md", "c.md"])


def test_bench_summary_verdicts():
    # per workload, this tree's and the other tree's runs of a lower-better
    # metric; a higher-better metric read at -v gets the same verdicts, and a
    # metric without a bound gets none
    spread = [0.9, 1.3] * 5  # interquartile range 0.4, wider than the bound
    cases = {
        "worse": ([1.3] * 10, [1.0] * 10),
        "unresolved": (spread, spread),
        "unresolved-one-pair": ([1.05], [1.0]),
        "gain": ([0.8 + 0.01 * i for i in range(10)], [1.0 + 0.01 * i for i in range(10)]),
        "gain-past-the-spread": ([0.5] * 10, spread),
        "inside": ([1.0] * 10, [1.0] * 10),
        "inside-one-pair": ([0.5], [1.0]),
        "inside-eight-wins": ([0.8] * 8 + [1.0] * 2, [1.0] * 10),
    }
    metrics = [{"name": "solve_s", "better": "lower", "bound": 0.25},
               {"name": "converged_frac", "better": "higher", "bound": 0.1},
               {"name": "engine.run_s", "better": "lower"}]
    runs = []
    for wl, (ours, theirs) in cases.items():
        for tree, vals in (("this", ours), ("against", theirs)):
            runs += [{"workload": wl, "seed": s, "tree": tree, "result": {"metrics": {
                "solve_s": {"value": v}, "converged_frac": {"value": -v},
                "engine.run_s": {"value": v}}}} for s, v in enumerate(vals)]
    summary = _bench_module().summarise(runs, metrics, paired=True)
    assert sorted(summary) == sorted(cases)
    for wl, rows in summary.items():
        want = wl.split("-")[0]
        assert rows["solve_s"]["verdict"] == rows["converged_frac"]["verdict"] == want, wl
        assert "verdict" not in rows["engine.run_s"]


def test_digests_against_itself(tmp_path):
    # one instance's digests, computed in both trees by fresh processes
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "digests.py"), "--against", str(root), "chain3/"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "20 digests, 0 differ"
    rows = [ln.split() for ln in lines[:-1]]
    runs = {"alg1", "alg2-g0.1-eps1e-4"} | {f"{a}-g{g}" for a in ("alg2", "unaccel")
                                             for g in (0.0, 0.3, 0.5)}
    assert {r[1] for r in rows} == {"chain3/steps", "chain3/eval_dual", "chain3/oracle",
                                    "chain3/batch"} | {
        f"chain3/{r}" for r in runs} | {f"chain3/{r}/oracle-side" for r in runs}
    assert all(r[0] == "same" and r[2] == r[3] and len(r[2]) == 64 for r in rows)
    # alg2 at gamma 0 is alg1 bit for bit (criterion 7)
    by_name = {r[1]: r[2] for r in rows}
    for suffix in ("", "/oracle-side"):
        assert by_name[f"chain3/alg1{suffix}"] == by_name[f"chain3/alg2-g0.0{suffix}"]


def _copy_tree(root: Path, other: Path) -> None:
    shutil.copytree(root / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "cases", other / "cases")


def _digest_status(other: Path, *prefixes: str):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "digests.py"), "--against", str(other), *prefixes],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    return proc.returncode, {ln.split()[1]: ln.split()[0] for ln in lines[:-1]}, lines[-1]


def test_digests_flag_a_changed_tree(tmp_path):
    # a copy whose chain3 costs differ: same step table, different runs
    root, other = SCRIPTS.parent, tmp_path / "other"
    _copy_tree(root, other)
    case = json.loads((other / "cases" / "chain3.json").read_text())
    case["agents"][0]["c"][0] += 1.0
    (other / "cases" / "chain3.json").write_text(json.dumps(case))
    rc, status, last = _digest_status(other, "chain3/steps", "chain3/alg1")
    assert rc == 1
    assert status == {"chain3/steps": "same", "chain3/alg1": "DIFF",
                      "chain3/alg1/oracle-side": "DIFF"}
    assert last == "3 digests, 2 differ"


def test_digests_keep_iterates_apart_from_the_oracle(tmp_path):
    # a copy whose oracle answers a different multiplier: the runs' iterates
    # stay, their gap (q at lambda_star) and V move
    root, other = SCRIPTS.parent, tmp_path / "other"
    _copy_tree(root, other)
    path = other / "src" / "dualdec" / "oracle.py"
    text = path.read_text()
    assert text.count("OracleSolution(u=u, lam=lam,") == 1
    path.write_text(text.replace("OracleSolution(u=u, lam=lam,",
                                 "OracleSolution(u=u, lam=lam + 1e-3,"))
    rc, status, last = _digest_status(other, "chain3/oracle", "chain3/alg2-g0.3")
    assert rc == 1
    assert status == {"chain3/oracle": "DIFF", "chain3/alg2-g0.3": "same",
                      "chain3/alg2-g0.3/oracle-side": "DIFF"}
    assert last == "3 digests, 2 differ"
