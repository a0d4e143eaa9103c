"""Command line driver: exit codes, output files, reproducibility."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import CASES
from dualdec import (build_network, build_stepsizes, engine, random_instance, run_alg2,
                     run_batch, save_instance)
from dualdec import cli
from dualdec.cli import main


def pj(name="instance_a.json"):
    return str(CASES / name)


# ----------------------------------------------------------- exit codes


def test_validate_ok(capsys):
    assert main(["validate", "--problem", pj()]) == 0
    out = capsys.readouterr().out
    assert "agents: 2" in out and "coupling rows: 1" in out


def test_validate_case_ok(capsys):
    assert main(["validate", "--case", str(CASES / "ieee14.json")]) == 0
    assert "agents: 14" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],                                            # no subcommand
    ["run", "--problem", "x.json"],                # missing --algo
    ["run", "--algo", "alg1"],                     # neither --problem nor --case
    ["run", "--algo", "alg9", "--problem", "x"],   # bad choice
    ["validate"],                                  # no input
    ["montecarlo", "--problem", "x", "--gammas", "0", "--runs", "0",
     "--out", "y"],                                # runs < 1
    ["montecarlo", "--problem", "x", "--gammas", "a,b", "--runs", "1",
     "--out", "y"],                                # unparsable gammas
    ["montecarlo", "--problem", "x", "--gammas", "0.1,1e-1", "--runs", "1",
     "--out", "y"],                                # a gamma repeated
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("gammas, msg", [
    (",", "--gammas is empty"),
    ("a,b", "cannot parse --gammas 'a,b'"),
    ("0.1,1e-1", "--gammas repeats a value"),
], ids=["empty", "unparsable", "repeated"])
def test_gammas_usage_error_names_the_fault(gammas, msg, tmp_path, capsys):
    assert main(["montecarlo", "--problem", pj(), "--gammas", gammas, "--runs", "1",
                 "--out", str(tmp_path / "mc.csv")]) == 1
    assert msg in capsys.readouterr().err


def test_validate_both_inputs_rejected(capsys):
    code = main(["validate", "--problem", pj(), "--case", str(CASES / "opf_2bus.json")])
    assert code == 1
    capsys.readouterr()


def test_gamma_with_alg1_rejected(capsys):
    assert main(["run", "--algo", "alg1", "--problem", pj(), "--gamma", "0.1"]) == 1
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    assert main(["validate", "--problem", "no_such_file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["validate", "--problem", str(p)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind, path, value, msg", [
    ("case", ("h",), True, "h True is not an integer"),
    ("case", ("h",), 1.0, "h 1.0 is not an integer"),
    ("case", ("h",), "1", "h '1' is not an integer"),
    ("case", ("generators", 0, "a"), "x", "generator a: not numeric"),
    ("case", ("eps_psi",), "x", "eps_psi: not numeric"),
    ("case", ("buses", 0, "demand"), "a", "bus 1: demand: not numeric"),
    ("case", ("ref_bus",), True, "ref_bus True is not an integer"),
    ("problem", ("agents", 0, "dim"), True, "dim True is not an integer"),
    ("problem", ("agents", 0, "m"), True, "m True is not an integer"),
    ("case", ("eps_psi",), "0.5", "eps_psi: not numeric"),
    ("case", ("psi_max",), True, "psi_max: not numeric"),
    ("case", ("generators", 0, "a"), True, "generator a: not numeric"),
    ("case", ("buses", 1, "demand"), [True], "bus 2: demand: not numeric"),
    ("problem", ("agents", 0, "c"), ["0.0"], "agent 1: c: not numeric"),
    ("problem", ("agents", 0, "blocks", "2"), [[1.0, False]], "block for 2: not numeric"),
    ("problem", ("agents", 0, "c"), [None], "agent 1: c: not numeric"),
    ("problem", ("agents", 0, "blocks", "2"), [[None]], "block for 2: not numeric"),
    ("case", ("buses", 1, "demand"), [None], "bus 2: demand: not numeric"),
    ("problem", ("agents", 0, "blocks", "02"), [[5.0]], "block key '02' is not an agent id"),
    ("problem", ("agents", 0, "blocks", " 2"), [[5.0]], "block key ' 2' is not an agent id"),
    ("problem", ("agents", 0, "blocks", "+2"), [[5.0]], "block key '+2' is not an agent id"),
    ("problem", ("agents", 0, "blocks", "2_0"), [[5.0]], "block key '2_0' is not an agent id"),
], ids=["h-bool", "h-float", "h-str", "gen-a-str", "eps_psi-str", "demand-str",
        "ref_bus-bool", "dim-bool", "m-bool", "eps_psi-digits", "psi_max-bool",
        "gen-a-bool", "demand-nested-bool", "c-nested-digits", "block-nested-bool",
        "c-null", "block-nested-null", "demand-null", "block-key-zero-padded",
        "block-key-space", "block-key-plus", "block-key-underscore"])
def test_malformed_file_exits_2(kind, path, value, msg, tmp_path, capsys):
    # each of these used to crash with a traceback (exit 1), load as a number,
    # or (a null in an array) be read as NaN and named a non-finite value
    data = json.loads((CASES / ("opf_2bus.json" if kind == "case" else "instance_a.json"))
                      .read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["validate", f"--{kind}", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and msg in err


@pytest.mark.parametrize("kind, old, new, key", [
    ("problem", '"c": [0.0],', '"c": [0.0], "c": [9.0],', "c"),
    ("case", '"h": 1,', '"h": 1, "h": 2,', "h"),
])
def test_repeated_key_exits_2(kind, old, new, key, tmp_path, capsys):
    # json.loads would keep the last value of the two
    text = (CASES / ("opf_2bus.json" if kind == "case" else "instance_a.json")).read_text()
    assert old in text
    p = tmp_path / "twice.json"
    p.write_text(text.replace(old, new, 1))
    assert main(["validate", f"--{kind}", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"an object repeats the key '{key}'" in err


def test_bad_gamma_exits_2(capsys):
    assert main(["run", "--algo", "alg2", "--problem", pj(), "--gamma", "1.5"]) == 2
    capsys.readouterr()


def test_run_converged_exits_0(capsys):
    assert main(["run", "--algo", "alg1", "--problem", pj()]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


@pytest.mark.parametrize("cmd", [
    ["run", "--algo", "alg1", "--problem", pj("chain3.json")],
    ["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0", "--runs", "1",
     "--out", "unused.csv"],
])
@pytest.mark.parametrize("eps", ["nan", "-1e-6", "inf"])
def test_bad_eps_exits_1(cmd, eps, capsys):
    # --eps nan used to print converged=True at k=1 and exit 0
    assert main(cmd + [f"--eps={eps}"]) == 1
    captured = capsys.readouterr()
    assert "--eps must be a finite number >= 0" in captured.err
    assert "converged" not in captured.out


@pytest.mark.parametrize("cmd", ["run", "montecarlo"])
def test_negative_max_iters_exits_1(cmd, tmp_path, capsys):
    # montecarlo used to exit 0 with 0-iteration rows and a summary of zeros
    out = tmp_path / "mc.csv"
    argv = (["run", "--algo", "alg2", "--problem", pj("chain3.json")] if cmd == "run" else
            ["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0,0.1", "--runs", "2",
             "--out", str(out)])
    assert main(argv + ["--max-iters", "-5"]) == 1
    assert "--max-iters must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_exhausted_exits_3(capsys):
    assert main(["run", "--algo", "alg1", "--problem", pj("chain3.json"),
                 "--eps", "1e-12", "--max-iters", "3"]) == 3
    assert "converged=False" in capsys.readouterr().out


@pytest.mark.parametrize("max_iters, code, tail", [
    ("10000", 0, " converged=True stop=converged"),
    ("3", 3, " converged=False stop=budget"),
    ("0", 3, "k=0 (empty run) stop=budget"),
])
def test_run_prints_stop_reason(max_iters, code, tail, capsys):
    assert main(["run", "--algo", "alg2", "--problem", pj("chain3.json"), "--gamma", "0.3",
                 "--max-iters", max_iters]) == code
    assert capsys.readouterr().out.rstrip("\n").endswith(tail)


# ------------------------------------------------------------- run cmd


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["run", "--algo", "alg2", "--problem", str(CASES / "chain3.json"),
                 "--gamma", "0.3", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,q,residual,gap,V,updates"
    assert len(lines) > 1
    capsys.readouterr()


def test_run_trace_is_byte_deterministic(tmp_path, capsys):
    args = ["run", "--algo", "alg2", "--problem", str(CASES / "chain3.json"),
            "--gamma", "0.4", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_unaccel_run(capsys):
    assert main(["run", "--algo", "unaccel", "--problem", pj(),
                 "--gamma", "0.2", "--max-iters", "5000"]) == 0
    capsys.readouterr()


# -------------------------------------------------------- monte carlo


def nearest_rank(vals, p):
    vals = sorted(vals)
    return vals[max(1, math.ceil(p / 100 * len(vals))) - 1]


def test_montecarlo_outputs(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code = main(["montecarlo", "--problem", str(CASES / "chain3.json"),
                 "--gammas", "0.3,0,0.1", "--runs", "4", "--seed", "2",
                 "--max-iters", "5000", "--out", str(out)])
    assert code == 0
    capsys.readouterr()

    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,seed,iters,converged"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 12
    seen = [(float(g), int(s)) for g, s, _, _ in rows]
    assert seen == sorted(seen)  # gamma-major, then seed
    assert {g for g, _ in seen} == {0.0, 0.1, 0.3}
    assert all(c == "1" for *_, c in rows)

    summary = (tmp_path / "mc.summary.csv").read_text().splitlines()
    assert summary[0] == "gamma,runs,min,p25,median,p75,max"
    for ln in summary[1:]:
        g, n, mn, p25, med, p75, mx = ln.split(",")
        iters = [int(r[2]) for r in rows if float(r[0]) == float(g)]
        assert int(n) == 4
        assert int(mn) == min(iters) and int(mx) == max(iters)
        assert int(p25) == nearest_rank(iters, 25)
        assert int(med) == nearest_rank(iters, 50)
        assert int(p75) == nearest_rank(iters, 75)


def test_montecarlo_gamma_zero_has_no_spread(tmp_path, capsys):
    out = tmp_path / "mc0.csv"
    assert main(["montecarlo", "--problem", str(CASES / "chain3.json"),
                 "--gammas", "0", "--runs", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    iters = [int(ln.split(",")[2]) for ln in out.read_text().splitlines()[1:]]
    assert len(set(iters)) == 1


def test_montecarlo_rows_equal_logged_runs(tmp_path, capsys):
    # montecarlo skips the logging re-solve; its rows must equal fully logged runs
    inst = random_instance(5, seed=0)
    problem, out = tmp_path / "rand5.json", tmp_path / "mc.csv"
    save_instance(inst, problem)
    assert main(["montecarlo", "--problem", str(problem), "--gammas", "0,0.3,0.5",
                 "--runs", "3", "--seed", "7", "--eps", "1e-4", "--max-iters", "400",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    table = build_stepsizes(inst)
    want = ["gamma,seed,iters,converged"]
    for gamma in (0.0, 0.3, 0.5):
        for seed in (7, 8, 9):
            tr = run_alg2(inst, table, build_network(inst, gamma, seed=seed), 400, 1e-4)
            assert tr.q is not None and len(tr.q) == tr.iters
            want.append(f"{gamma!r},{seed},{tr.iters},{int(tr.converged)}")
    assert out.read_text().splitlines() == want
    assert {ln.split(",")[3] for ln in want[1:]} == {"0", "1"}


def test_montecarlo_runs_always_up_replicates_once(tmp_path, capsys, monkeypatch):
    # at gamma 0 every link draw is up whatever the seed: one run serves all four
    # rows; the lossy replicates run as the columns of one batch
    seen = []

    def counting(instance, table, net, *args, **kwargs):
        seen.append(("run_alg2", float(net.beta.min()), net.seed))
        return run_alg2(instance, table, net, *args, **kwargs)

    def counting_batch(instance, table, nets, *args, **kwargs):
        seen.append(("run_batch", [float(n.beta.min()) for n in nets], [n.seed for n in nets]))
        return run_batch(instance, table, nets, *args, **kwargs)

    monkeypatch.setattr(engine, "run_alg2", counting)
    monkeypatch.setattr(engine, "run_batch", counting_batch)
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0,0.3",
                 "--runs", "4", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert seen == [("run_alg2", 1.0, 5), ("run_batch", [0.7] * 4, [5, 6, 7, 8])]
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [(g, s) for g, s, _, _ in rows] == [(g, str(s)) for g in ("0.0", "0.3")
                                                for s in (5, 6, 7, 8)]
    assert len({(it, c) for g, _, it, c in rows if g == "0.0"}) == 1


def test_montecarlo_checks_every_gamma_before_running_any(tmp_path, capsys, monkeypatch):
    # gamma 1.5 fails before gammas 0 and 0.3 run, so no CSV is left half made
    calls = []
    monkeypatch.setattr(engine, "run_alg2", lambda *a, **kw: calls.append("run_alg2"))
    monkeypatch.setattr(engine, "run_batch", lambda *a, **kw: calls.append("run_batch"))
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0,0.3,1.5",
                 "--runs", "4", "--out", str(out)]) == 2
    assert "gamma must lie in [0, 1), got 1.5" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_montecarlo_batches_split_into_passes(tmp_path, capsys, monkeypatch):
    # more replicates than one pass takes: the rows are those of one pass
    args = ["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0.3", "--runs", "7"]
    one, split = tmp_path / "one.csv", tmp_path / "split.csv"
    assert main(args + ["--out", str(one)]) == 0
    widths = []

    def counting_batch(instance, table, nets, *a, **kw):
        widths.append(len(nets))
        return run_batch(instance, table, nets, *a, **kw)

    monkeypatch.setattr(engine, "run_batch", counting_batch)
    monkeypatch.setattr(cli, "_BATCH", 3)
    assert main(args + ["--out", str(split)]) == 0
    capsys.readouterr()
    assert widths == [3, 3, 1]
    assert one.read_bytes() == split.read_bytes()


def test_montecarlo_runs_every_lossy_gamma_in_one_pass(tmp_path, capsys, monkeypatch):
    # the replicates of both lossy gammas are the columns of one batch, gamma
    # after gamma; the always-up gamma is still its one logged run
    seen = []

    def counting_batch(instance, table, nets, *a, **kw):
        seen.append([(float(n.beta.min()), n.seed) for n in nets])
        return run_batch(instance, table, nets, *a, **kw)

    monkeypatch.setattr(engine, "run_batch", counting_batch)
    assert main(["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0.5,0,0.3",
                 "--runs", "3", "--seed", "4", "--out", str(tmp_path / "mc.csv")]) == 0
    capsys.readouterr()
    assert seen == [[(beta, s) for beta in (0.7, 0.5) for s in (4, 5, 6)]]


def test_montecarlo_passes_cross_gamma_boundaries(tmp_path, capsys, monkeypatch):
    # passes of 3 columns over 2 lossy gammas of 4 replicates each: the middle
    # pass holds both gammas, and the rows and summary are those of one pass
    args = ["montecarlo", "--problem", pj("chain3.json"), "--gammas", "0,0.3,0.5",
            "--runs", "4"]
    one, split = tmp_path / "one.csv", tmp_path / "split.csv"
    assert main(args + ["--out", str(one)]) == 0
    widths = []

    def counting_batch(instance, table, nets, *a, **kw):
        widths.append(len(nets))
        return run_batch(instance, table, nets, *a, **kw)

    monkeypatch.setattr(engine, "run_batch", counting_batch)
    monkeypatch.setattr(cli, "_BATCH", 3)
    assert main(args + ["--out", str(split)]) == 0
    capsys.readouterr()
    assert widths == [3, 3, 2]
    assert one.read_bytes() == split.read_bytes()
    assert ((tmp_path / "one.summary.csv").read_bytes()
            == (tmp_path / "split.summary.csv").read_bytes())


def test_montecarlo_byte_deterministic(tmp_path, capsys):
    args = ["montecarlo", "--problem", pj(), "--gammas", "0,0.5", "--runs", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.csv").read_bytes() == (tmp_path / "b.summary.csv").read_bytes()


# ------------------------------------------------------- entry points

SRC = CASES.parent / "src"  # `python -m` imports from its working directory first


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dualdec", "validate",
                           "--problem", pj()], capture_output=True, text=True, cwd=SRC)
    assert proc.returncode == 0
    assert "agents: 2" in proc.stdout


def test_module_usage_error_code():
    proc = subprocess.run([sys.executable, "-m", "dualdec", "frobnicate"],
                          capture_output=True, text=True, cwd=SRC)
    assert proc.returncode == 1
    assert "invalid choice: 'frobnicate'" in proc.stderr
