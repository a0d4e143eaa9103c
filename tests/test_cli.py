"""Command line driver: exit codes, output files, reproducibility."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import CASES
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
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


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


def test_run_exhausted_exits_3(capsys):
    assert main(["run", "--algo", "alg1", "--problem", pj("chain3.json"),
                 "--eps", "1e-12", "--max-iters", "3"]) == 3
    assert "converged=False" in capsys.readouterr().out


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


def test_montecarlo_byte_deterministic(tmp_path, capsys):
    args = ["montecarlo", "--problem", pj(), "--gammas", "0,0.5", "--runs", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.summary.csv").read_bytes() == (tmp_path / "b.summary.csv").read_bytes()


# ------------------------------------------------------- entry points


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "dualdec", "validate",
                           "--problem", pj()], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "agents: 2" in proc.stdout


def test_module_usage_error_code():
    proc = subprocess.run([sys.executable, "-m", "dualdec", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
