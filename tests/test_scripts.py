"""Smoke runs of the experiment scripts as subprocesses."""

import subprocess
import sys
from pathlib import Path

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
    assert len(lines) == 101 and lines[0] == "k,det_gap,det_bound,mean_gap,stoch_bound"
