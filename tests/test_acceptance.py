"""End-to-end acceptance checklist.

Each test prints a single ``[PASS]``/``[FAIL]`` line and then asserts the
same condition, so running

    pytest tests/test_acceptance.py -s

doubles as a readable report.  Tolerances and instance sizes are pinned;
the random instances are seeded, so every run checks the same problems.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dualdec import (build_network, build_opf_instance, build_stepsizes,
                     check_lyapunov_step, check_quadratic_model,
                     eval_dual, load_case, load_instance,
                     random_instance, run_alg1, run_alg2, run_unaccelerated,
                     save_instance, solve_kkt, solve_local, theta_next)
from dualdec.cli import main

CASES = Path(__file__).resolve().parent.parent / "cases"


def _check(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def rate_instances():
    """Ten seeded random instances with their stepsizes and oracle solutions."""
    out = []
    for seed in range(100, 110):
        inst = random_instance(5, seed=seed)
        out.append((inst, build_stepsizes(inst), solve_kkt(inst)))
    return out


def test_criterion_01_analytic_instance():
    t0 = time.monotonic()
    inst = load_instance(CASES / "instance_a.json")
    sol = solve_kkt(inst)
    oracle_ok = (np.allclose(sol.u, [1.0, 1.0], atol=1e-12)
                 and abs(sol.lam[0] + 1.0) <= 1e-12
                 and abs(sol.q - 1.0) <= 1e-12)
    trace = run_alg1(inst, build_stepsizes(inst), 50, 0.0, lambda_star=sol.lam)
    hit = (np.abs(trace.lam[:, 0] + 1.0) <= 1e-8) & (trace.gap <= 1e-12)
    dt = time.monotonic() - t0
    _check(1, "two-agent analytic instance reaches its known optimum within 50 "
              f"iterations in {dt:.2f}s",
           oracle_ok and bool(hit.any()) and dt < 1.0)


def test_criterion_02_local_gradient_smoothness():
    rng = np.random.default_rng(2024)
    violations = checked = 0
    for seed in range(20):
        inst = random_instance(2 + seed % 4, seed=seed)
        for i in inst.ids:
            S = inst.out_stack(i)
            if S.shape[0] == 0:
                continue
            agent = inst.agent(i)
            lip = np.linalg.norm(S, 2) ** 2 / agent.sigma
            X = rng.uniform(-5.0, 5.0, (S.shape[0], 1000))
            Y = rng.uniform(-5.0, 5.0, (S.shape[0], 1000))
            AX, AY = S.T @ X, S.T @ Y  # one pressure vector per column
            dgrad = S @ np.column_stack([
                solve_local(agent, AX[:, s]) - solve_local(agent, AY[:, s])
                for s in range(X.shape[1])])
            lhs = np.linalg.norm(dgrad, axis=0)
            rhs = lip * np.linalg.norm(X - Y, axis=0) + 1e-9
            violations += int(np.count_nonzero(lhs > rhs))
            checked += X.shape[1]
    _check(2, "per-agent gradient differences stay under the spectral smoothness "
              f"bound on {checked} multiplier pairs across 20 instances",
           checked > 0 and violations == 0)


def test_criterion_03_one_step_progress_inequality():
    rng = np.random.default_rng(7)
    bad = total = 0
    for seed in range(20):
        inst = random_instance(2 + seed % 4, seed=seed)
        tab = build_stepsizes(inst)
        X = rng.uniform(-4.0, 4.0, (1000, inst.m_total))
        M = rng.uniform(-4.0, 4.0, (1000, inst.m_total))
        for xi, mu in zip(X, M):
            total += 1
            if not check_quadratic_model(inst, tab, xi, mu):
                bad += 1
    _check(3, f"gradient-step progress inequality holds on all {total} sampled "
              "multiplier pairs", bad == 0)


def test_criterion_04_per_iteration_decrease_certificate(rate_instances):
    ok = True
    for inst, tab, star in rate_instances:
        tr = run_alg1(inst, tab, 200, 0.0, lambda_star=star.lam)
        ok = ok and all(check_lyapunov_step(tr, k) for k in range(1, tr.iters))
    _check(4, "scaled-distance decrease certificate holds at every step of "
              "200-iteration full-information runs on 10 instances", ok)


def test_criterion_05_deterministic_rate_bound(rate_instances):
    ok = True
    for inst, tab, star in rate_instances:
        tr = run_alg1(inst, tab, 1000, 0.0, lambda_star=star.lam)
        k = np.arange(1, tr.iters + 1, dtype=float)
        bound = 4.0 * (tr.V[0] + tr.gap[0]) / (k + 1.0) ** 2
        ok = ok and tr.iters == 1000 and bool(np.all(tr.gap <= bound + 1e-12))
    _check(5, "full-information duality gap stays under its 4(V1+gap1)/(k+1)^2 "
              "envelope for 1000 iterations on 10 instances", ok)


def test_criterion_06_stochastic_rate_seed_mean():
    inst = random_instance(5, seed=0)
    tab = build_stepsizes(inst)
    star = solve_kkt(inst)
    gaps, v1g1 = [], []
    for seed in range(1, 33):
        net = build_network(inst, 0.2, seed=seed)
        tr = run_alg2(inst, tab, net, 200, 0.0, lambda_star=star.lam)
        gaps.append(tr.gap)
        v1g1.append(tr.V[0] + tr.gap[0])
    G = np.asarray(gaps)
    C = 4.0 * float(np.mean(v1g1))
    ok = True
    for k in (50, 100, 200):
        col = G[:, k - 1]
        sem = float(np.std(col, ddof=1)) / math.sqrt(len(col))
        ok = ok and float(col.mean()) <= C / (k + 1.0) ** 2 + 2.0 * sem
    _check(6, "seed-mean gap over 32 lossy runs (20% failure) meets the "
              "C/(k+1)^2 envelope at k=50,100,200", ok)


def test_criterion_07_lossless_run_reduces_to_centralized():
    inst = random_instance(5, seed=0)
    tab = build_stepsizes(inst)
    ref = run_alg1(inst, tab, 500, 0.0)
    lossy = run_alg2(inst, tab, build_network(inst, 0.0, seed=123), 500, 0.0)
    dev = float(np.max(np.abs(ref.lam - lossy.lam)))
    _check(7, f"always-on network run matches the centralized iterates "
              f"(max deviation {dev:.1e} over 500 iterations)",
           ref.iters == lossy.iters == 500 and dev <= 1e-12
           and bool(lossy.updates.all()))


def test_criterion_08_gradient_matches_finite_differences():
    inst = random_instance(5, seed=0)
    rng = np.random.default_rng(11)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(-3.0, 3.0, inst.m_total)
        grad = eval_dual(inst, lam).grad
        fd = np.empty_like(grad)
        for j in range(inst.m_total):
            e = np.zeros(inst.m_total)
            e[j] = h
            fd[j] = (eval_dual(inst, lam + e).q
                     - eval_dual(inst, lam - e).q) / (2.0 * h)
        rel = float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12))
        worst = max(worst, rel)
    _check(8, f"dual gradient matches central differences at 100 points "
              f"(worst relative error {worst:.2e})", worst < 1e-5)


def test_criterion_09_failure_rate_sweep_cli(tmp_path):
    t0 = time.monotonic()
    prob = tmp_path / "sweep_instance.json"
    save_instance(random_instance(5, seed=0), prob)
    out = tmp_path / "sweep.csv"
    rc = main(["montecarlo", "--problem", str(prob), "--gammas", "0,0.1,0.3,0.5",
               "--runs", "10", "--eps", "1e-6", "--max-iters", "20000",
               "--seed", "0", "--out", str(out)])
    dt = time.monotonic() - t0
    by_gamma: dict[float, list[int]] = {}
    for line in out.read_text().splitlines()[1:]:
        g, _seed, iters, _conv = line.split(",")
        by_gamma.setdefault(float(g), []).append(int(iters))
    medians = [float(np.median(v)) for _, v in sorted(by_gamma.items())]
    nondec = all(a <= b for a, b in zip(medians, medians[1:]))
    zero_var = len(set(by_gamma[0.0])) == 1
    _check(9, f"median iterations-to-1e-6 nondecreasing in the failure rate "
              f"(medians {medians}, {dt:.1f}s)",
           rc == 0 and sorted(by_gamma) == [0.0, 0.1, 0.3, 0.5]
           and nondec and zero_var and dt < 60.0)


def test_criterion_10_acceleration_beats_plain_gradient():
    inst = random_instance(5, seed=0)
    tab = build_stepsizes(inst)
    ok = True
    pairs = []
    for seed in range(1, 6):
        fast = run_alg2(inst, tab, build_network(inst, 0.2, seed=seed), 5000, 1e-6)
        slow = run_unaccelerated(inst, tab, build_network(inst, 0.2, seed=seed),
                                 5000, 1e-6)
        ok = ok and fast.converged and slow.converged and fast.iters < slow.iters
        pairs.append((fast.iters, slow.iters))
    _check(10, "accelerated lossy run needs strictly fewer iterations than the "
               f"plain-gradient baseline on every seed {pairs}", ok)


def test_criterion_11_dispatch_cases():
    case2 = dataclasses.replace(load_case(CASES / "opf_2bus.json"), eps_psi=0.5)
    inst2 = build_opf_instance(case2)
    star2 = solve_kkt(inst2)
    tr2 = run_alg1(inst2, build_stepsizes(inst2), 2000, 1e-9)
    r2 = inst2.coupling_csr @ tr2.u_final - inst2.g_vec
    two_ok = (tr2.converged
              and float(np.sum(np.abs(r2))) < 1e-6
              and float(np.max(np.abs(tr2.u_final - star2.u))) <= 1e-6
              and float(np.max(np.abs(tr2.lam[-1] - star2.lam))) <= 1e-6
              and abs(tr2.q[-1] - star2.q) <= 1e-6)

    t0 = time.monotonic()
    inst14 = build_opf_instance(load_case(CASES / "ieee14.json"))
    star14 = solve_kkt(inst14)
    net = build_network(inst14, 0.1, seed=1)
    tr14 = run_alg2(inst14, build_stepsizes(inst14), net, 40000, 2e-5)
    dt = time.monotonic() - t0
    rnorm = np.linalg.norm(inst14.coupling_csr @ tr14.u_final - inst14.g_vec)
    gap = star14.q - tr14.q
    dec_r = np.array([c.mean() for c in np.array_split(tr14.residual, 10)])
    dec_g = np.array([c.mean() for c in np.array_split(gap, 10)])
    mono = bool(np.all(np.diff(dec_r) < 0.0) and np.all(np.diff(dec_g) < 0.0))
    fourteen_ok = (tr14.converged and rnorm < 1e-4 and mono and dt < 300.0)
    _check(11, "2-bus dispatch matches its oracle to 1e-6; 14-bus 6-hour case "
               f"converges under 10% loss (residual {rnorm:.1e}, {dt:.1f}s) "
               "with decade-by-decade decaying traces",
           two_ok and fourteen_ok)


def test_criterion_12_momentum_sequence():
    th = 1.0
    floor_ok = True
    worst = 0.0
    for k in range(1, 100_001):
        if th < (k + 1) / 2.0:
            floor_ok = False
            break
        nxt = theta_next(th)
        worst = max(worst, abs(nxt * nxt - nxt - th * th) / (th * th))
        th = nxt
    _check(12, "momentum sequence keeps theta(k) >= (k+1)/2 and satisfies its "
               f"defining recurrence to 1e5 steps (worst residual {worst:.1e})",
           floor_ok and worst <= 1e-9)
