"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Oracle routes here are
independent of the library paths they check (plain-loop bisections on the
closed-form divergences, scipy statistics, least-squares fits on raw
records).  Monte Carlo criteria pin their master seeds; all runs are
deterministic.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from bestarm.complexity import c_star_fb, c_star_fc, optimal_alpha
from bestarm.dists import BERNOULLI_FAMILY
from bestarm.fc_algos import ExplorationRate
from bestarm.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    deviation_bound,
    empirical_lil_crossing,
    run_fb_experiment,
    run_fc_experiment,
)
from bestarm.instances import two_armed_bernoulli, two_armed_gaussian

EASY = two_armed_gaussian(0.5, 0.0, 0.25)
B21 = two_armed_bernoulli(0.2, 0.1)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def cli(*argv: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "bestarm", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def d_bern(x: float, y: float) -> float:
    value = 0.0
    if x > 0:
        value += x * math.log(x / y)
    if x < 1:
        value += (1 - x) * math.log((1 - x) / (1 - y))
    return value


def oracle_bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_criterion_1_complexity_kappas():
    code, out = cli("complexity", "--family", "gaussian",
                    "--means", "0.5,0", "--variances", "0.25,0.25")
    row = dict(kv.split("=", 1) for kv in out.split())
    kappa_easy = float(row["kappa_C_lower"])
    code2, out2 = cli("complexity", "--family", "gaussian",
                      "--means", "0.01,0", "--variances", "0.25,0.25")
    row2 = dict(kv.split("=", 1) for kv in out2.split())
    kappa_hard = float(row2["kappa_C_lower"])
    ok = (code == 0 and code2 == 0 and kappa_easy == 8.0 and kappa_hard == 2e4
          and float(row["kappa_B"]) == 8.0 and float(row2["kappa_B"]) == 2e4)
    report(1, ok, f"kappa(easy)={kappa_easy}, kappa(hard)={kappa_hard}")


VARIANCE_PAIRS = [(a, b) for a in (0.25, 0.5, 1.0) for b in (0.25, 0.5, 1.0)] + [(2.0, 0.25)]


def test_criterion_2_chernoff_solver_oracle():
    worst = 0.0
    for mu1 in np.linspace(0.1, 2.0, 10):
        for s1, s2 in VARIANCE_PAIRS:
            inst = two_armed_gaussian(float(mu1), 0.0, s1, s2)
            closed = c_star_fc(inst)[0]
            lib_fb = c_star_fb(inst)[0]
            # independent oracle: bisect the KL crossing in mean space
            sd1, sd2 = math.sqrt(s1), math.sqrt(s2)
            cross = oracle_bisect(
                lambda m: (m - mu1) ** 2 / (2 * s1) - (m - 0.0) ** 2 / (2 * s2),
                0.0 + 1e-12, float(mu1) - 1e-12)
            oracle = (cross - mu1) ** 2 / (2 * s1)
            worst = max(worst, abs(lib_fb - closed), abs(oracle - closed))
    mu_rev = oracle_bisect(lambda m: d_bern(0.2, m) - d_bern(0.1, m), 0.1001, 0.1999)
    mu_ch = oracle_bisect(lambda m: d_bern(m, 0.2) - d_bern(m, 0.1), 0.1001, 0.1999)
    c_fc_oracle = d_bern(0.2, mu_rev)
    c_fb_oracle = d_bern(mu_ch, 0.2)
    c_fc_lib = c_star_fc(B21)[0]
    c_fb_lib = c_star_fb(B21)[0]
    ok = (worst <= 1e-10
          and abs(c_fc_lib - c_fc_oracle) < 1e-9
          and abs(c_fb_lib - c_fb_oracle) < 1e-9
          and abs(c_fb_lib - 0.01012) < 1e-5
          and abs(c_fc_lib - 0.00999) < 1e-5
          and c_fb_lib > c_fc_lib > 0)
    report(2, ok, f"gaussian worst gap {worst:.2e}; "
                  f"bernoulli c^*={c_fb_lib:.6f}, c_*={c_fc_lib:.6f}")


def test_criterion_3_ordering_invariants():
    from bestarm.complexity import i_star_fb, i_star_fc
    from bestarm.dists import bernoulli_kl

    rng = np.random.default_rng(42)
    ok_pairs = True
    count = 0
    while count < 100:
        x, y = rng.uniform(0.02, 0.98, size=2)
        if abs(x - y) < 1e-3:
            continue
        inst = two_armed_bernoulli(float(x), float(y))
        c_fc, c_fb = c_star_fc(inst)[0], c_star_fb(inst)[0]
        i_fc, i_fb = i_star_fc(inst), i_star_fb(inst)
        tight = 1 / c_fc >= 1 / float(bernoulli_kl(x, y)) + 1 / float(bernoulli_kl(y, x)) - 1e-9
        ok_pairs &= (i_fc <= c_fc * (1 + 1e-9)) and (i_fb <= c_fb * (1 + 1e-9)) and tight
        count += 1
    # figure-regime sweep: mu2 in {0.1, 0.5}, mu1 stepped by 0.05 up to 0.95
    worst_gap = 0.0
    for mu2 in (0.1, 0.5):
        for mu1 in np.arange(mu2 + 0.05, 0.951, 0.05):
            inst = two_armed_bernoulli(float(mu1), mu2)
            c_fc, c_fb = c_star_fc(inst)[0], c_star_fb(inst)[0]
            worst_gap = max(worst_gap,
                            (c_fc - i_star_fc(inst)) / c_fc,
                            (c_fb - i_star_fb(inst)) / c_fb)
    ok = ok_pairs and worst_gap <= 0.025
    report(3, ok, f"orderings hold on 100 pairs; worst sweep gap {worst_gap:.4f} <= 2.5%")


def _pac_cells():
    mismatched = two_armed_gaussian(1.0, 0.0, 1.0, 0.25)
    return [
        ("elimination/robbins", EASY,
         AlgorithmSpec("elimination", rate=ExplorationRate.ROBBINS_LOG_T)),
        ("elimination/iterated-log", EASY,
         AlgorithmSpec("elimination", rate=ExplorationRate.ITERATED_LOG)),
        ("alpha-elimination", mismatched,
         AlgorithmSpec("alpha-elimination", rate=ExplorationRate.ALPHA_ELIM)),
        ("sglrt", B21, AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT)),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_4_delta_pac_suite():
    n = 10_000
    failures = []
    for name, instance, spec in _pac_cells():
        cfg = ExperimentConfig(instance, spec, (0.1, 0.01), n, 1004)
        for rec in run_fc_experiment(cfg):
            delta = rec.grid_value
            limit = delta + 3 * math.sqrt(delta / n)
            if rec.error_rate > limit:
                failures.append(f"{name}@{delta}: {rec.error_rate} > {limit:.5f}")
    report(4, not failures, f"8 cells at N={n}; violations: {failures or 'none'}")


def test_criterion_5_fixed_budget_slope():
    # Verbatim grid; cells with zero observed errors carry no log estimate
    # and are excluded (the exact p_t = Phi(-sqrt(t)/2) is below 1/N beyond
    # t=40; the README's known caveat explains why this criterion starves).
    n = 100_000
    cfg = ExperimentConfig(EASY, AlgorithmSpec("static", allocation="uniform"),
                           (40.0, 80.0, 120.0, 160.0, 200.0), n, 7)
    records = run_fb_experiment(cfg, workers=4)
    points = [(r.grid_value, math.log(r.error_rate))
              for r in records if r.error_rate > 0]
    rates = {int(r.grid_value): r.error_rate for r in records}
    if len(points) < 2:
        report(5, False,
               f"only {len(points)} budget cell(s) with observed errors "
               f"(error rates {rates}); slope not estimable at N={n}")
        return
    ts = np.array([p[0] for p in points])
    logs = np.array([p[1] for p in points])
    slope = float(np.polyfit(ts, logs, 1)[0])
    ok = -0.125 * 1.2 <= slope <= -0.125 * 0.8
    report(5, ok, f"slope {slope:.4f} vs -0.125 +-20% from cells {rates}")


def test_criterion_6_sprt_oracle():
    n = 10_000
    inst = two_armed_gaussian(1.0, 0.0, 0.25)
    cfg = ExperimentConfig(inst, AlgorithmSpec("sprt"), (0.001,), n, 1006)
    rec, = run_fc_experiment(cfg)
    theoretical = 2 * 0.25 / 1.0 * math.log(1000.0)
    ok_tau = theoretical <= rec.mean_tau <= 2.5 * theoretical
    limit = 0.001 + 3 * math.sqrt(0.001 / n)
    ok = ok_tau and rec.error_rate <= limit
    report(6, ok, f"mean tau {rec.mean_tau:.2f} in [{theoretical:.2f}, "
                  f"{2.5 * theoretical:.2f}]; error {rec.error_rate} <= {limit:.5f}")


def test_criterion_7_optimal_allocation_identity():
    rng = np.random.default_rng(1007)
    worst_mix = 0.0
    worst_val = 0.0
    count = 0
    while count < 50:
        x, y = rng.uniform(0.05, 0.95, size=2)
        if abs(x - y) < 5e-3:
            continue
        t1 = math.log(x / (1 - x))
        t2 = math.log(y / (1 - y))
        alpha, g_value = optimal_alpha(BERNOULLI_FAMILY, t1, t2)
        chernoff, theta_star = c_star_fb(two_armed_bernoulli(float(x), float(y)))
        worst_mix = max(worst_mix, abs(alpha * t1 + (1 - alpha) * t2 - theta_star))
        worst_val = max(worst_val, abs(g_value - chernoff))
        count += 1
    ok = worst_mix <= 1e-8 and worst_val <= 1e-8
    report(7, ok, f"50 pairs: worst crossing gap {worst_mix:.2e}, "
                  f"worst value gap {worst_val:.2e}")


def test_criterion_8_deviation_bound():
    n = 10_000
    horizon = 10_000
    failures = []
    for x in (3.0, 5.0):
        for beta in (1.5, 2.0):
            freq = empirical_lil_crossing(1.0, x, beta, horizon, n, 1008)
            bound = deviation_bound(x, beta)
            slack = 3 * math.sqrt(max(freq * (1 - freq), 1e-9) / n)
            if freq > bound + slack:
                failures.append(f"x={x},beta={beta}: {freq} > {bound:.4f}+{slack:.4f}")
    report(8, not failures, f"4 (x, beta) cells; violations: {failures or 'none'}")


def test_criterion_9_reproduce_figure_determinism(tmp_path):
    outs = [tmp_path / f"f{i}.csv" for i in range(3)]
    base = ["reproduce-figure", "fig4-left", "--reps", "1000", "--seed", "42"]
    codes = [
        cli(*base, "--out", str(outs[0]))[0],
        cli(*base, "--out", str(outs[1]))[0],
        cli(*base, "--out", str(outs[2]), "--workers", "4")[0],
    ]
    blobs = [p.read_bytes() for p in outs]
    ok = all(c == 0 for c in codes) and blobs[0] == blobs[1] == blobs[2]
    report(9, ok, f"3 invocations (workers 1,1,4), {len(blobs[0])} bytes each, "
                  f"identical={blobs[0] == blobs[2]}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_10_rate_comparison():
    n = 10_000
    means = {}
    errors = {}
    for rate in (ExplorationRate.ITERATED_LOG, ExplorationRate.ROBBINS_LOG_T,
                 ExplorationRate.PLAIN_LOG):
        cfg = ExperimentConfig(EASY, AlgorithmSpec("elimination", rate=rate),
                               (0.01,), n, 1010)
        rec, = run_fc_experiment(cfg)
        means[rate] = rec.mean_tau
        errors[rate] = rec.error_rate
    ok = (means[ExplorationRate.ITERATED_LOG] < means[ExplorationRate.ROBBINS_LOG_T]
          and errors[ExplorationRate.ITERATED_LOG] <= 0.01
          and errors[ExplorationRate.ROBBINS_LOG_T] <= 0.01
          and means[ExplorationRate.PLAIN_LOG] < means[ExplorationRate.ITERATED_LOG])
    detail = ", ".join(f"{r.value}: tau={means[r]:.2f} err={errors[r]}"
                       for r in means)
    report(10, ok, detail)
