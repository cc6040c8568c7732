"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s`.  The scenario comparisons
(6 through 10) fit the model at full experiment scale, so this module takes
a few minutes; everything else is seconds.
"""
import itertools
import subprocess
import sys
import time
from statistics import median

import numpy as np
from scipy.integrate import quad

from fusionshrink.baselines import (
    fused_lasso_1d,
    fused_lasso_objective,
    l1_trendfilter_pg,
)
from fusionshrink.benchmark import (
    run_case1,
    run_case2,
    run_case3,
    run_cluster,
    run_two_movers,
)
from fusionshrink.chain import smooth_core
from fusionshrink.likelihoods import (
    khatri_rao,
    logistic_quad_coeff,
    logistic_quad_const,
)
from fusionshrink.postprocess import (
    misclustering_loss,
    rand_index,
    solve_procrustes,
)
from fusionshrink.scales import (
    InverseGammaQ,
    update_eta,
    update_lambda2,
    update_shared_transition_variance,
    update_sigma0,
    update_tau2,
)

from chain_reference import dense_joint_oracle


def verdict(num: int, name: str, ok: bool) -> None:
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


# ----- 1: chain smoother vs dense joint ------------------------------------------


def test_criterion_01_chain_smoother_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        rho0 = float(rng.uniform(0.1, 3.0))
        rhos = rng.uniform(0.1, 3.0, max(T - 1, 0))
        A = rng.standard_normal((T, d, d))
        P = np.einsum("tij,tkj->tik", A, A)
        h = rng.standard_normal((T, d))
        mean, cov, cross = smooth_core(rho0, rhos, P, h)
        mean_o, cov_o, cross_o = dense_joint_oracle(rho0, rhos, P, h)
        worst = max(
            worst,
            float(np.max(np.abs(mean - mean_o))),
            float(np.max(np.abs(cov - cov_o))),
            float(np.max(np.abs(cross - cross_o))) if T > 1 else 0.0,
        )
    elapsed = time.monotonic() - start
    verdict(1, "chain smoother matches dense joint", worst < 1e-8 and elapsed < 10.0)


# ----- 2: conjugate scale updates vs quadrature -----------------------------------


def ig_fit_by_quadrature(c_log: float, c_inv: float) -> tuple[float, float]:
    """Fit IG(shape, rate) to the density x^(-c_log) exp(-c_inv / x) by
    matching the first two moments of y = 1/x, which are finite for any
    positive parameters."""
    moments = []
    for k in range(3):
        val, _ = quad(
            lambda y, k=k: y ** (c_log - 2 + k) * np.exp(-c_inv * y),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=400,
        )
        moments.append(val)
    m1 = moments[1] / moments[0]
    var = moments[2] / moments[0] - m1**2
    shape = m1**2 / var
    rate = shape / m1
    return float(shape), float(rate)


def test_criterion_02_conjugate_updates_match_quadrature():
    rng = np.random.default_rng(1002)
    worst = 0.0

    def gap(q, c_log, c_inv):
        shape_ref, rate_ref = ig_fit_by_quadrature(c_log, c_inv)
        return max(
            abs(float(np.asarray(q.shape)) - shape_ref),
            abs(float(np.asarray(q.rate)) - rate_ref),
        )

    for _ in range(50):
        d = int(rng.integers(1, 4))
        lam = InverseGammaQ(rng.uniform(0.6, 4.0), rng.uniform(0.3, 4.0))
        eta = InverseGammaQ(rng.uniform(0.6, 4.0), rng.uniform(0.3, 4.0))
        aux = InverseGammaQ(rng.uniform(0.6, 4.0), rng.uniform(0.3, 4.0))
        e_trans = float(rng.uniform(0.05, 3.0))
        e_inv_tau = float(rng.uniform(0.2, 3.0))

        # eta | lambda^2: the half-Cauchy auxiliary.
        q = update_eta(lam)
        worst = max(worst, gap(q, 2.0, 1.0 + float(np.asarray(lam.mean_inverse))))

        # lambda^2 | eta, transition: IG(1/2, 1/eta) prior x one d-dim step.
        q = update_lambda2(eta, e_trans, e_inv_tau, d)
        c_inv = float(np.asarray(eta.mean_inverse)) + 0.5 * e_trans * e_inv_tau
        worst = max(worst, gap(q, 1.5 + 0.5 * d, c_inv))

        # tau^2 | xi, all transitions, then its fresh auxiliary.
        n_trans = int(rng.integers(1, 4))
        lam_vec = InverseGammaQ(
            rng.uniform(0.6, 4.0, n_trans), rng.uniform(0.3, 4.0, n_trans)
        )
        e_trans_vec = rng.uniform(0.05, 3.0, n_trans)
        tau_q, aux_q = update_tau2(lam_vec, e_trans_vec, d, aux)
        c_inv = float(np.asarray(aux.mean_inverse)) + 0.5 * float(
            np.sum(np.asarray(lam_vec.mean_inverse) * e_trans_vec)
        )
        c_log = 1.5 + 0.5 * d * n_trans
        worst = max(worst, gap(tau_q, c_log, c_inv))
        shape_ref, rate_ref = ig_fit_by_quadrature(c_log, c_inv)
        e_inv_ref = shape_ref / rate_ref
        worst = max(worst, gap(aux_q, 2.0, 1.0 + e_inv_ref))

        # sigma_0^2 | theta_1.
        e_norm = float(rng.uniform(0.05, 5.0))
        a0, b0 = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        q = update_sigma0(e_norm, d, a0, b0)
        worst = max(worst, gap(q, a0 + 1.0 + 0.5 * d, b0 + 0.5 * e_norm))

        # shared transition variance over n subjects and T-1 steps.
        n, T = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        totals = rng.uniform(0.05, 2.0, (n, T - 1))
        a, b = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
        q = update_shared_transition_variance(totals, n, T, d, a, b)
        c_log = a + 1.0 + 0.5 * n * d * (T - 1)
        worst = max(worst, gap(q, c_log, b + 0.5 * float(totals.sum())))

    verdict(2, "conjugate updates match quadrature", worst < 1e-5)


# ----- 3: hadamard second moment vs Monte Carlo ------------------------------------
# E[(a o b)(a o b)'] = E[aa'] o E[bb'] for independent a and b: the identity
# the tensor sites use, through khatri_rao of flattened second moments.


def test_criterion_03_hadamard_monte_carlo():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(10):
        d = 3
        mu_a, mu_b = rng.standard_normal((2, d))
        Aa, Ab = rng.standard_normal((2, d, d))
        Sa, Sb = 0.4 * Aa @ Aa.T, 0.4 * Ab @ Ab.T
        e_aat = (Sa + np.outer(mu_a, mu_a)).reshape(1, 1, d * d)
        e_bbt = (Sb + np.outer(mu_b, mu_b)).reshape(1, 1, d * d)
        expected = khatri_rao([e_aat, e_bbt]).reshape(d, d)
        m = 1_000_000
        a = rng.multivariate_normal(mu_a, Sa, size=m)
        b = rng.multivariate_normal(mu_b, Sb, size=m)
        ab = a * b
        mc = (ab.T @ ab) / m
        rel = np.linalg.norm(expected - mc) / np.linalg.norm(mc)
        ok = ok and rel < 0.01
    verdict(3, "hadamard second moment matches Monte Carlo", ok)


# ----- 4: logistic tangent bound -----------------------------------------------------


def test_criterion_04_tangent_bound():
    rng = np.random.default_rng(1004)
    grid = np.linspace(-6.0, 6.0, 200)
    ok = True
    for xi in rng.uniform(0.0, 8.0, 50):
        a, c = logistic_quad_coeff(xi), logistic_quad_const(xi)
        for y in (0.0, 1.0):
            bound = a * grid**2 + (y - 0.5) * grid + c
            exact = y * grid - np.logaddexp(0.0, grid)
            ok = ok and float((exact - bound).min()) >= -1e-12
            for x0 in (xi, -xi):
                gap = (y * x0 - np.logaddexp(0.0, x0)) - (
                    a * x0**2 + (y - 0.5) * x0 + c
                )
                ok = ok and abs(gap) < 1e-10
    verdict(4, "tangent bound touches at +-xi and lower-bounds", ok)


# ----- 5: exact fused lasso ------------------------------------------------------------


def test_criterion_05_fused_lasso_kkt_and_fista():
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        y = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.01, 2.0))
        x = fused_lasso_1d(y, lam)
        u = np.cumsum(y - x)
        dx = np.diff(x)
        ok = ok and abs(u[-1]) <= 1e-8
        ok = ok and float(np.max(np.abs(u[:-1]), initial=0.0)) <= lam + 1e-8
        ok = ok and np.all(np.abs(u[:-1][dx > 1e-9] + lam) <= 1e-8)
        ok = ok and np.all(np.abs(u[:-1][dx < -1e-9] - lam) <= 1e-8)
    y = np.repeat([0.0, 2.0, -1.0], 17)[:50] + 0.3 * rng.standard_normal(50)
    lam = 0.8
    exact = fused_lasso_objective(y, fused_lasso_1d(y, lam), lam)
    _, trace = l1_trendfilter_pg(y, lam, iters=5000, accelerated=True)
    ok = ok and trace[-1] <= exact + 1e-6
    verdict(5, "fused lasso passes KKT and FISTA reaches its objective", ok)


# ----- 6 through 10: scenario comparisons ---------------------------------------------


def medians(rows, metric):
    by = {}
    for r in rows:
        if r["metric"] == metric:
            by.setdefault(r["method"], []).append(r["value"])
    return {m: median(v) for m, v in by.items()}


def test_criterion_06_case1_rmse_ordering():
    start = time.monotonic()
    rows = run_case1(replicates=10, methods=("ffs", "svd1", "svd2"))
    elapsed = time.monotonic() - start
    med = medians(rows, "rmse")
    ok = med["ffs"] < med["svd1"] and med["ffs"] < med["svd2"] and elapsed < 900
    print(f"\n  case1 median rmse: {med} ({elapsed:.0f}s)")
    verdict(6, "dynamic matrix beats per-time and windowed SVD", ok)


def test_criterion_07_case2_pcc():
    rows = run_case2(replicates=10, methods=("ffs", "svd1"))
    med = medians(rows, "pcc")
    print(f"\n  case2 median pcc: {med}")
    verdict(7, "network beats SVD and reaches 0.90 PCC",
            med["ffs"] > med["svd1"] and med["ffs"] >= 0.90)


def test_criterion_08_case3_tensor_rmse():
    rows = run_case3(replicates=5)
    med = medians(rows, "rmse")
    print(f"\n  case3 median rmse: {med}")
    verdict(8, "dynamic tensor beats per-time CP", med["ffs"] < med["cp"])


def test_criterion_09_cluster_rand_index():
    rows = run_cluster(replicates=5)
    med = medians(rows, "rand_index")
    print(f"\n  cluster median rand index: {med}")
    verdict(9, "fused prior clusters no worse than shared-variance prior",
            med["ffs"] >= med["iglsm"])


def test_criterion_10_two_movers_identified():
    rows = run_two_movers(replicates=10)
    hits = sum(r["value"] for r in rows)
    print(f"\n  two movers identified in {int(hits)}/10 replicates")
    verdict(10, "moving subjects carry the largest transition norms", hits >= 8)


# ----- 11: post-processing vs enumeration ------------------------------------------------


def set_partitions(n):
    def rec(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))

    yield from rec([], 0)


def test_criterion_11_postprocessing_enumeration():
    rng = np.random.default_rng(1011)
    ok = True
    # Procrustes vs a dense angle grid over rotations and reflections.
    theta = np.arange(0.0, 2 * np.pi, 1e-4)
    c, s = np.cos(theta), np.sin(theta)
    for _ in range(25):
        A = rng.standard_normal((6, 2))
        B = rng.standard_normal((6, 2))
        M = B.T @ A
        base = np.sum(A * A) + np.sum(B * B)
        rot = c * (M[0, 0] + M[1, 1]) + s * (M[1, 0] - M[0, 1])
        ref = c * (M[0, 0] - M[1, 1]) + s * (M[0, 1] + M[1, 0])
        grid_best = base - 2.0 * max(rot.max(), ref.max())
        O = solve_procrustes(A, B)
        ok = ok and float(np.sum((A - B @ O) ** 2)) <= grid_best + 1e-6
    # rand index and misclustering against full enumeration, n <= 6.
    for n in range(2, 7):
        parts = [np.array(p) for p in set_partitions(n)]
        pairs = list(itertools.combinations(range(n), 2))
        perms_by_k = {
            k: np.array(list(itertools.permutations(range(k))))
            for k in range(1, n + 1)
        }
        for pa in parts:
            for pb in parts:
                agree = sum(
                    (pa[i] == pa[j]) == (pb[i] == pb[j]) for i, j in pairs
                )
                ok = ok and abs(rand_index(pa, pb) - agree / len(pairs)) < 1e-12
                k = int(max(pa.max(), pb.max())) + 1
                perms = perms_by_k[k]
                brute = int((perms[:, pa] != pb).sum(axis=1).min())
                ok = ok and misclustering_loss(pa, pb, k) == brute
        if not ok:
            break
    verdict(11, "post-processing matches grid and enumeration oracles", ok)


# ----- 12: CLI determinism ---------------------------------------------------------------


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fusionshrink.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def dir_bytes(path):
    return {
        p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()
    }


def test_criterion_12_cli_rerun_byte_identical(tmp_path):
    ok = True
    # simulate
    d1, d2 = tmp_path / "sim1", tmp_path / "sim2"
    for d in (d1, d2):
        run_cli("simulate", "--scenario", "case1", "--n", "6", "--T", "5",
                "--seed", "3", "--out", str(d))
    ok = ok and dir_bytes(d1) == dir_bytes(d2)
    # fit
    f1, f2 = tmp_path / "fit1", tmp_path / "fit2"
    for f in (f1, f2):
        run_cli("fit", "--data", str(d1), "--kind", "gaussian",
                "--max-cycles", "5", "--out", str(f))
    ok = ok and dir_bytes(f1) == dir_bytes(f2)
    # postprocess
    p1, p2 = tmp_path / "post1", tmp_path / "post2"
    for p in (p1, p2):
        run_cli("postprocess", "--fit", str(f1), "--align", "--normalize",
                "--kmeans", "2", "--out", str(p))
    ok = ok and dir_bytes(p1) == dir_bytes(p2)
    # benchmark (smallest full scenario)
    c1, c2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for c in (c1, c2):
        run_cli("benchmark", "--scenario", "two-movers", "--reps", "1",
                "--out", str(c))
    ok = ok and c1.read_bytes() == c2.read_bytes()
    verdict(12, "every CLI command reruns byte-identically", ok)
