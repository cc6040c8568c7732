"""Reference estimators the model is benchmarked against.

All of them are deterministic given their inputs (CP-ALS takes an explicit
seed).  The fused-lasso solver is the exact O(T) dynamic program over the
clipped derivative messages; the proximal-gradient variants exist to trace
convergence against it, not to replace it.
"""
from __future__ import annotations

import numpy as np

from .likelihoods import cp_stack, khatri_rao, unfold


def svd_rank_d(Y: np.ndarray, d: int) -> np.ndarray:
    """Best rank-d approximation of one matrix."""
    U, s, Vt = np.linalg.svd(np.asarray(Y, dtype=float), full_matrices=False)
    return (U[:, :d] * s[:d]) @ Vt[:d]


def svd_per_time(Ys: np.ndarray, d: int) -> np.ndarray:
    """Independent rank-d approximations per time slice (T, n, p)."""
    return np.stack([svd_rank_d(Y, d) for Y in Ys])


def optimal_hard_threshold_rank(Y: np.ndarray) -> int:
    """Rank selected by the optimal singular-value hard threshold for
    unknown noise: keep singular values above
    omega(beta) * median(s), omega(beta) = 0.56 b^3 - 0.95 b^2 + 1.82 b + 1.43
    with beta the aspect ratio min(n,p)/max(n,p)."""
    Y = np.asarray(Y, dtype=float)
    n, p = Y.shape
    beta = min(n, p) / max(n, p)
    omega = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    s = np.linalg.svd(Y, compute_uv=False)
    thresh = omega * np.median(s)
    return int(np.sum(s > thresh))


def svd_windowed(Ys: np.ndarray, t: int) -> np.ndarray:
    """Denoise slice t from the column-stacked window [Y_{t-1}, Y_t, Y_{t+1}]
    (two-slice windows at the boundaries), truncated at the hard-threshold
    rank of the stacked matrix; returns the block belonging to slice t."""
    T, n, p = Ys.shape
    if not 0 <= t < T:
        raise ValueError("time index out of range")
    lo = max(t - 1, 0)
    pos = t - lo
    stacked = np.concatenate(Ys[lo : t + 2], axis=1)
    rank = optimal_hard_threshold_rank(stacked)
    if rank == 0:
        return np.zeros((n, p))
    approx = svd_rank_d(stacked, rank)
    return approx[:, pos * p : (pos + 1) * p]


def svd_windowed_all(Ys: np.ndarray) -> np.ndarray:
    return np.stack([svd_windowed(Ys, t) for t in range(Ys.shape[0])])


# ----- fused lasso ----------------------------------------------------------


def fused_lasso_1d(y: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimiser of 0.5 sum (y_t - x_t)^2 + lam sum |x_{t+1} - x_t|.

    Dynamic programming over the piecewise-linear derivative of the
    forward value function: each step clips the derivative at +-lam and
    records the clip locations as back-pointers.  O(T) time and memory.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 0:
        return y.copy()
    if n == 1 or lam <= 0:
        return y.copy()
    # Knot positions of the derivative with slope/intercept increments.
    x = np.empty(2 * n)
    a = np.empty(2 * n)
    b = np.empty(2 * n)
    tm = np.empty(n - 1)  # lower clip value after each step
    tp = np.empty(n - 1)  # upper clip value
    tm[0] = y[0] - lam
    tp[0] = y[0] + lam
    lo_idx, hi_idx = n - 1, n
    x[lo_idx], x[hi_idx] = tm[0], tp[0]
    a[lo_idx], b[lo_idx] = 1.0, -y[0] + lam
    a[hi_idx], b[hi_idx] = -1.0, y[0] + lam
    afirst, bfirst = 1.0, -lam - y[1]
    alast, blast = -1.0, -lam + y[1]
    for k in range(1, n - 1):
        # Walk up from the left until the derivative exceeds -lam.
        alo, blo = afirst, bfirst
        ptr = lo_idx
        while ptr <= hi_idx and alo * x[ptr] + blo < -lam:
            alo += a[ptr]
            blo += b[ptr]
            ptr += 1
        tm[k] = (-lam - blo) / alo
        lo_idx = ptr - 1
        x[lo_idx] = tm[k]
        # Walk down from the right while the derivative still exceeds lam
        # (the right side stores negated coefficients).
        ahi, bhi = alast, blast
        ptr = hi_idx
        while ptr >= lo_idx and -ahi * x[ptr] - bhi > lam:
            ahi += a[ptr]
            bhi += b[ptr]
            ptr -= 1
        tp[k] = (lam + bhi) / (-ahi)
        hi_idx = ptr + 1
        x[hi_idx] = tp[k]
        a[lo_idx], b[lo_idx] = alo, blo + lam
        a[hi_idx], b[hi_idx] = ahi, bhi + lam
        afirst, bfirst = 1.0, -lam - y[k + 1]
        alast, blast = -1.0, -lam + y[k + 1]
    # Final minimisation: walk to the zero of the total derivative.
    alo, blo = afirst, bfirst
    ptr = lo_idx
    while ptr <= hi_idx and alo * x[ptr] + blo < 0:
        alo += a[ptr]
        blo += b[ptr]
        ptr += 1
    beta = np.empty(n)
    beta[n - 1] = -blo / alo
    for k in range(n - 2, -1, -1):
        beta[k] = np.clip(beta[k + 1], tm[k], tp[k])
    return beta


def fused_lasso_objective(y: np.ndarray, x: np.ndarray, lam: float) -> float:
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(0.5 * np.sum((y - x) ** 2) + lam * np.sum(np.abs(np.diff(x))))


def cv_fused_lasso(
    y: np.ndarray, lam_grid: np.ndarray, folds: int = 5
) -> tuple[np.ndarray, float]:
    """K-fold cross-validated fused lasso on one series.

    Folds interleave over time (t mod folds).  Each fold's model is fit on
    the remaining points treated as a contiguous series; held-out points
    are predicted by linear interpolation between the fitted values of
    their nearest training neighbours (nearest value at the ends).
    Returns (fit on all data at the best lambda, best lambda); ties pick
    the larger lambda.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    lam_grid = np.sort(np.asarray(lam_grid, dtype=float))
    if n < 3 or folds < 2:
        raise ValueError("need at least 3 points and 2 folds")
    folds = min(folds, n)
    fold_of = np.arange(n) % folds
    errors = np.zeros(lam_grid.size)
    for f in range(folds):
        train = np.where(fold_of != f)[0]
        test = np.where(fold_of == f)[0]
        if train.size < 2 or test.size == 0:
            continue
        for li, lam in enumerate(lam_grid):
            fit_train = fused_lasso_1d(y[train], lam)
            right = np.searchsorted(train, test)
            left = right - 1
            pred = np.empty(test.size)
            for j, t in enumerate(test):
                if left[j] < 0:
                    pred[j] = fit_train[0]
                elif right[j] >= train.size:
                    pred[j] = fit_train[-1]
                else:
                    t0, t1 = train[left[j]], train[right[j]]
                    w = (t - t0) / (t1 - t0)
                    pred[j] = (1 - w) * fit_train[left[j]] + w * fit_train[right[j]]
            errors[li] += float(np.sum((pred - y[test]) ** 2))
    best = lam_grid[np.flatnonzero(errors == errors.min())[-1]]
    return fused_lasso_1d(y, best), float(best)


def fused_lasso_matrix(
    Ys: np.ndarray, lam_grid: np.ndarray, folds: int = 5
) -> np.ndarray:
    """Componentwise cross-validated fused lasso over a (T, n, p) stack."""
    T, n, p = Ys.shape
    out = np.empty_like(np.asarray(Ys, dtype=float))
    for i in range(n):
        for j in range(p):
            out[:, i, j], _ = cv_fused_lasso(Ys[:, i, j], lam_grid, folds)
    return out


def fused_lasso_svd(
    Ys: np.ndarray, d: int, lam_grid: np.ndarray, folds: int = 5
) -> np.ndarray:
    """Componentwise fused lasso followed by per-time rank-d truncation."""
    smooth = fused_lasso_matrix(Ys, lam_grid, folds)
    return svd_per_time(smooth, d)


# ----- CP decomposition ------------------------------------------------------


def cp_als(
    Y: np.ndarray, d: int, iters: int = 100, seed: int = 0, jitter: float = 1e-8
) -> tuple[list[np.ndarray], list[float]]:
    """Rank-d CP decomposition of one tensor by alternating least squares.

    Factors start from a seeded Gaussian draw; each mode solves its
    Khatri-Rao normal equations with a ridge jitter when the Gram system
    is singular.  Returns (factors, residual-norm trace); the residual is
    non-increasing across half-sweeps because each mode update is an exact
    least-squares minimiser.
    """
    Y = np.asarray(Y, dtype=float)
    M = Y.ndim
    sizes = Y.shape
    rng = np.random.Generator(np.random.Philox(seed))
    factors = [rng.standard_normal((n_m, d)) for n_m in sizes]
    grams = [f.T @ f for f in factors]
    trace: list[float] = []
    norm_y = np.linalg.norm(Y)
    for _ in range(iters):
        for m in range(M):
            others = [k for k in range(M) if k != m]
            kr = khatri_rao([factors[k][:, None] for k in others])[0]
            unf = unfold(Y[None], m)[0]
            gram = np.ones((d, d))
            for k in others:
                gram = gram * grams[k]
            rhs = unf @ kr
            try:
                sol = np.linalg.solve(gram, rhs.T).T
            except np.linalg.LinAlgError:
                sol = np.linalg.solve(gram + jitter * np.eye(d), rhs.T).T
            factors[m] = sol
            grams[m] = sol.T @ sol
        # ||Y - reconstruction|| via the factored inner products.
        gram = np.ones((d, d))
        for k in range(M):
            gram = gram * grams[k]
        inner = float(np.sum(rhs * factors[M - 1]))
        resid_sq = max(norm_y**2 - 2.0 * inner + float(gram.sum()), 0.0)
        trace.append(float(np.sqrt(resid_sq)))
    return factors, trace


def cp_reconstruct(factors: list[np.ndarray]) -> np.ndarray:
    """The tensor sum_l prod_m A^m_l of (n_m, d) CP factors."""
    return cp_stack([f[:, None] for f in factors])[0]


def cp_per_time(
    Ys: np.ndarray, d: int, iters: int = 100, seed: int = 0
) -> np.ndarray:
    """Independent CP fits per time slice; returns reconstructed means."""
    return np.stack(
        [
            cp_reconstruct(cp_als(Ys[t], d, iters=iters, seed=seed + t)[0])
            for t in range(Ys.shape[0])
        ]
    )


# ----- proximal-gradient comparators ----------------------------------------


def l1_trendfilter_pg(
    y: np.ndarray,
    lam: float,
    iters: int = 1000,
    accelerated: bool = False,
) -> tuple[np.ndarray, list[float]]:
    """(Accelerated) proximal gradient on the fused-lasso objective in the
    difference parametrisation x = cumsum(theta), penalising theta[1:].

    Returns (x, per-iteration objective trace).  Plain ISTA descends
    monotonically; FISTA is faster but not monotone.  Exists to compare
    convergence traces against the exact dynamic program.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    theta = np.zeros(n)
    theta[0] = y[0]
    # Lipschitz constant of theta -> 0.5||y - cumsum(theta)||^2 is the
    # squared spectral norm of the running-sum operator.
    L = float(np.linalg.norm(np.tril(np.ones((n, n))), 2) ** 2)
    step = 1.0 / L
    momentum = theta.copy()
    t_acc = 1.0
    trace: list[float] = []
    for _ in range(iters):
        point = momentum if accelerated else theta
        resid = np.cumsum(point) - y
        grad = np.cumsum(resid[::-1])[::-1]
        z = point - step * grad
        new = np.empty_like(z)
        new[0] = z[0]
        new[1:] = np.sign(z[1:]) * np.maximum(np.abs(z[1:]) - step * lam, 0.0)
        if accelerated:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            momentum = new + ((t_acc - 1.0) / t_next) * (new - theta)
            t_acc = t_next
        theta = new
        x = np.cumsum(theta)
        trace.append(fused_lasso_objective(y, x, lam))
    return np.cumsum(theta), trace
