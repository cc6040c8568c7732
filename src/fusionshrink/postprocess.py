"""Rotation alignment and clustering of fitted factor trajectories.

The factorization is identified only up to a per-time orthogonal map, so
trajectories are compared after sequential Procrustes alignment: the first
time point keeps the identity and each later one is rotated onto its
aligned predecessor.  Clustering works on (optionally row-normalised)
aligned factors with a deterministic seeded K-means.
"""
from __future__ import annotations

import numpy as np


def solve_procrustes(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthogonal O (rotation or reflection) minimising ||A - B O||_F.

    O is the polar factor of B'A.  When B'A is rank deficient the solution
    is not unique on the null space; the completion is chosen closest to
    the identity there (recursively the same Procrustes problem), which
    in particular maps B = 0 to O = I.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError("A and B must have the same shape")
    M = B.T @ A
    U, s, Vt = np.linalg.svd(M)
    d = M.shape[0]
    tol = max(M.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    r = int(np.sum(s > tol))
    if r == d:
        return U @ Vt
    core = U[:, :r] @ Vt[:r]
    # Null-space bases of M on both sides; rotate them onto each other as
    # little as possible (Procrustes toward I restricted to the null space).
    NU = U[:, r:]
    NV = Vt[r:].T
    W, _, Zt = np.linalg.svd(NU.T @ NV)
    return core + NU @ (W @ Zt) @ NV.T


def sequential_align(
    trajectory: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Align a time-major (T, n, d) factor stack; O_1 = I and
    O_t = argmin ||U_{t-1} O_{t-1} - U_t O||_F for t >= 2.

    Returns (aligned stack, rotations (T, d, d))."""
    traj = np.asarray(trajectory, dtype=float)
    T, _, d = traj.shape
    aligned = np.empty_like(traj)
    rots = np.empty((T, d, d))
    rots[0] = np.eye(d)
    aligned[0] = traj[0]
    for t in range(1, T):
        rots[t] = solve_procrustes(aligned[t - 1], traj[t])
        aligned[t] = traj[t] @ rots[t]
    return aligned, rots


def align_modes(paths: list[np.ndarray]) -> list[np.ndarray] | None:
    """Rotation-resolved subject-major (n_m, T, d) paths of a fit's latent
    modes, or None where no shared rotation is defined (more than two
    modes).

    One mode is aligned alone.  Two modes share one rotation per time,
    fitted on their rows stacked: M_t = U_t V_t' is unchanged only when
    both factors turn by the same O."""
    if len(paths) > 2:
        return None
    stacked = np.concatenate([p.transpose(1, 0, 2) for p in paths], axis=1)
    aligned, _ = sequential_align(stacked)
    splits = np.cumsum([p.shape[0] for p in paths])[:-1]
    return [a.transpose(1, 0, 2) for a in np.split(aligned, splits, axis=1)]


def row_normalize(X: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; zero rows stay zero."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return X / safe


def _kmeans_pp_centers(
    X: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeds (Arthur & Vassilvitskii, SODA 2007).  A weighted
    draw is the one `rng.choice(n, p=d2 / total)` makes: the first index
    whose normalised cumulative weight exceeds `rng.random()`."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centers[j] = X[int(rng.integers(n))]
            continue
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        centers[j] = X[int(cdf.searchsorted(rng.random(), "right"))]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _farthest_movable(labels: np.ndarray, cost: np.ndarray, k: int) -> int:
    """The first point of largest cost among those whose cluster keeps a
    member without it (one exists while a cluster is empty and k <= n)."""
    movable = np.bincount(labels, minlength=k)[labels] >= 2
    return int(np.argmax(np.where(movable, cost, -1.0)))


def kmeans_rows(
    X: np.ndarray,
    k: int,
    restarts: int = 10,
    iters: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd's K-means with k-means++ seeding and a fixed RNG.

    Deterministic given (X, k, restarts, seed); returns the best of
    `restarts` runs as (labels, centers, within-cluster sum of squares).
    An emptied cluster is refilled with the point farthest from its center
    among the clusters of two or more members, so every cluster is
    nonempty in the result.

    The restarts are seeded one after another from one RNG stream; their
    Lloyd iterations then run together as arrays over the runs that have
    not yet stopped, each run with its own stop test.  A center is the
    mean of its members summed as `X[members].sum(axis=0)` sums them: in
    row order for two or more columns, where the other rows add -0.0, which
    changes no sum.  So each run gives the bits of running it alone.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= number of rows")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    centers = np.stack([_kmeans_pp_centers(X, k, rng) for _ in range(restarts)])
    labels = np.empty((restarts, n), dtype=np.intp)
    inertia = np.empty(restarts)
    prev_inertia = np.full(restarts, np.inf)
    runs = np.arange(restarts)
    clusters = np.arange(k)[:, None]
    for _ in range(iters):
        if not runs.size:
            break
        d2 = ((X[:, None, :] - centers[runs, None, :, :]) ** 2).sum(axis=3)
        lab = np.argmin(d2, axis=2)
        point_cost = np.take_along_axis(d2, lab[:, :, None], axis=2)[:, :, 0]
        members = lab[:, None, :] == clusters  # (runs, k, n)
        for r in np.flatnonzero(~members.any(axis=2).all(axis=1)):
            for j in range(k):
                if not np.any(lab[r] == j):
                    far = _farthest_movable(lab[r], point_cost[r], k)
                    lab[r, far] = j
                    point_cost[r, far] = 0.0
            members[r] = lab[r] == clusters
        if X.shape[1] > 1:
            sums = np.where(members[..., None], X, -0.0).sum(axis=2)
        else:  # numpy sums one column pairwise, which padding would regroup
            sums = np.array([[X[m].sum(axis=0) for m in run] for run in members])
        centers[runs] = sums / members.sum(axis=2)[..., None]
        d2 = ((X[:, None, :] - centers[runs, None, :, :]) ** 2).sum(axis=3)
        labels[runs] = lab
        cost = np.take_along_axis(d2, lab[:, :, None], axis=2)[:, :, 0]
        inertia[runs] = cost.sum(axis=1)
        prev, now = prev_inertia[runs], inertia[runs]
        with np.errstate(invalid="ignore"):  # tol = 0 times the first inf
            stop = prev - now <= tol * np.maximum(prev, 1.0)
        prev_inertia[runs] = now
        runs = runs[~stop]
    best = 0
    for r in range(1, restarts):  # the first strict minimum, NaN never after
        if inertia[r] < inertia[best]:
            best = r
    return labels[best], centers[best], float(inertia[best])


def misclustering_loss(est: np.ndarray, truth: np.ndarray, k: int) -> int:
    """Minimum label disagreements over all K! relabelings of `est`.

    Solved exactly as an assignment problem on the confusion matrix.
    """
    # Imported here, its only use, so `import fusionshrink` does not pay for
    # loading scipy.optimize.
    from scipy.optimize import linear_sum_assignment

    est = np.asarray(est, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if est.shape != truth.shape:
        raise ValueError("label vectors must have the same length")
    if est.min() < 0 or truth.min() < 0 or est.max() >= k or truth.max() >= k:
        raise ValueError("labels must lie in [0, k)")
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (est, truth), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return int(est.size - confusion[rows, cols].sum())


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of point pairs on which two partitions agree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("partitions must be equal-length vectors")
    n = a.size
    if n < 2:
        raise ValueError("rand index needs at least two points")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cont = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(cont, (ai, bi), 1)
    comb = lambda x: x * (x - 1) / 2.0
    same_both = comb(cont).sum()
    same_a = comb(cont.sum(axis=1)).sum()
    same_b = comb(cont.sum(axis=0)).sum()
    total = comb(n)
    return float((total + 2.0 * same_both - same_a - same_b) / total)
