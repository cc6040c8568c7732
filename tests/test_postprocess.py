"""Alignment and clustering against grid-search and enumeration oracles."""
import itertools

import numpy as np
import pytest

from fusionshrink.postprocess import (
    kmeans_rows,
    misclustering_loss,
    rand_index,
    row_normalize,
    sequential_align,
    solve_procrustes,
    window_alignment_loss,
)


def rotation_grid_cost(A, B, step=1e-4):
    """Best ||A - B O||_F^2 over a dense grid of 2x2 rotations and
    reflections; the planar orthogonal group is one angle per component."""
    M = B.T @ A
    theta = np.arange(0.0, 2 * np.pi, step)
    c, s = np.cos(theta), np.sin(theta)
    base = np.sum(A * A) + np.sum(B * B)
    rot = c * (M[0, 0] + M[1, 1]) + s * (M[1, 0] - M[0, 1])
    ref = c * (M[0, 0] - M[1, 1]) + s * (M[0, 1] + M[1, 0])
    return base - 2.0 * max(rot.max(), ref.max())


def cost(A, B, O):
    return float(np.sum((A - B @ O) ** 2))


# ----- procrustes ---------------------------------------------------------------


def test_procrustes_identity_and_sign():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 3))
    np.testing.assert_allclose(solve_procrustes(A, A), np.eye(3), atol=1e-12)
    a = rng.standard_normal((4, 1))
    np.testing.assert_allclose(solve_procrustes(-a, a), [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(solve_procrustes(a, a), [[1.0]], atol=1e-12)


def test_procrustes_beats_angle_grid():
    rng = np.random.default_rng(1)
    for _ in range(5):
        A = rng.standard_normal((6, 2))
        B = rng.standard_normal((6, 2))
        O = solve_procrustes(A, B)
        np.testing.assert_allclose(O.T @ O, np.eye(2), atol=1e-12)
        assert cost(A, B, O) <= rotation_grid_cost(A, B) + 1e-6


def test_procrustes_recovers_planted_rotation():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((7, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    O = solve_procrustes(B @ q, B)
    np.testing.assert_allclose(O, q, atol=1e-10)


def test_procrustes_zero_and_rank_deficient():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 2))
    np.testing.assert_allclose(solve_procrustes(A, np.zeros_like(A)), np.eye(2))
    # rank-1 B: the solution stays orthogonal and optimal
    B = np.outer(rng.standard_normal(4), [1.0, 0.0])
    O = solve_procrustes(A, B)
    np.testing.assert_allclose(O.T @ O, np.eye(2), atol=1e-12)
    assert cost(A, B, O) <= rotation_grid_cost(A, B) + 1e-6


def test_procrustes_shape_mismatch():
    with pytest.raises(ValueError):
        solve_procrustes(np.zeros((3, 2)), np.zeros((4, 2)))


# ----- sequential alignment ------------------------------------------------------


def test_sequential_align_static_trajectory():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((5, 2))
    traj = np.broadcast_to(U, (4, 5, 2)).copy()
    aligned, rots = sequential_align(traj)
    np.testing.assert_allclose(aligned, traj, atol=1e-12)
    np.testing.assert_allclose(rots, np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-12)


def test_sequential_align_undoes_rotations():
    rng = np.random.default_rng(5)
    U = rng.standard_normal((6, 2))
    traj = np.empty((3, 6, 2))
    traj[0] = U
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    traj[1] = U @ q1
    traj[2] = U @ q2
    aligned, rots = sequential_align(traj)
    np.testing.assert_allclose(rots[0], np.eye(2))
    for t in range(3):
        np.testing.assert_allclose(aligned[t], U, atol=1e-10)


def test_sequential_align_preserves_gram():
    rng = np.random.default_rng(6)
    traj = rng.standard_normal((5, 4, 3))
    aligned, rots = sequential_align(traj)
    for t in range(5):
        np.testing.assert_allclose(
            aligned[t] @ aligned[t].T, traj[t] @ traj[t].T, atol=1e-12
        )
        np.testing.assert_allclose(rots[t].T @ rots[t], np.eye(3), atol=1e-12)


def test_window_alignment_loss():
    rng = np.random.default_rng(7)
    truth = rng.standard_normal((3, 5, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    est = truth @ q.T
    assert window_alignment_loss(est, truth) == pytest.approx(0.0, abs=1e-18)
    est2 = est + 0.1
    A = est2.reshape(-1, 2)
    B = truth.reshape(-1, 2)
    assert window_alignment_loss(est2, truth) <= rotation_grid_cost(A, B) + 1e-6


# ----- normalisation --------------------------------------------------------------


def test_row_normalize():
    X = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
    out = row_normalize(X)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_allclose(out[1], [0.0, 0.0])
    np.testing.assert_allclose(out[2], [0.0, -1.0])
    stack = np.broadcast_to(X, (4, 3, 2))
    np.testing.assert_allclose(row_normalize(stack)[2], out)


# ----- kmeans ----------------------------------------------------------------------


def test_kmeans_two_clear_pairs():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    labels, centers, inertia = kmeans_rows(X, 2, seed=0)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert inertia == pytest.approx(0.01, abs=1e-12)


def test_kmeans_k_equals_n_and_k_one():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 2))
    _, _, inertia = kmeans_rows(X, 5, seed=1)
    assert inertia == pytest.approx(0.0, abs=1e-20)
    labels, centers, inertia = kmeans_rows(X, 1, seed=1)
    np.testing.assert_allclose(centers[0], X.mean(axis=0), atol=1e-12)
    assert inertia == pytest.approx(np.sum((X - X.mean(axis=0)) ** 2))


def test_kmeans_matches_exhaustive_bipartition():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((8, 2))
    best = np.inf
    for assign in itertools.product([0, 1], repeat=7):
        labels = np.array((0,) + assign)
        if labels.max() == 0:
            continue
        ss = 0.0
        for j in (0, 1):
            pts = X[labels == j]
            ss += np.sum((pts - pts.mean(axis=0)) ** 2)
        best = min(best, ss)
    _, _, inertia = kmeans_rows(X, 2, restarts=20, seed=2)
    assert inertia == pytest.approx(best, rel=1e-10)


def test_kmeans_deterministic_and_validates():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 3))
    l1, c1, i1 = kmeans_rows(X, 3, seed=7)
    l2, c2, i2 = kmeans_rows(X, 3, seed=7)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(c1, c2)
    assert i1 == i2
    with pytest.raises(ValueError):
        kmeans_rows(X, 0)
    with pytest.raises(ValueError):
        kmeans_rows(X, 11)
    for bad in ({"restarts": 0}, {"iters": 0}):
        with pytest.raises(ValueError, match="restarts and iters"):
            kmeans_rows(X, 3, **bad)


def test_kmeans_fills_empty_clusters():
    X = np.zeros((6, 2))
    labels, _, _ = kmeans_rows(X, 2, seed=0)
    assert set(labels) == {0, 1}


def kmeans_pp_reference(X, k, rng):
    """k-means++ seeding with `rng.choice` for the weighted draws."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0:
            centers[j] = X[int(rng.integers(n))]
            continue
        centers[j] = X[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def kmeans_rows_reference(X, k, restarts=10, iters=100, tol=1e-8, seed=0):
    """kmeans_rows as one restart after another, each a loop of Lloyd
    iterations with per-cluster refills and means: the reference that the
    batched restarts must equal bit for bit."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    for _ in range(restarts):
        centers = kmeans_pp_reference(X, k, rng)
        prev_inertia = np.inf
        for _ in range(iters):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(d2, axis=1)
            point_cost = d2[np.arange(n), labels]
            for j in range(k):
                if not np.any(labels == j):
                    far = int(np.argmax(point_cost))
                    labels[far] = j
                    point_cost[far] = 0.0
            for j in range(k):
                centers[j] = X[labels == j].mean(axis=0)
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            inertia = float(d2[np.arange(n), labels].sum())
            if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
                break
            prev_inertia = inertia
        if best is None or inertia < best[0]:
            best = (inertia, labels.copy(), centers.copy())
    inertia, labels, centers = best
    return labels, centers, inertia


def test_kmeans_pp_draw_is_generator_choice():
    # The cumulative-sum draw must pick the index rng.choice picks and leave
    # the stream where rng.choice leaves it.
    rng = np.random.default_rng(11)
    a = np.random.Generator(np.random.Philox(5))
    b = np.random.Generator(np.random.Philox(5))
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        w = rng.random(n) * (rng.random(n) < 0.7)
        w[rng.integers(n)] += 1e-3
        probs = w / w.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert int(cdf.searchsorted(b.random(), "right")) == int(a.choice(n, p=probs))
    assert a.random() == b.random()


@pytest.mark.parametrize(
    "case", ["gaussian", "duplicates", "two_points", "one_column", "iterating", "k_is_n"]
)
def test_kmeans_equals_restart_loop_bit_for_bit(case):
    """Labels, centers and inertia of the batched restarts are the bits of
    the restart loop.  `duplicates` and `two_points` take the seeding's
    total == 0 branch and refill emptied clusters; `iterating` (tol = 0)
    runs several Lloyd iterations, stopping at different ones per run."""
    rng = np.random.default_rng(12)
    k, tol = 4, 1e-8
    if case == "gaussian":
        X = rng.standard_normal((40, 2)) + np.repeat(rng.standard_normal((4, 2)), 10, 0)
    elif case == "duplicates":
        X = np.round(rng.standard_normal((30, 2)))
    elif case == "two_points":
        X, k = np.repeat(rng.standard_normal((2, 3)), [7, 5], axis=0), 3
    elif case == "one_column":
        X = rng.standard_normal((60, 1))
    elif case == "iterating":
        X, tol = rng.standard_normal((50, 3)), 0.0
    else:
        X, k = rng.standard_normal((6, 2)), 6
    for seed in range(5):
        got = kmeans_rows(X, k, tol=tol, seed=seed)
        want = kmeans_rows_reference(X, k, tol=tol, seed=seed)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]


# ----- label metrics ----------------------------------------------------------------


def test_misclustering_examples():
    assert misclustering_loss([0, 0, 1, 1], [0, 1, 1, 1], 2) == 1
    assert misclustering_loss([0, 0, 1, 1], [1, 1, 0, 0], 2) == 0
    assert misclustering_loss([0, 1, 2], [2, 0, 1], 3) == 0
    with pytest.raises(ValueError):
        misclustering_loss([0, 1], [0, 1, 1], 2)
    with pytest.raises(ValueError):
        misclustering_loss([0, 2], [0, 1], 2)


def test_misclustering_matches_permutation_oracle():
    rng = np.random.default_rng(11)
    k = 3
    for _ in range(20):
        est = rng.integers(0, k, 10)
        truth = rng.integers(0, k, 10)
        brute = min(
            int(np.sum(np.asarray([perm[e] for e in est]) != truth))
            for perm in itertools.permutations(range(k))
        )
        assert misclustering_loss(est, truth, k) == brute


def test_rand_index_examples():
    assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(1.0 / 3.0)
    assert rand_index([0, 1, 2], [5, 5, 5]) == pytest.approx(0.0)
    assert rand_index([0, 0, 1, 1], [3, 3, 7, 7]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rand_index([0], [0])
    with pytest.raises(ValueError):
        rand_index([0, 1], [0, 1, 2])


def set_partitions(n):
    """All partitions of range(n) as restricted growth strings."""
    def rec(prefix, blocks):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for b in range(blocks + 1):
            yield from rec(prefix + [b], max(blocks, b + 1))

    yield from rec([], 0)


def test_rand_index_matches_pair_enumeration():
    n = 5
    parts = list(set_partitions(n))
    pairs = list(itertools.combinations(range(n), 2))
    for a in parts[::3]:
        for b in parts[::3]:
            agree = sum(
                ((a[i] == a[j]) == (b[i] == b[j])) for i, j in pairs
            )
            assert rand_index(np.array(a), np.array(b)) == pytest.approx(
                agree / len(pairs)
            )
