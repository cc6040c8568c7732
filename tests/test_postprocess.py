"""Alignment and clustering against grid-search and enumeration oracles."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionshrink import postprocess
from fusionshrink.postprocess import (
    align_modes,
    kmeans_rows,
    misclustering_loss,
    rand_index,
    row_normalize,
    sequential_align,
    solve_procrustes,
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


@pytest.mark.parametrize("sizes", [(5,), (4, 3)])
def test_align_modes_is_one_alignment_of_the_stacked_rows(sizes):
    rng = np.random.default_rng(8)
    paths = [rng.standard_normal((n, 6, 2)) for n in sizes]
    stacked = np.concatenate([p.transpose(1, 0, 2) for p in paths], axis=1)
    expected, _ = sequential_align(stacked)
    aligned = align_modes(paths)
    assert [a.shape for a in aligned] == [p.shape for p in paths]
    got = np.concatenate([a.transpose(1, 0, 2) for a in aligned], axis=1)
    np.testing.assert_array_equal(got, expected)
    if len(paths) == 2:  # one shared rotation keeps every U_t V_t'
        np.testing.assert_allclose(
            np.einsum("itk,jtk->tij", *aligned),
            np.einsum("itk,jtk->tij", *paths),
            atol=1e-12,
        )


def test_align_modes_undefined_beyond_two_modes():
    assert align_modes([np.ones((3, 4, 2))] * 3) is None


def test_sequential_align_preserves_gram():
    rng = np.random.default_rng(6)
    traj = rng.standard_normal((5, 4, 3))
    aligned, rots = sequential_align(traj)
    for t in range(5):
        np.testing.assert_allclose(
            aligned[t] @ aligned[t].T, traj[t] @ traj[t].T, atol=1e-12
        )
        np.testing.assert_allclose(rots[t].T @ rots[t], np.eye(3), atol=1e-12)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_rows(bad):
    # Before, one NaN or inf gave a NaN center, inertia nan and arbitrary
    # labels.
    X = np.random.default_rng(13).standard_normal((10, 2))
    X[4, 1] = bad
    with pytest.raises(ValueError, match="rows must be finite"):
        kmeans_rows(X, 3)


def test_kmeans_fills_empty_clusters():
    X = np.zeros((6, 2))
    labels, _, _ = kmeans_rows(X, 2, seed=0)
    assert set(labels) == {0, 1}


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_refill_never_empties_a_singleton(seed):
    # Two distinct rows, three copies each, k = 4: the farthest point of a
    # refill used to be a singleton's only member, leaving a NaN center.
    X = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 3)
    labels, centers, inertia = kmeans_rows(X, 4, seed=seed)
    assert np.isfinite(centers).all() and np.isfinite(inertia)
    assert set(labels.tolist()) == set(range(4))
    ref_labels, ref_centers, ref_inertia = kmeans_rows_reference(X, 4, seed=seed)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(centers, ref_centers)
    assert inertia == ref_inertia


def test_kmeans_duplicated_rows_panel():
    """Rounded and duplicated rows with k up to 6: every center finite,
    every label used, and the bits of the restart loop."""
    rng = np.random.default_rng(21)
    for case in range(60):
        n = int(rng.integers(6, 16))
        distinct = int(rng.integers(1, 5))
        base = np.round(rng.standard_normal((distinct, 2)), 1)
        X = base[rng.integers(distinct, size=n)]
        k = int(rng.integers(1, 7))
        labels, centers, inertia = kmeans_rows(X, k, restarts=3, seed=case)
        assert np.isfinite(centers).all() and np.isfinite(inertia), case
        assert set(labels.tolist()) == set(range(k)), case
        ref = kmeans_rows_reference(X, k, restarts=3, seed=case)
        np.testing.assert_array_equal(labels, ref[0])
        np.testing.assert_array_equal(centers, ref[1])
        assert inertia == ref[2]


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
                    # Only a cluster with two or more members gives a point.
                    sizes = np.array([np.sum(labels == c) for c in range(k)])
                    movable = np.flatnonzero(sizes[labels] >= 2)
                    far = int(movable[np.argmax(point_cost[movable])])
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
        total = w.sum(keepdims=True)
        pick = postprocess._pp_draw(w, total, np.asarray(b.random()))
        assert int(pick) == int(a.choice(n, p=w / total))
    assert a.random() == b.random()


def test_kmeans_pp_draw_counts_like_searchsorted_right():
    # Rows drawn at once, with ties: zero weights repeat a cdf value, and
    # half the uniforms equal a value of their row's cdf.
    rng = np.random.default_rng(15)
    w = rng.random((200, 12)) * (rng.random((200, 12)) < 0.6)
    w[:, 0] += 1e-3
    total = w.sum(axis=1, keepdims=True)
    cdf = (w / total).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(200)
    tie = rng.random(200) < 0.5
    u[tie] = cdf[tie, rng.integers(12, size=tie.sum())]
    want = [cdf[r].searchsorted(u[r], "right") for r in range(200)]
    np.testing.assert_array_equal(postprocess._pp_draw(w, total, u), want)


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


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]


@st.composite
def kmeans_cases(draw):
    """Rows on a coarse grid (so duplicates occur, and -0.0) with k up to
    min(n, 6)."""
    n = draw(st.integers(1, 300))
    p = draw(st.sampled_from([1, 2, 3, 9]))
    levels = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(levels, size=(n, p)) * rng.choice([-0.5, 0.5], size=(n, p))
    k = draw(st.integers(1, min(n, 6)))
    restarts = draw(st.integers(1, 10))
    tol = draw(st.sampled_from([1e-8, 0.0]))
    return X, k, restarts, tol, draw(st.integers(0, 1000))


@settings(max_examples=200, deadline=None)
@given(kmeans_cases())
def test_kmeans_property_bit_for_bit(case):
    """n > 128 takes numpy's recursive pairwise row sums, p = 9 its
    unrolled column sum, few grid levels the per-restart seeding."""
    X, k, restarts, tol, seed = case
    assert_same_bits(
        kmeans_rows(X, k, restarts=restarts, tol=tol, seed=seed),
        kmeans_rows_reference(X, k, restarts=restarts, tol=tol, seed=seed),
    )


def count_seeding_loops(monkeypatch):
    calls = []
    loop = postprocess._kmeans_pp_loop

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(postprocess, "_kmeans_pp_loop", counted)
    return calls


def test_kmeans_underflowing_distances_take_the_restart_loop(monkeypatch):
    # (1.5e-162)^2 underflows to 0 but (3e-162)^2 does not, so zero
    # distances are not transitive: whatever the first seed, every weight
    # is 0 before the third, though X holds three distinct rows.
    X = np.repeat([[0.0], [1.5e-162], [3e-162]], [4, 3, 5], axis=0)
    calls = count_seeding_loops(monkeypatch)
    for seed in range(5):
        got = kmeans_rows(X, 3, seed=seed)
        assert_same_bits(got, kmeans_rows_reference(X, 3, seed=seed))
    assert len(calls) == 5


def test_kmeans_distinct_rows_seed_all_restarts_together(monkeypatch):
    calls = count_seeding_loops(monkeypatch)
    X = row_normalize(np.random.default_rng(14).standard_normal((40, 2)))
    for seed in range(5):
        assert_same_bits(kmeans_rows(X, 4, seed=seed), kmeans_rows_reference(X, 4, seed=seed))
    assert calls == []


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
