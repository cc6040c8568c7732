"""Metric definitions against direct recomputation and brute force."""
import numpy as np
import pytest
from scipy.stats import pearsonr, rankdata

from fusionshrink.metrics import (
    auc,
    discrepancy_matrix,
    pcc,
    rmse,
    transition_norm_heatmap,
)


def test_rmse_plugins_and_recomputation():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4, 5))
    assert rmse(a, a) == 0.0
    assert rmse(a + 1.0, a) == pytest.approx(1.0)
    b = rng.standard_normal(a.shape)
    direct = np.sqrt(np.mean((a - b) ** 2))
    assert rmse(a, b) == pytest.approx(direct, rel=1e-14)
    with pytest.raises(ValueError):
        rmse(a, b[0])


def test_rmse_masked():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.zeros((2, 2))
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert rmse(a, b, mask) == pytest.approx(np.sqrt((1.0 + 16.0) / 2))
    with pytest.raises(ValueError):
        rmse(a, b, np.zeros((2, 2)))


def test_pcc_plugins():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 5))
    assert pcc(a, a) == pytest.approx(1.0)
    assert pcc(a, -a + 3.0) == pytest.approx(-1.0)
    b = rng.standard_normal(a.shape)
    assert pcc(a, b) == pytest.approx(
        pearsonr(a.ravel(), b.ravel()).statistic, abs=1e-12
    )
    with pytest.raises(ValueError):
        pcc(a, np.full_like(a, 2.0))
    with pytest.raises(ValueError):
        pcc(a, b[0])


def test_auc_plugins_and_pairwise_brute_force():
    labels = np.array([0, 0, 1, 1])
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
    assert auc(np.full(4, 0.5), labels) == 0.5
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.integers(0, 2, 30)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(30), 1)  # coarse scores force ties
        pos, neg = s[y == 1], s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        brute = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert auc(s, y) == pytest.approx(brute, abs=1e-12)
    with pytest.raises(ValueError):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueError):
        auc(np.array([0.1, 0.2]), np.array([0, 2]))


def midrank_auc(scores, labels):
    """AUC from scipy's midranks of all scores, summed over the positives
    by boolean indexing: the rank-sum formula that sort-and-count replaced."""
    s, y = np.asarray(scores, dtype=float), np.asarray(labels)
    n_pos, n_neg = int(np.sum(y == 1)), int(np.sum(y == 0))
    ranks = rankdata(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_auc_matches_midrank_reference_on_ties_inf_nan():
    rng = np.random.default_rng(3)
    for size in (2, 7, 200, 1000):
        for _ in range(20):
            s = rng.integers(0, max(size // 4, 2), size).astype(float)
            y = rng.integers(0, 2, size)
            y[:2] = (0, 1)
            assert auc(s, y) == midrank_auc(s, y), size
    # Heavy ties, including -0.0 and 0.0, which compare equal, and
    # saturated or infinite scores.
    for size in (50, 79_200):
        y = rng.integers(0, 2, size)
        y[:2] = (0, 1)
        for levels in (
            (0.0,),
            (-0.0, 0.0),
            (-0.0, 0.0, 1.0),
            (-1.0, -0.0, 0.0, 0.5),
            (-np.inf, 0.0, 1.0, np.inf),
            (np.inf,),
        ):
            s = rng.choice(np.array(levels), size)
            assert auc(s, y) == midrank_auc(s, y), (size, levels)
    s = np.array([0.3, np.inf, 0.1, -np.inf])
    assert auc(s, [1, 1, 0, 0]) == 1.0
    assert auc(s, [0, 1, 1, 0]) == 0.75
    for where in (0, 1):  # a NaN among the positives or the negatives
        s = np.array([0.3, 0.2, 0.1, 0.4])
        s[where] = np.nan
        assert np.isnan(auc(s, [1, 0, 1, 0]))


def test_auc_matches_rankdata_formula_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        y = rng.integers(0, 2, 300)
        s = np.round(rng.random(300), 1)
        n_pos, n_neg = int(y.sum()), int((1 - y).sum())
        ranks = rankdata(s)
        expected = (ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert auc(s, y) == expected


def test_auc_equals_scatter_formula_bit_for_bit():
    # Sort and count gives U as half of an integer total, so the value must
    # be the same bits as the midrank sum scattered back to input order.
    rng = np.random.default_rng(5)
    for size in (2, 3, 50, 1000, 78_000, 100_000):
        for kind in ("continuous", "ties", "saturated"):
            y = rng.integers(0, 2, size).astype(float)
            y[:2] = (0.0, 1.0)
            s = rng.random(size)
            if kind == "ties":
                s = np.round(s, 1)
            elif kind == "saturated":
                s = np.where(s < 0.4, 0.0, np.where(s > 0.6, 1.0, s))
            assert auc(s, y) == midrank_auc(s, y), (size, kind)
            assert auc(s, y.astype(int)) == midrank_auc(s, y), (size, kind)
    s[size // 2] = np.nan
    assert np.isnan(auc(s, y))


def test_discrepancy_matrix():
    A = np.eye(2)
    same = discrepancy_matrix(np.stack([A, A, A]))
    np.testing.assert_allclose(same, np.zeros((3, 3)), atol=1e-15)
    # orthogonal unit-norm slices: ||P1 - P2||^2 = 2 when <P1, P2> = 0
    P1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    P2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    D = discrepancy_matrix(np.stack([P1, P2]))
    assert D[0, 1] == pytest.approx(2.0)
    assert D[1, 0] == pytest.approx(2.0)
    assert D[0, 0] == 0.0 and D[1, 1] == 0.0
    rng = np.random.default_rng(3)
    P = rng.standard_normal((4, 3, 3))
    D = rng_D = discrepancy_matrix(P)
    np.testing.assert_allclose(D, D.T, atol=1e-12)
    for t1 in range(4):
        for t2 in range(4):
            direct = np.sum((P[t1] - P[t2]) ** 2) / (
                np.linalg.norm(P[t1]) * np.linalg.norm(P[t2])
            )
            if t1 == t2:
                direct = 0.0
            assert D[t1, t2] == pytest.approx(direct, abs=1e-10)
    with pytest.raises(ValueError):
        discrepancy_matrix(np.stack([A, np.zeros((2, 2))]))


def test_transition_norm_heatmap():
    traj = np.zeros((4, 3, 2))
    np.testing.assert_array_equal(transition_norm_heatmap(traj), np.zeros((3, 3)))
    traj[2, 1, 0] = 1.0  # one unit jump for subject 1 between t=1 and t=2
    H = transition_norm_heatmap(traj)
    assert H.shape == (3, 3)
    assert H[1, 1] == 1.0 and H[1, 2] == 1.0  # jump in, jump back out
    assert H.sum() == 2.0


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 6, 6))
    b = rng.standard_normal((3, 6, 6))
    perm = rng.permutation(6)
    ap = a[:, perm][:, :, perm]
    bp = b[:, perm][:, :, perm]
    assert rmse(a, b) == pytest.approx(rmse(ap, bp), rel=1e-13)
    assert pcc(a, b) == pytest.approx(pcc(ap, bp), rel=1e-13)
