"""Evaluation metrics shared by the engine, the baselines and the benchmark."""
from __future__ import annotations

import numpy as np


def rmse(est: np.ndarray, truth: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root mean squared error over all entries (or the masked subset)."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError("rmse requires matching shapes")
    sq = (est - truth) ** 2
    if mask is None:
        return float(np.sqrt(sq.mean()))
    mask = np.asarray(mask, dtype=float)
    total = mask.sum()
    if total == 0:
        raise ValueError("rmse over an empty mask")
    return float(np.sqrt((sq * mask).sum() / total))


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over flattened entries; constant input is an error."""
    x = np.asarray(a, dtype=float).ravel()
    y = np.asarray(b, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("pcc requires matching shapes")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0:
        raise ValueError("pcc undefined for zero-variance input")
    return float((xc * yc).sum() / denom)


def mann_whitney_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    """AUC of positive against negative scores: the share of (positive,
    negative) pairs ranked correctly, a tie counting one half (the
    Mann-Whitney U over n_pos n_neg); NaN if any score is NaN.

    Sort and count: each class is sorted, and every positive counts the
    negatives below it (`searchsorted` left) plus those at or below it
    (right).  U is half of that integer total, so it is exact and the same
    bits as the midrank formula (rank sum - n_pos (n_pos + 1) / 2).
    """
    pos = np.sort(pos)
    neg = np.sort(neg)
    if np.isnan(pos[-1]) or np.isnan(neg[-1]):  # NaN sorts last
        return float("nan")
    below = np.searchsorted(neg, pos, "left").sum()
    upto = np.searchsorted(neg, pos, "right").sum()
    return 0.5 * float(below + upto) / (pos.size * neg.size)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic
    (mann_whitney_auc)."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError("auc requires matching shapes")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary")
    pos = y == 1
    if pos.all() or not pos.any():
        raise ValueError("auc needs both classes present")
    return mann_whitney_auc(s[pos], s[~pos])


def discrepancy_matrix(slices: np.ndarray) -> np.ndarray:
    """Pairwise normalised squared Frobenius discrepancy between time slices:
    D[t1, t2] = ||P_t1 - P_t2||_F^2 / (||P_t1||_F ||P_t2||_F)."""
    P = np.asarray(slices, dtype=float)
    T = P.shape[0]
    flat = P.reshape(T, -1)
    norms = np.linalg.norm(flat, axis=1)
    if np.any(norms == 0):
        raise ValueError("discrepancy undefined for a zero slice")
    sq = (flat**2).sum(axis=1)
    gram = flat @ flat.T
    num = sq[:, None] + sq[None, :] - 2.0 * gram
    out = np.maximum(num, 0.0) / np.outer(norms, norms)
    np.fill_diagonal(out, 0.0)
    return out


def transition_norm_heatmap(trajectory: np.ndarray) -> np.ndarray:
    """Per-subject transition magnitudes ||u_{i,t+1} - u_{it}||_2.

    trajectory is time-major (T, n, d); returns (n, T-1).  Feed aligned
    factors, otherwise rotation drift masquerades as movement.
    """
    traj = np.asarray(trajectory, dtype=float)
    diff = traj[1:] - traj[:-1]  # (T-1, n, d)
    return np.linalg.norm(diff, axis=-1).T
