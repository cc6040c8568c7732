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


def _sorted_midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of a 1-d array and its 1-based midranks in that order
    (tied values share the mean of their ranks); the ranks are all NaN if
    any entry is NaN."""
    # Any sort will do: every member of a tie group gets the group's mean.
    order = np.argsort(x)
    if np.isnan(x).any():
        return order, np.full(x.shape, np.nan)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    # A tie group at sorted positions start..end-1 holds ranks start+1..end.
    return order, np.repeat(0.5 * (starts + 1 + ends), ends - starts)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing the mean of their
    ranks; all NaN if any entry is NaN."""
    order, ranks_sorted = _sorted_midranks(x)
    ranks = np.empty(x.size)
    ranks[order] = ranks_sorted
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic (midranks).

    The positives' rank sum is taken in sorted order; its terms are
    half-integers far below 2**53, so every summation order gives the same
    value.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError("auc requires matching shapes")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    order, ranks = _sorted_midranks(s)
    rank_sum = ranks @ (y[order] == 1)
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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
