"""Correctness checks for the fit benchmark.

Every reference figure is computed here with plain numpy, apart from the
package: RMSE, AUC, Rand index and the per-time truncated SVD baseline.
Each check returns a list of failure messages; an empty list passes.
"""
from __future__ import annotations

import filecmp
from pathlib import Path

import numpy as np

NOISE_SD = 0.3  # generator noise level of both Gaussian workloads
RAND_MIN = 0.95  # per-time k-means against the true corners, averaged over time
TRACE_RTOL = 1e-9
ELBO_RTOL = 1e-9


def rmse(est: np.ndarray, ref: np.ndarray) -> float:
    sq = (np.asarray(est, dtype=float) - np.asarray(ref, dtype=float)) ** 2
    return float(np.sqrt(sq.mean()))


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with ties at midrank."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel() > 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    edges = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [scores.size]))
    midrank = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    ranks[order] = midrank
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Share of point pairs on which two partitions agree, by pair counting."""
    a = np.asarray(a)
    b = np.asarray(b)
    iu = np.triu_indices(a.size, k=1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    return float(np.mean(same_a == same_b))


def svd_per_time(Y: np.ndarray, d: int) -> np.ndarray:
    """Rank-d truncated SVD of every time slice."""
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return np.einsum("tik,tk,tkj->tij", U[..., :d], s[..., :d], Vt[..., :d, :])


def cp_means(factors: list[np.ndarray]) -> np.ndarray:
    """(T, n1, n2, n3) means of an order-3 CP model from (n_m, T, d) factors."""
    a, b, c = factors
    return np.einsum("itl,jtl,ktl->tijk", a, b, c)


def finite(**arrays) -> list[str]:
    return [
        f"{name} is not finite"
        for name, value in arrays.items()
        if not np.all(np.isfinite(np.asarray(value, dtype=float)))
    ]


def network_probs(pred: np.ndarray) -> list[str]:
    out = []
    if pred.min() < 0.0 or pred.max() > 1.0:
        out.append("predicted probabilities leave [0, 1]")
    if not np.array_equal(pred, np.swapaxes(pred, 1, 2)):
        out.append("predicted probabilities are not symmetric")
    if np.any(np.einsum("tii->ti", pred) != 0.0):
        out.append("predicted probabilities have a nonzero diagonal")
    return out


def final_trace(kind: str, trace_last: float, pred: np.ndarray, Y: np.ndarray) -> list[str]:
    """The engine's last recorded metric against its recomputation: in-sample
    RMSE, or training AUC over the upper triangle."""
    if kind == "bernoulli-network":
        iu = np.triu_indices(Y.shape[1], k=1)
        expect = auc(pred[:, iu[0], iu[1]], Y[:, iu[0], iu[1]])
    else:
        expect = rmse(pred, Y)
    if not abs(trace_last - expect) <= TRACE_RTOL * abs(expect):
        return [f"final trace {trace_last!r} differs from recomputed {expect!r}"]
    return []


def below_noise(value: float) -> list[str]:
    if not value < NOISE_SD:
        return [f"rmse_truth {value:.4g} is not below the noise sd {NOISE_SD}"]
    return []


def beats_svd(pred: np.ndarray, Y: np.ndarray, truth: np.ndarray, d: int) -> list[str]:
    fit_err = rmse(pred, truth)
    svd_err = rmse(svd_per_time(Y, d), truth)
    if not fit_err < svd_err:
        return [f"fit rmse {fit_err:.4g} does not beat per-time SVD {svd_err:.4g}"]
    return []


def rand_above(labels: np.ndarray, truth_labels: np.ndarray) -> list[str]:
    value = float(np.mean([rand_index(l, t) for l, t in zip(labels, truth_labels)]))
    if not value > RAND_MIN:
        return [f"mean Rand index {value:.4f} is not above {RAND_MIN}"]
    return []


def elbo_monotone(elbos: list[float]) -> list[str]:
    out = []
    for k in range(1, len(elbos)):
        prev, cur = elbos[k - 1], elbos[k]
        if cur < prev - ELBO_RTOL * abs(prev):
            out.append(f"ELBO fell after sweep {k}: {prev!r} -> {cur!r}")
    return out


def identical_dirs(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in Path(a).iterdir())
    names_b = sorted(p.name for p in Path(b).iterdir())
    if names_a != names_b:
        return [f"fit artifacts differ in file names: {names_a} vs {names_b}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"fit artifact {name} differs between two saves" for name in mismatch + errors]
