"""Synthetic data generators for the benchmark scenarios.

Every generator draws from a counter-based Philox RNG seeded explicitly,
with all draws in a fixed order, so a given seed reproduces the dataset
byte for byte.  The stored truth_means are computed from the stored
factors with the same floating-point expressions the model uses, so the
two are consistent to machine precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .likelihoods import ObservationSet, cp_stack, link_probs


@dataclass
class SyntheticDataset:
    observations: ObservationSet
    truth_factors: list[np.ndarray]  # per latent mode, (n_m, T, d)
    truth_means: np.ndarray  # (T, *dims)
    seed: int
    truth_labels: np.ndarray | None = None  # (T, n) cluster scenarios only


def _check_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _random_walk_jumps(
    rng: np.random.Generator, n: int, T: int, d: int, stay_prob: float, step: float
) -> np.ndarray:
    """Piecewise-constant increments: zero w.p. stay_prob, otherwise the
    all-equal vector +-step * 1_d with equal probability.  Returns the
    cumulative paths' increments of shape (T-1, n, d)."""
    move = rng.random((T - 1, n)) >= stay_prob
    sign = np.where(rng.random((T - 1, n)) < 0.5, 1.0, -1.0)
    return (move * sign * step)[..., None] * np.ones(d)


def _paths(start: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """start (n, d) plus cumulative jumps (T-1, n, d) -> (n, T, d)."""
    T = jumps.shape[0] + 1
    out = np.empty((start.shape[0], T, start.shape[1]))
    out[:, 0] = start
    if T > 1:
        out[:, 1:] = start[:, None, :] + np.cumsum(jumps, axis=0).transpose(1, 0, 2)
    return out


def gen_case1(
    n: int,
    p: int,
    T: int,
    d: int = 2,
    rho: float = 0.95,
    sigma: float = 0.3,
    seed: int = 0,
) -> SyntheticDataset:
    """Dynamic Gaussian matrix: rows and columns start at N(0, I_d) and
    jump by +-(1, ..., 1) with probability 1 - rho per step."""
    _check_sizes(n=n, p=p, T=T, d=d)
    _check_prob("rho", rho)
    _check_sigma(sigma)
    rng = _rng(seed)
    u0 = rng.standard_normal((n, d))
    v0 = rng.standard_normal((p, d))
    U = _paths(u0, _random_walk_jumps(rng, n, T, d, rho, 1.0))
    V = _paths(v0, _random_walk_jumps(rng, p, T, d, rho, 1.0))
    means = cp_stack([U, V])
    Y = means + sigma * rng.standard_normal(means.shape)
    obs = ObservationSet(kind="gaussian-matrix", values=Y)
    return SyntheticDataset(obs, [U, V], means, seed)


def _sample_network(
    rng: np.random.Generator, probs: np.ndarray
) -> np.ndarray:
    """Symmetric binary slices with empty diagonal from (T, n, n) probs."""
    T, n, _ = probs.shape
    iu = np.triu_indices(n, k=1)
    Y = np.zeros_like(probs)
    draws = rng.random((T, len(iu[0])))
    vals = (draws < probs[:, iu[0], iu[1]]).astype(float)
    Y[:, iu[0], iu[1]] = vals
    Y[:, iu[1], iu[0]] = vals
    return Y


def _network_probs(U: np.ndarray, intercept: float = 0.0) -> np.ndarray:
    """(n, T, d) factors -> (T, n, n) probabilities with zero diagonal."""
    return link_probs(intercept + np.einsum("itd,jtd->tij", U, U))


def gen_case2_network(
    n: int, T: int, rho: float = 0.9, seed: int = 0
) -> SyntheticDataset:
    """Dynamic binary network: positions start from the two-component
    mixture 0.5 N((1,0), I) + 0.5 N((-1,0), I) and jump by +-(0.25, 0.25)
    with probability 1 - rho; edges are Bernoulli(logistic(u_i' u_j))."""
    _check_sizes(n=n, T=T)
    _check_prob("rho", rho)
    d = 2
    rng = _rng(seed)
    comp = rng.random(n) < 0.5
    centers = np.where(comp[:, None], [1.0, 0.0], [-1.0, 0.0])
    u0 = centers + rng.standard_normal((n, d))
    U = _paths(u0, _random_walk_jumps(rng, n, T, d, rho, 0.25))
    probs = _network_probs(U)
    Y = _sample_network(rng, probs)
    obs = ObservationSet(kind="bernoulli-network", values=Y)
    return SyntheticDataset(obs, [U], probs, seed)


def gen_case3_tensor(
    dims: tuple[int, int, int],
    T: int,
    rho: float = 0.99,
    sigma: float = 0.3,
    seed: int = 0,
) -> SyntheticDataset:
    """Dynamic order-3 Gaussian tensor; every mode's rows start at
    N(0, I_2) and jump by +-(0.25, 0.25) with probability 1 - rho."""
    _check_sizes(**{f"dims[{m}]": n_m for m, n_m in enumerate(dims)}, T=T)
    _check_prob("rho", rho)
    _check_sigma(sigma)
    d = 2
    rng = _rng(seed)
    factors = []
    for n_m in dims:
        start = rng.standard_normal((n_m, d))
        factors.append(_paths(start, _random_walk_jumps(rng, n_m, T, d, rho, 0.25)))
    means = cp_stack(factors)
    Y = means + sigma * rng.standard_normal(means.shape)
    obs = ObservationSet(kind="gaussian-tensor", values=Y)
    return SyntheticDataset(obs, factors, means, seed)


def _corner_walk(
    rng: np.random.Generator,
    n: int,
    T: int,
    stay_prob: float,
    corners: np.ndarray,
    movers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Markov walk over corner indices: stay w.p. stay_prob, otherwise jump
    to one of the other three corners uniformly.  Only `movers` (all
    subjects when None) ever move.  Returns (labels (T, n), U (n, T, d))."""
    k = corners.shape[0]
    labels = np.empty((T, n), dtype=int)
    labels[0] = rng.integers(k, size=n)
    can_move = np.ones(n, dtype=bool) if movers is None else movers
    for t in range(1, T):
        move = (rng.random(n) >= stay_prob) & can_move
        hop = rng.integers(1, k, size=n)
        labels[t] = np.where(move, (labels[t - 1] + hop) % k, labels[t - 1])
    U = corners[labels].transpose(1, 0, 2)
    return labels, U


_CORNERS_2 = np.array(list(product((-2.0, 2.0), repeat=2)))
_CORNERS_1 = np.array(list(product((-1.0, 1.0), repeat=2)))


def gen_cluster_case(
    n: int, T: int, p_stay: float = 0.95, seed: int = 0
) -> SyntheticDataset:
    """Community network: positions sit on the corners of {-2, 2}^2, stay
    put w.p. p_stay else hop to another corner uniformly; edges are
    Bernoulli(logistic(-2 + u_i' u_j)).  truth_labels hold the corner
    index per (time, subject)."""
    _check_sizes(n=n, T=T)
    _check_prob("p_stay", p_stay)
    rng = _rng(seed)
    labels, U = _corner_walk(rng, n, T, p_stay, _CORNERS_2)
    probs = _network_probs(U, intercept=-2.0)
    Y = _sample_network(rng, probs)
    obs = ObservationSet(kind="bernoulli-network", values=Y)
    return SyntheticDataset(obs, [U], probs, seed, truth_labels=labels)


def gen_two_movers(
    n: int, T: int, transit_prob: float = 0.05, seed: int = 0
) -> SyntheticDataset:
    """Localisation probe: subjects sit on the corners of {-1, 1}^2; only
    subjects 0 and 1 ever move (w.p. transit_prob per step, uniformly to
    another corner); edges are Bernoulli(logistic(2 u_i' u_j))."""
    _check_sizes(n=n, T=T)
    _check_prob("transit_prob", transit_prob)
    rng = _rng(seed)
    movers = np.zeros(n, dtype=bool)
    movers[:2] = True
    labels, U = _corner_walk(rng, n, T, 1.0 - transit_prob, _CORNERS_1, movers)
    probs = link_probs(2.0 * np.einsum("itd,jtd->tij", U, U))
    Y = _sample_network(rng, probs)
    obs = ObservationSet(kind="bernoulli-network", values=Y)
    return SyntheticDataset(obs, [U], probs, seed, truth_labels=labels)
