"""Conjugate inverse-gamma updates for the shrinkage hierarchy.

The random-walk increments carry a global-local scale product
tau_i^2 * lambda_{it}^2.  Both the local half-Cauchy scales lambda and the
global half-Cauchy scale tau are handled through the standard auxiliary
inverse-gamma augmentation

    lambda^2 | eta ~ IG(1/2, 1/eta),   eta ~ IG(1/2, 1),

which makes every coordinate update conjugate.  Each update below is the
exact mean-field coordinate optimum given the expectations it is fed; all
of them stay inverse-gamma, so the whole hierarchy is two arrays (shape,
rate) per factor.  Functions accept scalar or array-valued parameters and
broadcast elementwise, which is how the engine vectorises across subjects
and transitions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRECISION_FLOOR = 1e-12


@dataclass
class InverseGammaQ:
    """Inverse-gamma variational factor(s); fields broadcast elementwise."""

    shape: float | np.ndarray
    rate: float | np.ndarray

    def __post_init__(self) -> None:
        # min and max carry a NaN through, and it fails both comparisons.
        for value in (np.asarray(self.shape), np.asarray(self.rate)):
            if value.size and not (value.min() > 0 and value.max() < np.inf):
                raise ValueError("inverse-gamma shape and rate must be positive and finite")

    @property
    def mean_inverse(self) -> float | np.ndarray:
        """E[1/x] = shape / rate."""
        return self.shape / self.rate

    @property
    def mean_log(self) -> float | np.ndarray:
        """E[log x] = log(rate) - digamma(shape)."""
        from scipy.special import digamma

        return np.log(self.rate) - digamma(self.shape)

    @property
    def entropy(self) -> float | np.ndarray:
        from scipy.special import digamma, gammaln

        a, b = self.shape, self.rate
        return a + np.log(b) + gammaln(a) - (1.0 + a) * digamma(a)


def update_eta(lambda2_q: InverseGammaQ) -> InverseGammaQ:
    """Auxiliary update q(eta) = IG(1, 1 + E[1/lambda^2])."""
    e_inv = np.asarray(lambda2_q.mean_inverse)
    return InverseGammaQ(shape=np.ones_like(e_inv), rate=1.0 + e_inv)


def update_lambda2(
    eta_q: InverseGammaQ,
    e_trans_sq: float | np.ndarray,
    e_inv_tau2: float | np.ndarray,
    d: int,
) -> InverseGammaQ:
    """Local scale update
    q(lambda_t^2) = IG((d+1)/2, E[1/eta_t] + E||dtheta_t||^2 E[1/tau^2] / 2)."""
    e_inv_eta = np.asarray(eta_q.mean_inverse)
    rate = e_inv_eta + 0.5 * np.asarray(e_trans_sq) * np.asarray(e_inv_tau2)
    return InverseGammaQ(shape=np.full_like(rate, 0.5 * (d + 1)), rate=rate)


def update_tau2(
    lambda2_q: InverseGammaQ,
    e_trans_sqs: np.ndarray,
    d: int,
    tau_aux_q: InverseGammaQ,
) -> tuple[InverseGammaQ, InverseGammaQ]:
    """Global scale and its auxiliary.

    q(tau^2) = IG((d (T-1) + 1)/2,
                  E[1/xi] + sum_t E[1/lambda_t^2] E||dtheta_t||^2 / 2),
    then q(xi) = IG(1, 1 + E[1/tau^2]) using the fresh tau^2 factor.

    e_trans_sqs and the lambda2 factor arrays are indexed by transition on
    the last axis; leading axes batch over subjects.
    """
    e_trans = np.asarray(e_trans_sqs, dtype=float)
    n_trans = e_trans.shape[-1] if e_trans.ndim else 0
    e_inv_l = np.asarray(lambda2_q.mean_inverse)
    rate = np.asarray(tau_aux_q.mean_inverse) + 0.5 * np.sum(
        e_inv_l * e_trans, axis=-1
    )
    shape = np.full_like(rate, 0.5 * (d * n_trans + 1))
    tau2_q = InverseGammaQ(shape=shape, rate=rate)
    e_inv_tau = np.asarray(tau2_q.mean_inverse)
    aux_q = InverseGammaQ(shape=np.ones_like(e_inv_tau), rate=1.0 + e_inv_tau)
    return tau2_q, aux_q


def update_sigma0(
    e_norm_sq_theta1: float | np.ndarray, d: int, a0: float, b0: float
) -> InverseGammaQ:
    """Initial-variance update q(sigma_0^2) = IG(d/2 + a0, E||theta_1||^2/2 + b0)."""
    e_norm = np.asarray(e_norm_sq_theta1, dtype=float)
    return InverseGammaQ(shape=np.full_like(e_norm, 0.5 * d + a0), rate=0.5 * e_norm + b0)


def update_shared_transition_variance(
    all_e_trans_sqs: np.ndarray, n: int, horizon: int, d: int, a: float, b: float
) -> InverseGammaQ:
    """Shared transition variance for the plain random-walk prior:
    IG(a + n d (T-1)/2, b + sum_{i,t} E||dtheta_it||^2 / 2)."""
    total = float(np.sum(all_e_trans_sqs))
    return InverseGammaQ(shape=a + 0.5 * n * d * (horizon - 1), rate=b + 0.5 * total)


def transition_precisions(
    lambda2_q: InverseGammaQ, tau2_q: InverseGammaQ
) -> np.ndarray:
    """Expected transition precisions E[1/lambda^2] E[1/tau^2], floored so a
    fully shrunk (or never updated) factor cannot zero the chain prior."""
    rho = np.asarray(lambda2_q.mean_inverse) * np.asarray(tau2_q.mean_inverse)
    return np.maximum(rho, PRECISION_FLOOR)


def floored_precision(q: InverseGammaQ) -> float | np.ndarray:
    """E[1/x] with the same floor, for init and shared-variance precisions."""
    return np.maximum(np.asarray(q.mean_inverse), PRECISION_FLOOR)
