"""Observation models and their Gaussian evidence (site) builders.

Three observation kinds share one inference engine:

- "gaussian-matrix": Y_t (n x p) = U_t V_t' + noise, two latent modes.
- "bernoulli-network": symmetric binary A_t (n x n), empty diagonal,
  logit P(Y_ijt = 1) = b + u_it' u_jt, one latent mode.
- "gaussian-tensor": order-M tensor with CP structure
  E[Y_t]_{i1..iM} = sum_l prod_m u^m_{i_m t, l}.

Each builder reduces its likelihood (raised to the fractional power alpha)
to per-time natural-parameter evidence for one latent mode, holding every
other factor at its current variational moments.  The Bernoulli case uses
the logistic tangent (quadratic) bound with per-edge tangent parameters
xi, so its sites are exact for the bounded likelihood.  The sites and the
intercept take the bound's curvature A(xi) (logistic_quad_coeff), which
the engine computes once per refresh of xi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scales import InverseGammaQ

KINDS = ("gaussian-matrix", "bernoulli-network", "gaussian-tensor")


@dataclass
class NormalQ:
    """Scalar Gaussian variational factor (used for the network intercept)."""

    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.var <= 0:
            raise ValueError("variance must be positive")

    @property
    def second_moment(self) -> float:
        return self.var + self.mean**2


@dataclass
class ObservationSet:
    """Observed data: values (T, *dims) plus an optional 0/1 mask.

    kind selects the likelihood; dims are the per-slice axis sizes.  For
    "bernoulli-network" the slices must be symmetric with a zero diagonal
    (the diagonal is structurally absent and ignored by every consumer).
    """

    kind: str
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown observation kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim < 3:
            raise ValueError("values must have shape (T, *dims)")
        if self.kind in ("gaussian-matrix", "bernoulli-network") and self.values.ndim != 3:
            raise ValueError(f"{self.kind} expects (T, n, p) values")
        if self.kind == "gaussian-tensor" and self.values.ndim < 4:
            raise ValueError("gaussian-tensor expects (T, n1, ..., nM) with M >= 3")
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            first = tuple(int(i) for i in bad[0])
            raise ValueError(
                f"values must be finite: {len(bad)} non-finite value(s), the "
                f"first {float(self.values[first])!r} at index {first} (time, ...)"
            )
        if self.mask is not None:
            self.mask = np.asarray(self.mask)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape must match values")
            if not np.isin(self.mask, (0, 1)).all():
                raise ValueError("mask entries must be 0 or 1")
            self.mask = self.mask.astype(float)
        if self.kind == "bernoulli-network":
            n, p = self.values.shape[1:]
            if n != p:
                raise ValueError("network slices must be square")
            offdiag = self.values[:, ~np.eye(n, dtype=bool)]
            if not np.isin(offdiag, (0.0, 1.0)).all():
                raise ValueError("network values must be binary off the diagonal")
            if np.any(np.einsum("tii->ti", self.values) != 0):
                raise ValueError("network diagonal must be zero (structurally absent)")
            if np.any(self.values != np.swapaxes(self.values, 1, 2)):
                raise ValueError("network slices must be symmetric")
            if self.mask is not None and np.any(
                self.mask != np.swapaxes(self.mask, 1, 2)
            ):
                raise ValueError("network mask must be symmetric")

    @property
    def horizon(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.values.shape[1:])

    @property
    def mode_sizes(self) -> tuple[int, ...]:
        """Sizes of the latent modes (the network has a single shared mode)."""
        if self.kind == "bernoulli-network":
            return (self.values.shape[1],)
        return self.dims

    def count_observed(self) -> float:
        """Number of observed cells; network counts each dyad once."""
        if self.kind == "bernoulli-network":
            n = self.values.shape[1]
            iu = np.triu_indices(n, k=1)
            if self.mask is None:
                return float(self.horizon * len(iu[0]))
            return float(self.mask[:, iu[0], iu[1]].sum())
        if self.mask is None:
            return float(self.values.size)
        return float(self.mask.sum())


@dataclass
class ModeMoments:
    """Current variational moments of one latent mode: per-subject,
    per-time means (n, T, d) and second moments E[u u'] (n, T, d, d)."""

    mean: np.ndarray
    second: np.ndarray


def logistic_quad_coeff(xi: np.ndarray | float) -> np.ndarray | float:
    """Curvature A(xi) = -tanh(xi/2) / (4 xi) of the logistic quadratic
    bound, with the removable singularity A(0) = -1/8 handled exactly."""
    x = np.asarray(xi, dtype=float)
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    out = np.where(small, -0.125 + x**2 / 96.0, -np.tanh(xs / 2.0) / (4.0 * xs))
    return out if out.ndim else float(out)


def logistic_quad_const(xi: np.ndarray | float) -> np.ndarray | float:
    """Constant C(xi) of the bound
    log p(y|x) >= A(xi) x^2 + (y - 1/2) x + C(xi), chosen so the bound is
    tight at x = +-xi:  C = xi/2 - log(1 + e^xi) + xi tanh(xi/2) / 4."""
    x = np.abs(np.asarray(xi, dtype=float))
    out = x / 2.0 - np.logaddexp(0.0, x) + x * np.tanh(x / 2.0) / 4.0
    return out if out.ndim else float(out)


def _noise_weight(noise_q: InverseGammaQ, alpha: float) -> float:
    return float(alpha * noise_q.mean_inverse)


def gaussian_matrix_sites(
    Y: np.ndarray,
    other: ModeMoments,
    noise_q: InverseGammaQ,
    alpha: float,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence for every row-subject of a dynamic matrix.

    Y is (T, n, p) and `other` holds the column-mode moments (p, T, d).
    Returns precisions (n, T, d, d) and shifts (n, T, d):

        P_it = alpha E[1/sigma^2] sum_j E[v_jt v_jt'],
        h_it = alpha E[1/sigma^2] sum_j Y_ijt E[v_jt],

    with sums over observed (i, j, t) cells only when a mask is given.
    To build column-mode sites, pass transposed slices and the row moments.
    """
    w = _noise_weight(noise_q, alpha)
    T, n, p = Y.shape
    mean_tpd = other.mean.transpose(1, 0, 2)  # (T, p, d)
    if mask is None:
        shared = other.second.sum(axis=0)  # (T, d, d)
        prec = np.broadcast_to(shared, (n,) + shared.shape).copy()
        shift = np.swapaxes(Y @ mean_tpd, 0, 1)
    else:
        prec = np.einsum("tij,jtab->itab", mask, other.second)
        shift = np.swapaxes((Y * mask) @ mean_tpd, 0, 1)
    return w * prec, w * shift


def pair_products(x: np.ndarray) -> np.ndarray:
    """Inner products of every pair of subjects at every time.

    x is (n, T, ...); its trailing axes are flattened, so E[u u'] (n, T, d, d)
    gives tr(E[u_it u_it'] E[u_jt u_jt']).  Returns (T, n, n) with
    [t, i, j] = <x_it, x_jt>, as one batched matmul of the time-major rows
    with their transpose.
    """
    n, T = x.shape[:2]
    rows = x.reshape(n, T, -1).transpose(1, 0, 2)  # (T, n, k)
    return rows @ rows.transpose(0, 2, 1)


def bernoulli_site_subject(
    Y: np.ndarray,
    moments: ModeMoments,
    curv: np.ndarray,
    subject: int,
    alpha: float,
    intercept_mean: float = 0.0,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence for one network subject under the tangent bound.

    Y and the curvature curv = A(xi) = logistic_quad_coeff(xi) are (T, n, n);
    sums run over partners j != subject (and the mask when given).  Returns
    (T, d, d) precision and (T, d) shift:

        P_it = -2 alpha sum_j A(xi_ijt) E[u_jt u_jt'],
        h_it = alpha sum_j (Y_ijt - 1/2 + 2 A(xi_ijt) mu_b) E[u_jt].
    """
    T, n, _ = Y.shape
    a = curv[:, subject, :]  # (T, n)
    wgt = np.ones((T, n))
    wgt[:, subject] = 0.0
    if mask is not None:
        wgt *= mask[:, subject, :]
    prec = -2.0 * alpha * np.einsum("tj,jtab->tab", a * wgt, moments.second)
    resid = (Y[:, subject, :] - 0.5 + 2.0 * a * intercept_mean) * wgt
    shift = alpha * np.einsum("tj,jtd->td", resid, moments.mean)
    return prec, shift


def xi_update(
    moments: ModeMoments, intercept_q: NormalQ | None = None
) -> np.ndarray:
    """Optimal tangent parameters xi_ijt = sqrt(E[(b + u_it' u_jt)^2]).

    E[(u'v)^2] = tr(E[uu'] E[vv']) for independent factors; the intercept
    adds E[b^2] + 2 mu_b mu_u' mu_v.  Returns (T, n, n) with unit diagonal
    (the diagonal is never consumed).
    """
    second = pair_products(moments.second)
    if intercept_q is not None:
        inner = pair_products(moments.mean)
        second = second + intercept_q.second_moment + 2.0 * intercept_q.mean * inner
    second = np.maximum(second, 0.0)
    xi = np.sqrt(second)
    n = xi.shape[1]
    xi[:, np.arange(n), np.arange(n)] = 1.0
    return xi


def intercept_update(
    Y: np.ndarray,
    moments: ModeMoments,
    curv: np.ndarray,
    alpha: float,
    prior_var: float = 100.0,
    mask: np.ndarray | None = None,
) -> NormalQ:
    """Network intercept factor under the tangent bound and a N(0, prior_var)
    prior, given the (T, n, n) curvature curv = A(xi) = logistic_quad_coeff(xi).
    Each dyad (i < j) contributes once:

        precision = 1/prior_var - 2 alpha sum A(xi),
        mean = var * alpha * sum (Y - 1/2 + 2 A(xi) E[u_i' u_j]).
    """
    T, n, _ = Y.shape
    iu = np.triu_indices(n, k=1)
    a = curv[:, iu[0], iu[1]]
    wgt = np.ones_like(a) if mask is None else mask[:, iu[0], iu[1]]
    inner = pair_products(moments.mean)[:, iu[0], iu[1]]
    prec = 1.0 / prior_var - 2.0 * alpha * np.sum(a * wgt)
    lin = alpha * np.sum((Y[:, iu[0], iu[1]] - 0.5 + 2.0 * a * inner) * wgt)
    return NormalQ(mean=lin / prec, var=1.0 / prec)


def hadamard_second_moment(
    e_aat: np.ndarray, mu_b: np.ndarray, sigma_b: np.ndarray
) -> np.ndarray:
    """Second moment of an elementwise product of independent vectors:

        E[(a o b)(a o b)'] = D(mu_b) E[aa'] D(mu_b) + E[aa'] o Sigma_b.

    Chaining this across CP modes gives the exact evidence curvature for
    tensors of any order.
    """
    d = np.asarray(mu_b, dtype=float)
    return e_aat * np.outer(d, d) + e_aat * np.asarray(sigma_b, dtype=float)


def _other_mode_rows(
    moments: list[ModeMoments], mode: int, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per multi-index moments of w = o_{m' != mode} u^{m'} at time t.

    Returns means (prod n_other, d) and second moments (prod n_other, d, d),
    rows ordered with the lowest-numbered mode's index fastest — the same
    order as flattening the tensor's other axes Fortran-style.
    """
    order = [m for m in range(len(moments)) if m != mode][::-1]
    first = order[0]
    mrows = moments[first].mean[:, t]  # (n, d)
    srows = moments[first].second[:, t]  # (n, d, d)
    for m in order[1:]:
        mm = moments[m].mean[:, t]
        sm = moments[m].second[:, t]
        d = mrows.shape[-1]
        mrows = (mrows[:, None, :] * mm[None, :, :]).reshape(-1, d)
        srows = (srows[:, None, :, :] * sm[None, :, :, :]).reshape(-1, d, d)
    return mrows, srows


def unfold(slice_t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-m unfolding: rows are the mode's fibres, columns run over the
    other modes with the lowest-numbered one fastest."""
    return np.moveaxis(slice_t, mode, 0).reshape(slice_t.shape[mode], -1, order="F")


def tensor_sites(
    Y: np.ndarray,
    moments: list[ModeMoments],
    noise_q: InverseGammaQ,
    alpha: float,
    mode: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence for every subject of one CP mode of a dynamic tensor.

    Y is (T, n_1, ..., n_M) with M >= 2; `moments` lists all M modes and
    `mode` picks the one being updated.  For each subject the remaining
    modes enter through w = o_{m' != mode} u^{m'} rows:

        P_it = alpha E[1/sigma^2] sum_w E[w w'],
        h_it = alpha E[1/sigma^2] sum_w Y E[w],

    where independence across modes gives E[w w'] as the elementwise
    product of the per-mode second moments (hadamard_second_moment chained).
    With M = 2 this reproduces gaussian_matrix_sites exactly.
    """
    n_modes = Y.ndim - 1
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for order-{n_modes} tensor")
    if len(moments) != n_modes:
        raise ValueError("need moments for every mode")
    if n_modes == 2:
        # Two modes are exactly the matrix model; delegate so both paths
        # agree bit for bit.
        if mode == 0:
            return gaussian_matrix_sites(Y, moments[1], noise_q, alpha, mask)
        swapped = None if mask is None else np.swapaxes(mask, 1, 2)
        return gaussian_matrix_sites(
            np.swapaxes(Y, 1, 2), moments[0], noise_q, alpha, swapped
        )
    w = _noise_weight(noise_q, alpha)
    T = Y.shape[0]
    n_m = Y.shape[1 + mode]
    d = moments[mode].mean.shape[-1]
    prec = np.empty((n_m, T, d, d))
    shift = np.empty((n_m, T, d))
    for t in range(T):
        mrows, srows = _other_mode_rows(moments, mode, t)
        yunf = unfold(Y[t], mode)
        if mask is None:
            prec[:, t] = srows.sum(axis=0)
            shift[:, t] = yunf @ mrows
        else:
            munf = unfold(mask[t], mode)
            prec[:, t] = np.einsum("ip,pab->iab", munf, srows)
            shift[:, t] = (yunf * munf) @ mrows
    return w * prec, w * shift


def predicted_moments(
    moments: list[ModeMoments], t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and second moment of every reconstructed cell at time t.

    Returns (E[m], E[m^2]) shaped like one data slice, where m is the inner
    product of the modes' latent rows.  Used by the noise update and the
    exact Gaussian objective.
    """
    sizes = tuple(mm.mean.shape[0] for mm in moments)
    mrows, srows = _other_mode_rows(moments, 0, t)  # modes 1..M-1
    m0 = moments[0].mean[:, t]
    s0 = moments[0].second[:, t]
    mean = m0 @ mrows.T  # (n_0, prod n_other), other modes lowest-fastest
    second = np.einsum("iab,pab->ip", s0, srows)
    # Invert unfold(mode=0): Fortran reshape restores the tensor layout.
    return mean.reshape(sizes, order="F"), second.reshape(sizes, order="F")


def expected_sse(obs: ObservationSet, moments: list[ModeMoments]) -> float:
    """sum over observed cells of E[(Y - m)^2] = Y^2 - 2 Y E[m] + E[m^2]."""
    total = 0.0
    for t in range(obs.horizon):
        mean, second = predicted_moments(moments, t)
        sq = obs.values[t] ** 2 - 2.0 * obs.values[t] * mean + second
        if obs.mask is not None:
            sq = sq * obs.mask[t]
        total += float(sq.sum())
    return total


def gaussian_noise_update(
    obs: ObservationSet,
    moments: list[ModeMoments],
    alpha: float,
    a_sigma: float,
    b_sigma: float,
) -> InverseGammaQ:
    """Fractional conjugate noise update
    IG(a + alpha N_obs / 2, b + alpha/2 sum_obs E[(Y - m)^2])."""
    total = expected_sse(obs, moments)
    n_obs = obs.count_observed()
    return InverseGammaQ(
        shape=a_sigma + 0.5 * alpha * n_obs, rate=b_sigma + 0.5 * alpha * total
    )
