"""Observation models and their Gaussian evidence (site) builders.

Three observation kinds share one inference engine:

- "gaussian-matrix": Y_t (n x p) = U_t V_t' + noise, two latent modes.
- "bernoulli-network": symmetric binary A_t (n x n), empty diagonal,
  logit P(Y_ijt = 1) = b + u_it' u_jt, one latent mode.
- "gaussian-tensor": order-M tensor with CP structure
  E[Y_t]_{i1..iM} = sum_l prod_m u^m_{i_m t, l}.

Each builder reduces its likelihood (raised to the fractional power alpha)
to per-time natural-parameter evidence for one latent mode, holding every
other factor at its current variational moments.  The CP layout lives here
and nowhere else: `khatri_rao` (the other modes' rows at every time, the
lowest-numbered mode fastest) and `unfold`/`fold` (Kolda & Bader's mode-m
unfolding of a (T, *dims) stack).  The Gaussian sites, `cp_stack` and
through it the predictions, the simulators, CP-ALS and the text files of
`dataio` all use them; a matrix is the order-2 case.  The Bernoulli case uses
the logistic tangent (quadratic) bound with per-edge tangent parameters
xi, so its sites are exact for the bounded likelihood.  Every per-dyad
quantity of the network is held once, packed over the upper triangle
(NetworkDyads): the data, the mask, xi, the bound's curvature A(xi)
(logistic_quad_coeff, computed once per refresh of xi), the pair products
and the site weights.  The logistic link of the network lives here too:
`sigmoid`, and `link_probs` for whole slices; the engine's predictions and
AUC and the network simulators all call it.
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
        if not np.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (np.isfinite(self.var) and self.var > 0):
            raise ValueError(f"variance must be positive and finite, got {self.var!r}")

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
        if 0 in self.values.shape:
            raise ValueError(
                f"values must have no empty axis, got shape {self.values.shape}"
            )
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1 + e^-x) for x >= 0 and
    e^x/(1 + e^x) below, both from e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def link_probs(logits: np.ndarray) -> np.ndarray:
    """Edge probabilities sigmoid(logits) of (..., n, n) network logits,
    with the structurally absent diagonal zeroed."""
    probs = sigmoid(logits)
    diag = np.arange(probs.shape[-1])
    probs[..., diag, diag] = 0.0
    return probs


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
    return _cp_sites(Y, mask, [other], _noise_weight(noise_q, alpha))


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


@dataclass
class NetworkDyads:
    """A network's dyads i < j, packed along a last axis of D = n(n-1)/2
    columns in `np.triu_indices(n, 1)` order.

    resid holds Y - 1/2 and weight the mask (None when no dyad is masked),
    both (T, D).  cols is (n, n): cols[i, j] is the column of dyad {i, j},
    and the diagonal points at column D, the zero column that ends every
    site weight array (bernoulli_site_weights), so row i of cols gathers
    subject i's partners in one take with the subject itself weighted 0.
    """

    upper: tuple[np.ndarray, np.ndarray]
    cols: np.ndarray
    resid: np.ndarray
    weight: np.ndarray | None

    @classmethod
    def from_obs(cls, obs: ObservationSet) -> NetworkDyads:
        """The dyads of "bernoulli-network" observations."""
        n = obs.values.shape[1]
        upper = np.triu_indices(n, k=1)
        cols = np.full((n, n), upper[0].size)
        cols[upper] = cols[upper[::-1]] = np.arange(upper[0].size)
        weight = None
        if obs.mask is not None:
            weight = obs.mask[:, upper[0], upper[1]]
        return cls(upper, cols, obs.values[:, upper[0], upper[1]] - 0.5, weight)

    def pack(self, x: np.ndarray) -> np.ndarray:
        """The dyads of (..., n, n) pair values, as (..., D)."""
        return x[..., self.upper[0], self.upper[1]]


def packed_pair_products(
    moments: ModeMoments, dyads: NetworkDyads
) -> tuple[np.ndarray, np.ndarray]:
    """(T, D) dyad arrays of E[u_i]'E[u_j] and tr(E[u_i u_i'] E[u_j u_j'])."""
    return (
        dyads.pack(pair_products(moments.mean)),
        dyads.pack(pair_products(moments.second)),
    )


def bernoulli_site_weights(
    dyads: NetworkDyads, curv: np.ndarray, alpha: float, intercept_mean: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-dyad weights of the network sites, given the (T, D) curvature
    curv = A(xi) = logistic_quad_coeff(xi) and the mask w:

        -2 alpha A(xi) w  and  alpha (Y - 1/2 + 2 A(xi) mu_b) w,

    each (T, D + 1) with a zero last column (see NetworkDyads.cols).
    """
    T, D = curv.shape
    prec_w = np.zeros((T, D + 1))
    shift_w = np.zeros((T, D + 1))
    prec_w[:, :D] = -2.0 * alpha * curv
    shift_w[:, :D] = alpha * (dyads.resid + 2.0 * curv * intercept_mean)
    if dyads.weight is not None:
        prec_w[:, :D] *= dyads.weight
        shift_w[:, :D] *= dyads.weight
    return prec_w, shift_w


def bernoulli_site_subject(
    prec_w: np.ndarray,
    shift_w: np.ndarray,
    partners: np.ndarray,
    second_tm: np.ndarray,
    mean_tm: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence for one network subject i under the tangent bound.

    prec_w and shift_w are the (T, D + 1) weights of bernoulli_site_weights
    and partners = NetworkDyads.cols[i].  second_tm (T, n, d*d) and mean_tm
    (T, n, d) hold every subject's E[u u'] and E[u], time-major.  Sums run
    over partners j != i (and the mask when given).  Returns (T, d, d)
    precision and (T, d) shift, each one batched matmul:

        P_it = -2 alpha sum_j A(xi_ijt) E[u_jt u_jt'],
        h_it = alpha sum_j (Y_ijt - 1/2 + 2 A(xi_ijt) mu_b) E[u_jt].
    """
    T, _, d = mean_tm.shape
    prec = prec_w[:, None, partners] @ second_tm
    shift = shift_w[:, None, partners] @ mean_tm
    return prec.reshape(T, d, d), shift.reshape(T, d)


def xi_update(
    moments: ModeMoments, dyads: NetworkDyads, intercept_q: NormalQ | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal tangent parameters xi_ijt = sqrt(E[(b + u_it' u_jt)^2]) of
    every dyad i < j.

    E[(u'v)^2] = tr(E[uu'] E[vv']) for independent factors; the intercept
    adds E[b^2] + 2 mu_b mu_u' mu_v.  Returns (T, D) arrays (xi, inner,
    pair_sq) with the pair products of packed_pair_products, which the
    intercept, the training AUC and the ELBO read as well.
    """
    inner, pair_sq = packed_pair_products(moments, dyads)
    second = pair_sq
    if intercept_q is not None:
        second = second + intercept_q.second_moment + 2.0 * intercept_q.mean * inner
    return np.sqrt(np.maximum(second, 0.0)), inner, pair_sq


def intercept_update(
    dyads: NetworkDyads,
    curv: np.ndarray,
    inner: np.ndarray,
    alpha: float,
    prior_var: float = 100.0,
) -> NormalQ:
    """Network intercept factor under the tangent bound and a N(0, prior_var)
    prior, given the (T, D) curvature curv = A(xi) = logistic_quad_coeff(xi)
    and inner = E[u_i]'E[u_j].  Each dyad (i < j) contributes once:

        precision = 1/prior_var - 2 alpha sum A(xi),
        mean = var * alpha * sum (Y - 1/2 + 2 A(xi) E[u_i' u_j]).
    """
    wgt = 1.0 if dyads.weight is None else dyads.weight
    prec = 1.0 / prior_var - 2.0 * alpha * np.sum(curv * wgt)
    lin = alpha * np.sum((dyads.resid + 2.0 * curv * inner) * wgt)
    return NormalQ(mean=lin / prec, var=1.0 / prec)


def khatri_rao(factors: list[np.ndarray]) -> np.ndarray:
    """Row-wise Khatri-Rao product of (n_m, T, k) factors at every time.

    Returns (T, prod n_m, k): row i_0 + n_0 (i_1 + n_1 (i_2 + ...)) holds the
    elementwise product of the factors' rows i_m, so the first factor's
    index runs fastest, the column order of `unfold` over the same modes.
    With k = d the factors are means; with k = d*d they are flattened
    second moments, since E[w w'] of w = o_m u^m over independent modes is
    the elementwise product of the modes' E[u u'].
    """
    rows = factors[-1].transpose(1, 0, 2)
    for f in factors[-2::-1]:
        T, _, k = rows.shape
        rows = (rows[:, :, None, :] * f.transpose(1, 0, 2)[:, None, :, :]).reshape(
            T, -1, k
        )
    return rows


def _unfold_axes(ndim: int, mode: int) -> list[int]:
    """Axis order of a (T, *dims) stack whose C-order flattening is `unfold`:
    time, the mode, then the other modes from the highest down."""
    return [0, 1 + mode, *(a for a in range(ndim - 1, 0, -1) if a != 1 + mode)]


def unfold(stack: np.ndarray, mode: int) -> np.ndarray:
    """Mode-m unfolding of every slice of a (T, n_0, ..., n_{M-1}) stack:
    (T, n_m, prod of the other n), the columns running over the other modes
    with the lowest-numbered one fastest (Kolda & Bader, SIAM Review 51(3),
    2009).  For a matrix stack it is a view."""
    axes = _unfold_axes(stack.ndim, mode)
    return stack.transpose(axes).reshape(stack.shape[0], stack.shape[1 + mode], -1)


def fold(unfolded: np.ndarray, mode: int, dims: tuple[int, ...]) -> np.ndarray:
    """Inverse of `unfold`: the C-contiguous (T, *dims) stack."""
    axes = _unfold_axes(len(dims) + 1, mode)
    shape = (unfolded.shape[0], *dims)
    moved = unfolded.reshape([shape[a] for a in axes])
    return np.ascontiguousarray(moved.transpose(np.argsort(axes)))


def _flat_second(mm: ModeMoments) -> np.ndarray:
    """Second moments (n, T, d, d) as (n, T, d*d)."""
    return mm.second.reshape(*mm.second.shape[:2], -1)


def _cp_sites(
    Y_unf: np.ndarray,
    mask_unf: np.ndarray | None,
    others: list[ModeMoments],
    w: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sites of one mode from its (T, n, P) data (and mask) unfolding and the
    moments of the other modes, in ascending order: one batched contraction
    with their Khatri-Rao rows."""
    mean = khatri_rao([o.mean for o in others])  # (T, P, d)
    second = khatri_rao([_flat_second(o) for o in others])  # (T, P, d*d)
    T, n, _ = Y_unf.shape
    d = mean.shape[-1]
    if mask_unf is None:
        prec = np.broadcast_to(second.sum(axis=1)[:, None], (T, n, d * d))
        shift = Y_unf @ mean
    else:
        prec = mask_unf @ second
        shift = (Y_unf * mask_unf) @ mean
    prec = np.swapaxes(prec, 0, 1).reshape(n, T, d, d)
    return w * prec, w * np.swapaxes(shift, 0, 1)


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
    product of the per-mode second moments.  Every time and every M is one
    batched contraction of `unfold(Y, mode)` with the `khatri_rao` rows of
    the other modes; with M = 2 it is the computation of
    gaussian_matrix_sites.
    """
    n_modes = Y.ndim - 1
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for order-{n_modes} tensor")
    if len(moments) != n_modes:
        raise ValueError("need moments for every mode")
    others = [mm for k, mm in enumerate(moments) if k != mode]
    mask_unf = None if mask is None else unfold(mask, mode)
    return _cp_sites(
        unfold(Y, mode), mask_unf, others, _noise_weight(noise_q, alpha)
    )


def cp_stack(factors: list[np.ndarray]) -> np.ndarray:
    """CP reconstruction sum_k prod_m f^m_{i_m t k} of (n_m, T, k) factors,
    as a C-contiguous (T, n_0, ..., n_{M-1}) stack.  With the modes' means
    it is E[m] of every cell; with their flattened second moments, E[m^2].

    Mode 0 is contracted with the khatri_rao rows of the other modes taken
    in reverse, so the last mode's index runs fastest: the product is the
    stack's own C order, and no fold is needed.
    """
    rest = khatri_rao(factors[:0:-1])  # (T, P, k)
    flat = factors[0].transpose(1, 0, 2) @ np.swapaxes(rest, 1, 2)
    return flat.reshape(flat.shape[0], *(f.shape[0] for f in factors))


def predicted_moments(moments: list[ModeMoments]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and second moment of every reconstructed cell at every time.

    Returns (E[m], E[m^2]), each a (T, *dims) stack, where m is the inner
    product of the modes' latent rows: cp_stack of the means and of the
    flattened second moments.  Used by the noise update and the exact
    Gaussian objective.
    """
    return (
        cp_stack([mm.mean for mm in moments]),
        cp_stack([_flat_second(mm) for mm in moments]),
    )


def expected_sse(obs: ObservationSet, moments: list[ModeMoments]) -> float:
    """sum over observed cells of E[(Y - m)^2] = Y (Y - 2 E[m]) + E[m^2],
    evaluated in place on the predicted_moments stacks."""
    sq, second = predicted_moments(moments)
    sq *= -2.0
    sq += obs.values
    sq *= obs.values
    sq += second
    if obs.mask is not None:
        sq *= obs.mask
    return float(sq.sum())


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
