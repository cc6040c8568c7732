"""Exact Gaussian inference on chains with block-tridiagonal precision.

Each subject's latent trajectory is a length-T Gaussian chain: a zero-mean
random-walk prior with scalar transition precisions plus independent
per-time Gaussian evidence in natural (precision, shift) form.  The joint
precision over all T time points is block tridiagonal, so marginal means,
marginal covariances and adjacent cross-covariances come out of a
block-tridiagonal solve plus selected inversion in O(T d^3), never
materialising the (T d) x (T d) system.

`smooth_core` does that in one of two ways, chosen from the input alone.
Batched chains, and single chains with d > 2, go through odd-even block
cyclic reduction: each of ceil(log2 T) levels eliminates every other
block of every chain with a few vectorised numpy operations, and the way
back up reads the eliminated blocks' moments off their rows of J mu = h
and J Sigma = I.  The reduction stores blocks as (d, d, ..., T) and
vectors as (d, ..., T), block axes first and the time axis last: numpy's
stacked matmul on (..., d, d) arrays makes one inner-loop call per tiny
block, while a product over the entry arrays (`_dot`) runs each inner
loop over every chain and block of the level at once.  A single chain
(no batch axis) with d <= 2 goes through `_smooth_single_d1` or
`_smooth_single_d2`, a block-Thomas forward elimination / backward
substitution written out on Python floats: for one tiny block per step
the numpy call overhead, not the arithmetic, is the cost, and the network
Gauss-Seidel schedule smooths exactly one chain per call.

All covariance outputs are explicitly symmetrised, and cross-covariances
are consistent with the marginals so that expected squared transitions
are exact.
"""
from __future__ import annotations

import math

import numpy as np


class DegeneratePosteriorError(ValueError):
    """Total chain precision is singular at some time block."""


_NOT_PD = "chain total precision is not positive definite"


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _axes_last(a: np.ndarray, k: int) -> np.ndarray:
    """View of a with its first k axes moved to the end.

    `np.moveaxis` does the same but spends several microseconds a call
    checking its arguments, which shows on single chains.
    """
    return a.transpose(*range(k, a.ndim), *range(k))


def _axes_first(a: np.ndarray, k: int) -> np.ndarray:
    """View of a with its last k axes moved to the front."""
    n = a.ndim - k
    return a.transpose(*range(n, a.ndim), *range(n))


def _chol_inverse(mats: np.ndarray) -> np.ndarray:
    """Batched SPD inverse of blocks stored as (d, d, ...); raises
    DegeneratePosteriorError.

    d <= 2 uses closed forms on the entry arrays (for tiny blocks the
    Cholesky call overhead would dominate the smoother); larger blocks go
    through Cholesky with the block axes moved last for LAPACK.  The
    result is contiguous, in the layout of `mats`.
    """
    d = mats.shape[0]
    if d == 1:
        a = mats[0, 0]
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise DegeneratePosteriorError(_NOT_PD)
        return (1.0 / a)[None, None]
    if d == 2:
        a = mats[0, 0]
        c = mats[1, 1]
        # Entries near the float limit overflow here; the check below turns
        # that into the error, so numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            b = 0.5 * (mats[0, 1] + mats[1, 0])
            det = a * c - b * b
        if (
            not (np.all(np.isfinite(a)) and np.all(np.isfinite(det)))
            or np.any(a <= 0)
            or np.any(det <= 0)
        ):
            raise DegeneratePosteriorError(_NOT_PD)
        out = np.empty(mats.shape)
        inv_det = 1.0 / det
        out[0, 0] = c * inv_det
        out[0, 1] = out[1, 0] = -b * inv_det
        out[1, 1] = a * inv_det
        return out
    # LAPACK's Cholesky passes NaN and inf through without an error.
    if not np.all(np.isfinite(mats)):
        raise DegeneratePosteriorError(_NOT_PD)
    try:
        chol = np.linalg.cholesky(_sym(_axes_last(mats, 2)))
    except np.linalg.LinAlgError as exc:
        raise DegeneratePosteriorError(_NOT_PD) from exc
    linv = np.linalg.inv(chol)
    inv = _sym(np.swapaxes(linv, -1, -2) @ linv)
    return np.ascontiguousarray(_axes_first(inv, 2))


def _prior_diag(rho0: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Prior part of every diagonal block of the chains' joint precision,
    as the scale of I_d: rho0 at t = 0, plus rho_{t-1} and rho_t where
    they exist.  rho0 (...,) and rho (..., T-1) -> (..., T)."""
    diag = np.empty(rho.shape[:-1] + (rho.shape[-1] + 1,))
    diag[..., 0] = rho0
    diag[..., 1:] = rho
    diag[..., :-1] += rho
    return diag


def _reversed(flat: list[float]) -> np.ndarray:
    """A new C-contiguous float array of `flat` in reverse order."""
    return np.ascontiguousarray(np.array(flat, dtype=float)[::-1])


def _smooth_single_d1(
    diag: list[float], rho: list[float], precision: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`smooth_core` for one chain with d = 1, on Python floats, given the
    prior diagonal `_prior_diag` and the transition precisions."""
    T = precision.shape[0]
    sites = precision.reshape(T).tolist()
    shifts = shift.reshape(T).tolist()
    invs = []
    bhats = []
    inv = bhat = 0.0
    for t in range(T):
        a = sites[t] + diag[t]
        if t:
            r = rho[t - 1]
            a = a - r * r * inv
            bhat = shifts[t] + r * (inv * bhat)
        else:
            bhat = shifts[0]
        if not 0.0 < a < math.inf:
            raise DegeneratePosteriorError(_NOT_PD)
        inv = 1.0 / a
        invs.append(inv)
        bhats.append(bhat)
    m = inv * bhat
    c = inv
    # Built from the last time back, so each list is reversed once at the end.
    mean = [m]
    cov = [c]
    cross = []
    for t in range(T - 2, -1, -1):
        inv = invs[t]
        g = rho[t] * inv
        m = inv * bhats[t] + g * m
        x = g * c
        c = inv + x * g
        mean.append(m)
        cov.append(c)
        cross.append(x)
    return (
        _reversed(mean).reshape(T, 1),
        _reversed(cov).reshape(T, 1, 1),
        _reversed(cross).reshape(T - 1, 1, 1),
    )


def _smooth_single_d2(
    diag: list[float], rho: list[float], precision: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`smooth_core` for one chain with d = 2, on Python floats, given the
    prior diagonal `_prior_diag` and the transition precisions.

    Every block is kept as its entries; the inverse is the closed form of
    `_chol_inverse` with the same checks, and covariances are symmetrised
    as `_sym` does.
    """
    T = precision.shape[0]
    sites = precision.reshape(T, 4).tolist()
    shifts = shift.tolist()
    invs = []
    bhats = []
    i00 = i01 = i11 = b0 = b1 = 0.0
    for t in range(T):
        p00, p01, p10, p11 = sites[t]
        h0, h1 = shifts[t]
        a = p00 + diag[t]
        c = p11 + diag[t]
        if t:
            # Schur complement D_t - r^2 inv(Dhat_{t-1}); the inverse is
            # symmetric, so both off-diagonal entries lose r^2 i01.
            r = rho[t - 1]
            r2 = r * r
            a = a - r2 * i00
            c = c - r2 * i11
            b = 0.5 * ((p01 - r2 * i01) + (p10 - r2 * i01))
            b0, b1 = (
                h0 + r * (i00 * b0 + i01 * b1),
                h1 + r * (i01 * b0 + i11 * b1),
            )
        else:
            b = 0.5 * (p01 + p10)
            b0, b1 = h0, h1
        det = a * c - b * b
        if not (0.0 < a < math.inf and 0.0 < det < math.inf):
            raise DegeneratePosteriorError(_NOT_PD)
        inv_det = 1.0 / det
        i00 = c * inv_det
        i01 = -b * inv_det
        i11 = a * inv_det
        invs.append((i00, i01, i11))
        bhats.append((b0, b1))

    m0 = i00 * b0 + i01 * b1
    m1 = i01 * b0 + i11 * b1
    c00, c01, c11 = i00, i01, i11
    # Built from the last time back, each block's entries in reverse order,
    # so one reversal of each flat list gives the outputs in C order.
    mean = [m1, m0]
    cov = [c11, c01, c01, c00]
    cross = []
    for t in range(T - 2, -1, -1):
        i00, i01, i11 = invs[t]
        b0, b1 = bhats[t]
        r = rho[t]
        g00 = r * i00
        g01 = r * i01
        g11 = r * i11
        m0, m1 = (
            (i00 * b0 + i01 * b1) + (g00 * m0 + g01 * m1),
            (i01 * b0 + i11 * b1) + (g01 * m0 + g11 * m1),
        )
        # cross = gain @ cov_next; cov = sym(inv + cross @ gain'), gain
        # symmetric.
        x00 = g00 * c00 + g01 * c01
        x01 = g00 * c01 + g01 * c11
        x10 = g01 * c00 + g11 * c01
        x11 = g01 * c01 + g11 * c11
        c00 = i00 + (x00 * g00 + x01 * g01)
        c01 = 0.5 * (
            (i01 + (x00 * g01 + x01 * g11)) + (i01 + (x10 * g00 + x11 * g01))
        )
        c11 = i11 + (x10 * g01 + x11 * g11)
        mean += (m1, m0)
        cov += (c11, c01, c01, c00)
        cross += (x11, x10, x01, x00)
    return (
        _reversed(mean).reshape(T, 2),
        _reversed(cov).reshape(T, 2, 2),
        _reversed(cross).reshape(T - 1, 2, 2),
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block product a @ b, or matvec a @ x, in the block-axes-first layout.

    a is (d, d, ...) and b is (d, d, ...) or (d, ...).  For a block b its
    column axis lands in the ellipsis and broadcasts against the leading
    batch axes of a, so one subscript serves both.  The inner loop runs
    over the trailing chain and block axes, not once per block.
    """
    return np.einsum("ik...,k...->i...", a, b)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose every block of a (d, d, ...) array."""
    return a.swapaxes(0, 1)


def _reduce(
    A: np.ndarray, C: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Odd-even block cyclic reduction of a block-tridiagonal Gaussian.

    Blocks are stored with their two axes first and vectors with theirs
    first, so the block index is the last, contiguous axis: A (d, d, ...,
    n) are the diagonal blocks of the precision J, C (d, d, ..., n-1) the
    negated upper blocks C[..., i] = -J[i, i+1] (rho_i I for the prior),
    and h (d, ..., n) the shift.  Returns the mean (d, ..., n), the
    diagonal blocks of J^{-1} (d, d, ..., n) and its upper blocks (d, d,
    ..., n-1) in the same layout.  numpy's stacked matmul on (..., d, d)
    arrays runs its inner loop once per tiny block; here every product is
    one `_dot` whose inner loop runs over all chains and blocks of the
    level.

    Each level down eliminates the odd blocks (their inverses are the
    pivots, checked by `_chol_inverse`), which leaves a block-tridiagonal
    Schur complement on the even blocks whose inverse is the even part of
    J^{-1}.  Each level up, the odd rows of J mu = h and J Sigma = I give
    the odd means, cross-covariances and marginals from the even ones.
    Only what the way up needs is kept from each level, and A, C and h
    are read, never written.
    """
    levels = []
    while A.shape[-1] > 1:
        inv = _chol_inverse(A[..., 1::2])
        no = inv.shape[-1]
        left_c = C[..., 0::2]  # -J[k-1, k] for each odd k
        right_c = C[..., 1::2]  # -J[k, k+1]; the last odd block may have none
        nr = right_c.shape[-1]
        wl = _dot(inv, _t(left_c))  # -inv_k J[k, k-1]
        wr = _dot(inv[..., :nr], right_c)  # -inv_k J[k, k+1]
        g = _dot(inv, h[..., 1::2])
        A_even = A[..., 0::2].copy()
        A_even[..., :no] -= _dot(left_c, wl)
        A_even[..., 1:] -= _dot(_t(right_c), wr)
        h_even = h[..., 0::2].copy()
        h_even[..., :no] += _dot(left_c, g)
        h_even[..., 1:] += _dot(_t(right_c), g[..., :nr])
        A, C, h = A_even, _dot(left_c[..., :nr], wr), h_even
        levels.append((inv, wl, wr, g))

    cov = _chol_inverse(A)
    mean = _dot(cov, h)
    cross = C  # no blocks: a single block is left
    while levels:
        inv, wl, wr, g = levels.pop()
        no, nr = inv.shape[-1], wr.shape[-1]
        mean_o = g + _dot(wl, mean[..., :no])
        mean_o[..., :nr] += _dot(wr, mean[..., 1:])
        left = _dot(wl, cov[..., :no])  # Sigma[k, k-1]
        left[..., :nr] += _dot(wr, _t(cross))
        right = _dot(wl[..., :nr], cross) + _dot(wr, cov[..., 1:])  # Sigma[k, k+1]
        cov_o = inv + _dot(wl, _t(left))
        cov_o[..., :nr] += _dot(wr, _t(right))

        n = no + mean.shape[-1]
        mean_e, cov_e = mean, cov
        mean = np.empty(mean_e.shape[:-1] + (n,))
        mean[..., 0::2] = mean_e
        mean[..., 1::2] = mean_o
        cov = np.empty(cov_e.shape[:-1] + (n,))
        cov[..., 0::2] = cov_e
        cov[..., 1::2] = 0.5 * (cov_o + _t(cov_o))
        cross = np.empty(cov_e.shape[:-1] + (n - 1,))
        cross[..., 0::2] = _t(left)
        cross[..., 1::2] = right
    return mean, cov, cross


def smooth_core(
    rho0: np.ndarray,
    rho: np.ndarray,
    precision: np.ndarray,
    shift: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched chain smoother.

    Parameters
    ----------
    rho0 : (...,) initial precisions, theta_1 ~ N(0, I/rho0).  Zero leaves
        the first point improper, allowed while the sites make the total
        precision regular.
    rho : (..., T-1) transition precisions,
        theta_{t+1} | theta_t ~ N(theta_t, I/rho_t).  Zero detaches
        neighbours.
    precision : (..., T, d, d) site precisions P_t, symmetric PSD.
    shift : (..., T, d) site shifts h_t; the evidence at time t is
        exp(-0.5 x' P_t x + h_t' x).

    Returns
    -------
    mean (..., T, d), cov (..., T, d, d), cross (..., T-1, d, d) with
    cross[..., t, :, :] = Cov(theta_t, theta_{t+1}), all new C-contiguous
    arrays; the inputs are not modified.

    The leading axes are independent chains.  They are solved together by
    odd-even block cyclic reduction (`_reduce`): ceil(log2 T) levels, each
    a few numpy operations over every chain and every block of the level,
    O(T d^3) work in all.  The reduction stores blocks as (d, d, ..., T)
    and vectors as (d, ..., T), block axes first: numpy's stacked matmul
    makes one inner-loop call per tiny block, while whole-array products
    over the trailing chain and time axes make one per product.  The
    inputs are moved into that layout once and the outputs back once.  A
    single chain (`precision` of shape (T, d, d)) with d <= 2 runs the
    block-Thomas recursion of `_smooth_single_d1` / `_smooth_single_d2`
    on Python floats instead.  Both raise the same
    DegeneratePosteriorError when the joint precision is not positive
    definite and agree to rounding.
    """
    precision = np.asarray(precision, dtype=float)
    shift = np.asarray(shift, dtype=float)
    T, d = precision.shape[-3], precision.shape[-1]
    batch = precision.shape[:-3]
    rho = np.asarray(rho, dtype=float)
    if rho.shape != batch + (max(T - 1, 0),):  # broadcast_to is slow for one chain
        rho = np.broadcast_to(rho, batch + (max(T - 1, 0),))
    diag = _prior_diag(rho0, rho)
    if not batch and d <= 2:
        single = _smooth_single_d1 if d == 1 else _smooth_single_d2
        return single(diag.tolist(), rho.tolist(), precision, shift)

    # Blocks of the joint precision: site + prior couplings on the
    # diagonal, -rho_t I between neighbours (C holds rho_t I).
    A = _axes_first(precision, 2).copy()
    C = np.zeros((d, d) + rho.shape)
    for i in range(d):
        A[i, i] += diag
        C[i, i] = rho
    mean, cov, cross = _reduce(A, C, _axes_first(shift, 1))
    return (
        np.ascontiguousarray(_axes_last(mean, 1)),
        np.ascontiguousarray(_axes_last(cov, 2)),
        np.ascontiguousarray(_axes_last(cross, 2)),
    )


def all_expected_transition_sq(
    mean: np.ndarray, cov: np.ndarray, cross: np.ndarray
) -> np.ndarray:
    """Vectorised E||theta_t - theta_{t+1}||^2 over batched chains.

    mean (..., T, d), cov (..., T, d, d), cross (..., T-1, d, d) ->
    (..., T-1).
    """
    diff = mean[..., :-1, :] - mean[..., 1:, :]
    tr = np.trace(cov, axis1=-2, axis2=-1)
    return (
        np.sum(diff**2, axis=-1)
        + tr[..., :-1]
        + tr[..., 1:]
        - 2.0 * np.trace(cross, axis1=-2, axis2=-1)
    )


def chain_entropy(cov: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Entropy of Gaussian chains from their marginals, via the Markov
    factorisation H = H(theta_1) + sum_t H(theta_{t+1} | theta_t).

    cov (..., T, d, d), cross (..., T-1, d, d) -> (...,).
    """
    T, d = cov.shape[-3], cov.shape[-1]
    _, logdet1 = np.linalg.slogdet(cov[..., 0, :, :])
    cond = cov[..., 1:, :, :] - np.swapaxes(cross, -1, -2) @ np.linalg.solve(
        cov[..., :-1, :, :], cross
    )
    _, logdets = np.linalg.slogdet(_sym(cond))
    return 0.5 * (logdet1 + np.sum(logdets, axis=-1)) + 0.5 * T * d * (
        1.0 + np.log(2 * np.pi)
    )
