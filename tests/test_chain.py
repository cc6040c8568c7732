"""Chain smoother against hand-derived values and the dense oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionshrink.chain import (
    ChainPosterior,
    DegeneratePosteriorError,
    GaussianChainPrior,
    SitePotential,
    _chol_inverse,
    _diag_shifts,
    _sym,
    all_expected_transition_sq,
    chain_smooth,
    dense_joint_oracle,
    expected_transition_sq,
    smooth_core,
)
from fusionshrink.scales import PRECISION_FLOOR


def random_sites(rng, T, d, scale=1.0):
    A = rng.standard_normal((T, d, d))
    P = scale * np.einsum("tij,tkj->tik", A, A)
    h = rng.standard_normal((T, d))
    return SitePotential(precision=P, shift=h)


def test_single_time_conjugate():
    # T=1: prior precision 1, site precision I, zero shift.
    d = 3
    prior = GaussianChainPrior(dim=d, init_precision=1.0, transition_precisions=[])
    sites = SitePotential(precision=np.eye(d)[None], shift=np.zeros((1, d)))
    post = chain_smooth(prior, sites)
    np.testing.assert_allclose(post.mean, 0.0)
    np.testing.assert_allclose(post.cov[0], 0.5 * np.eye(d))
    assert post.cross_cov.shape == (0, d, d)


def test_two_step_scalar_frozen():
    # T=2, d=1, rho0=1, rho1=2, site precisions (1, 1), shifts (1, 0).
    # Joint precision [[4, -2], [-2, 3]] has inverse (1/8)[[3, 2], [2, 4]],
    # so mean = (3/8, 1/4), variances (3/8, 1/2), cross 1/4.
    prior = GaussianChainPrior(dim=1, init_precision=1.0, transition_precisions=[2.0])
    sites = SitePotential(
        precision=np.ones((2, 1, 1)), shift=np.array([[1.0], [0.0]])
    )
    post = chain_smooth(prior, sites)
    np.testing.assert_allclose(post.mean[:, 0], [3 / 8, 1 / 4], atol=1e-14)
    np.testing.assert_allclose(post.cov[:, 0, 0], [3 / 8, 1 / 2], atol=1e-14)
    np.testing.assert_allclose(post.cross_cov[0, 0, 0], 1 / 4, atol=1e-14)


def assert_matches_oracle(prior, sites, atol=1e-8):
    post = chain_smooth(prior, sites)
    oracle = dense_joint_oracle(prior, sites)
    np.testing.assert_allclose(post.mean, oracle.mean, atol=atol)
    np.testing.assert_allclose(post.cov, oracle.cov, atol=atol)
    np.testing.assert_allclose(post.cross_cov, oracle.cross_cov, atol=atol)


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    rho0=st.floats(0.01, 10.0),
)
def test_matches_dense_oracle(T, d, seed, rho0):
    rng = np.random.default_rng(seed)
    prior = GaussianChainPrior(
        dim=d,
        init_precision=rho0,
        transition_precisions=rng.uniform(0.01, 5.0, size=T - 1),
    )
    assert_matches_oracle(prior, random_sites(rng, T, d))


def test_zero_transition_detaches():
    # rho=0 between the two blocks: marginals equal independent inversions.
    rng = np.random.default_rng(7)
    d = 2
    sites = random_sites(rng, 2, d, scale=1.0)
    sites.precision += 0.5 * np.eye(d)
    prior = GaussianChainPrior(dim=d, init_precision=1.0, transition_precisions=[0.0])
    post = chain_smooth(prior, sites)
    cov0 = np.linalg.inv(sites.precision[0] + np.eye(d))
    cov1 = np.linalg.inv(sites.precision[1])
    np.testing.assert_allclose(post.cov[0], cov0, atol=1e-10)
    np.testing.assert_allclose(post.cov[1], cov1, atol=1e-10)
    np.testing.assert_allclose(post.cross_cov[0], 0.0, atol=1e-12)


def test_improper_init_regularised_by_sites():
    rng = np.random.default_rng(3)
    d = 2
    sites = random_sites(rng, 4, d)
    sites.precision += np.eye(d)
    prior = GaussianChainPrior(
        dim=d, init_precision=0.0, transition_precisions=[1.0, 2.0, 0.5]
    )
    assert_matches_oracle(prior, sites)


def test_degenerate_posterior_raises():
    # Second block has no evidence and no coupling: singular total precision.
    prior = GaussianChainPrior(dim=1, init_precision=1.0, transition_precisions=[0.0])
    sites = SitePotential(
        precision=np.array([[[1.0]], [[0.0]]]), shift=np.zeros((2, 1))
    )
    with pytest.raises(DegeneratePosteriorError):
        chain_smooth(prior, sites)
    with pytest.raises(DegeneratePosteriorError):
        dense_joint_oracle(prior, sites)


def test_monotone_information():
    # Adding PSD evidence at one time never inflates any marginal covariance.
    rng = np.random.default_rng(11)
    T, d = 5, 2
    prior = GaussianChainPrior(
        dim=d, init_precision=0.7, transition_precisions=rng.uniform(0.1, 2.0, T - 1)
    )
    sites = random_sites(rng, T, d)
    base = chain_smooth(prior, sites)
    bumped = SitePotential(precision=sites.precision.copy(), shift=sites.shift.copy())
    inc = rng.standard_normal((d, d))
    bumped.precision[2] += inc @ inc.T
    post = chain_smooth(prior, bumped)
    for t in range(T):
        assert np.trace(post.cov[t]) <= np.trace(base.cov[t]) + 1e-12


def test_time_reversal_symmetry():
    rng = np.random.default_rng(5)
    T, d = 6, 2
    rho = rng.uniform(0.2, 3.0, T - 1)
    sites = random_sites(rng, T, d)
    # Reversal swaps the roles of the endpoint precisions, so pin the ends
    # symmetrically: put the init precision in the first site instead.
    prior_f = GaussianChainPrior(dim=d, init_precision=0.0, transition_precisions=rho)
    prior_b = GaussianChainPrior(
        dim=d, init_precision=0.0, transition_precisions=rho[::-1]
    )
    rev = SitePotential(precision=sites.precision[::-1], shift=sites.shift[::-1])
    post_f = chain_smooth(prior_f, sites)
    post_b = chain_smooth(prior_b, rev)
    np.testing.assert_allclose(post_f.mean, post_b.mean[::-1], atol=1e-9)
    np.testing.assert_allclose(post_f.cov, post_b.cov[::-1], atol=1e-9)
    # Cov(theta_t, theta_{t+1}) of the reversed chain is the transpose block.
    np.testing.assert_allclose(
        post_f.cross_cov,
        np.swapaxes(post_b.cross_cov[::-1], -1, -2),
        atol=1e-9,
    )


def test_expected_transition_sq_plugins():
    mean = np.array([[1.0, 0.0], [0.0, 0.0]])
    eye = np.stack([np.eye(2), np.eye(2)])
    coupled = ChainPosterior(
        mean=np.zeros((2, 2)), cov=eye, cross_cov=np.eye(2)[None]
    )
    assert expected_transition_sq(coupled, 0) == pytest.approx(0.0, abs=1e-14)
    loose = ChainPosterior(mean=mean, cov=eye, cross_cov=np.zeros((1, 2, 2)))
    assert expected_transition_sq(loose, 0) == pytest.approx(5.0)


def joint_precision(prior, site_precision):
    """The dense (T d) x (T d) precision of the chain posterior."""
    T, d = site_precision.shape[:2]
    prec = np.zeros((T * d, T * d))
    eye = np.eye(d)
    for t in range(T):
        prec[t * d : (t + 1) * d, t * d : (t + 1) * d] += site_precision[t]
    prec[:d, :d] += prior.init_precision * eye
    for t in range(T - 1):
        r = prior.transition_precisions[t]
        a, b = slice(t * d, (t + 1) * d), slice((t + 1) * d, (t + 2) * d)
        prec[a, a] += r * eye
        prec[b, b] += r * eye
        prec[a, b] -= r * eye
        prec[b, a] -= r * eye
    return prec


def test_expected_transition_sq_monte_carlo():
    rng = np.random.default_rng(17)
    T, d = 4, 2
    prior = GaussianChainPrior(
        dim=d, init_precision=1.0, transition_precisions=rng.uniform(0.5, 2.0, T - 1)
    )
    sites = random_sites(rng, T, d)
    post = chain_smooth(prior, sites)
    # Sample the exact dense joint and average the squared transitions.
    cov_joint = np.linalg.inv(joint_precision(prior, sites.precision))
    mu = cov_joint @ sites.shift.ravel()
    draws = rng.multivariate_normal(mu, cov_joint, size=400_000)
    paths = draws.reshape(-1, T, d)
    for t in range(T - 1):
        mc = np.mean(np.sum((paths[:, t] - paths[:, t + 1]) ** 2, axis=1))
        assert expected_transition_sq(post, t) == pytest.approx(mc, rel=0.01)


def test_all_expected_transition_sq_matches_scalar():
    rng = np.random.default_rng(23)
    T, d = 5, 3
    prior = GaussianChainPrior(
        dim=d, init_precision=0.4, transition_precisions=rng.uniform(0.1, 1.0, T - 1)
    )
    post = chain_smooth(prior, random_sites(rng, T, d))
    vec = all_expected_transition_sq(post.mean, post.cov, post.cross_cov)
    for t in range(T - 1):
        assert vec[t] == pytest.approx(expected_transition_sq(post, t), abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        GaussianChainPrior(dim=0, init_precision=1.0)
    with pytest.raises(ValueError):
        GaussianChainPrior(dim=1, init_precision=-1.0)
    with pytest.raises(ValueError):
        GaussianChainPrior(dim=1, init_precision=1.0, transition_precisions=[-0.1])
    with pytest.raises(ValueError):
        SitePotential(precision=np.zeros((2, 2, 1)), shift=np.zeros((2, 2)))
    asym = SitePotential(
        precision=np.array([[[1.0, 0.5], [0.0, 1.0]]]), shift=np.zeros((1, 2))
    )
    with pytest.raises(ValueError):
        asym.validate_psd()
    prior = GaussianChainPrior(dim=2, init_precision=1.0, transition_precisions=[1.0])
    short = SitePotential(precision=np.eye(2)[None], shift=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        chain_smooth(prior, short)


def test_dense_oracle_guard():
    T, d = 40, 2
    prior = GaussianChainPrior(
        dim=d, init_precision=1.0, transition_precisions=np.ones(T - 1)
    )
    sites = SitePotential(
        precision=np.broadcast_to(np.eye(d), (T, d, d)).copy(), shift=np.zeros((T, d))
    )
    with pytest.raises(ValueError, match="dense oracle"):
        dense_joint_oracle(prior, sites)


def test_zero_shift_zero_mean():
    rng = np.random.default_rng(9)
    T, d = 5, 2
    prior = GaussianChainPrior(
        dim=d, init_precision=1.0, transition_precisions=rng.uniform(0.5, 2.0, T - 1)
    )
    sites = random_sites(rng, T, d)
    sites.shift[:] = 0.0
    post = chain_smooth(prior, sites)
    np.testing.assert_allclose(post.mean, 0.0, atol=1e-14)


# ----- reference recursion: the batched block-Thomas loop ----------------------


def block_inverse(mats):
    """`_chol_inverse` on (..., d, d) blocks; it takes and returns them as
    (d, d, ...)."""
    inv = _chol_inverse(np.moveaxis(mats, (-2, -1), (0, 1)))
    return np.moveaxis(inv, (0, 1), (-2, -1))


def loop_smooth(rho0, rho, precision, shift):
    """Reference for `smooth_core`: block-Thomas forward elimination and
    backward substitution stepping through T with numpy, each step batched
    over the chains.  The single-chain kernels write out this same
    recursion on floats."""
    precision = np.asarray(precision, dtype=float)
    shift = np.asarray(shift, dtype=float)
    batch = precision.shape[:-3]
    T, d = precision.shape[-3], precision.shape[-1]
    rho0 = np.broadcast_to(np.asarray(rho0, dtype=float), batch)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), batch + (max(T - 1, 0),))
    eye = np.eye(d)
    # Diagonal blocks of the joint precision: site + prior couplings.
    diag_scale = np.zeros(batch + (T,))
    diag_scale[..., 0] += rho0
    if T > 1:
        diag_scale[..., 0] += rho[..., 0]
        diag_scale[..., -1] += rho[..., -1]
        if T > 2:
            diag_scale[..., 1:-1] += rho[..., :-1] + rho[..., 1:]
    dblocks = precision + diag_scale[..., None, None] * eye

    # Forward elimination: Schur complements and conditioned shifts.
    inv_dhat = np.empty(batch + (T, d, d))
    bhat = np.empty(batch + (T, d))
    inv_dhat[..., 0, :, :] = block_inverse(dblocks[..., 0, :, :])
    bhat[..., 0, :] = shift[..., 0, :]
    for t in range(1, T):
        r = rho[..., t - 1]
        prev_inv = inv_dhat[..., t - 1, :, :]
        dhat = dblocks[..., t, :, :] - (r**2)[..., None, None] * prev_inv
        inv_dhat[..., t, :, :] = block_inverse(dhat)
        bhat[..., t, :] = shift[..., t, :] + r[..., None] * np.einsum(
            "...ij,...j->...i", prev_inv, bhat[..., t - 1, :]
        )

    # Backward substitution: marginals and adjacent cross-covariances.
    mean = np.empty(batch + (T, d))
    cov = np.empty(batch + (T, d, d))
    cross = np.empty(batch + (max(T - 1, 0), d, d))
    cov[..., T - 1, :, :] = inv_dhat[..., T - 1, :, :]
    mean[..., T - 1, :] = np.einsum(
        "...ij,...j->...i", inv_dhat[..., T - 1, :, :], bhat[..., T - 1, :]
    )
    for t in range(T - 2, -1, -1):
        r = rho[..., t]
        inv_t = inv_dhat[..., t, :, :]
        gain = r[..., None, None] * inv_t
        mean[..., t, :] = np.einsum(
            "...ij,...j->...i", inv_t, bhat[..., t, :]
        ) + np.einsum("...ij,...j->...i", gain, mean[..., t + 1, :])
        cov_next = cov[..., t + 1, :, :]
        cross[..., t, :, :] = gain @ cov_next
        cov[..., t, :, :] = _sym(inv_t + gain @ cov_next @ np.swapaxes(gain, -1, -2))
    return mean, cov, cross


# ----- single-chain kernel against the loop reference and the dense oracle -----


def max_rel_err(got, ref):
    if ref.size == 0:
        return 0.0
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def kernel_case(rng, T, d, regime, rank_deficient, rho0, batch=()):
    """Random PSD sites (every odd time rank-deficient when asked) and
    transition precisions in the given regime, for chains of shape batch."""
    rank = d - 1 if rank_deficient else d
    A = rng.standard_normal(batch + (T, d, rank))
    P = A @ np.swapaxes(A, -1, -2)
    if rank_deficient:
        P[..., ::2, :, :] += np.eye(d)
    h = rng.standard_normal(batch + (T, d))
    if regime == "spread":
        rho = 10.0 ** rng.uniform(-12.0, 9.0, batch + (T - 1,))
    else:
        lo, hi = {
            "moderate": (0.1, 5.0),
            "near_zero": (1e-6, 1e-3),
            "near_floor": (PRECISION_FLOOR, 10 * PRECISION_FLOOR),
        }[regime]
        rho = rng.uniform(lo, hi, batch + (T - 1,))
    return rho0, rho, P, h


@pytest.mark.parametrize("regime", ["moderate", "near_zero", "near_floor"])
@pytest.mark.parametrize("T", [1, 2, 30, 100])
@pytest.mark.parametrize("d", [1, 2])
def test_single_chain_kernel_matches_batched_and_oracle(d, T, regime):
    rng = np.random.default_rng(1000 * d + T)
    for rank_deficient in (False, True):
        for rho0 in (0.0, 0.7):
            rho0, rho, P, h = kernel_case(rng, T, d, regime, rank_deficient, rho0)
            single = smooth_core(rho0, rho, P, h)
            batched = loop_smooth(rho0, rho, P[None], h[None])
            for got, ref in zip(single, batched):
                assert got.shape == ref.shape[1:]
                assert max_rel_err(got, ref[0]) <= 1e-12
            if T * d > 64:
                continue
            prior = GaussianChainPrior(d, rho0, rho)
            oracle = dense_joint_oracle(prior, SitePotential(P, h))
            # The dense inverse loses digits with the conditioning of the
            # joint precision (rho near the floor nearly detaches the
            # rank-deficient blocks), so the bound is 1e-12 up to a
            # condition number of 1e4 and cond * 1e-16 beyond it.
            cond = np.linalg.cond(joint_precision(prior, P))
            tol = 1e-12 * max(1.0, cond / 1e4)
            for got, ref in zip(single, (oracle.mean, oracle.cov, oracle.cross_cov)):
                assert max_rel_err(got, ref) <= tol


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", ["nan", "inf", "not_pd"])
def test_single_chain_kernel_raises_like_batched(d, bad):
    rng = np.random.default_rng(31)
    T = 6
    rho0, rho, P, h = kernel_case(rng, T, d, "moderate", False, 0.5)
    if bad == "nan":
        P[3, 0, 0] = np.nan
    elif bad == "inf":
        P[3, -1, -1] = np.inf
    elif d == 1:
        P[3] = -50.0
    else:
        # Positive diagonal, negative determinant.
        P[3] = [[1.0, 40.0], [40.0, 1.0]]
    errors = []
    for args in ((P, h), (P[None], h[None])):
        with pytest.raises(DegeneratePosteriorError) as info:
            smooth_core(rho0, rho, *args)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == "chain total precision is not positive definite"


# ----- cyclic reduction against the loop reference and the dense oracle --------


@pytest.mark.parametrize("regime", ["moderate", "near_zero", "near_floor", "spread"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 100])
def test_cyclic_reduction_matches_loop_and_oracle(T, d, regime):
    # T covers every odd/even split of a level: odd and even lengths, powers
    # of two and their neighbours.  The bound against both references is
    # relative 1e-12 up to a joint condition number of 1e4 and cond * 1e-16
    # beyond it.  With rho spread over 1e-12..1e9 it is cond * 1e-15: there
    # each of the three methods, measured against a 50-digit inverse, is off
    # by up to ~5e-17 * cond, and the loop by up to 6.5e-7 in all.
    rng = np.random.default_rng(100 * T + 10 * d + len(regime))
    for batch in [(3,), (2, 3)] + ([()] if d == 3 else []):
        for rank_deficient in (False, True):
            rho0 = rng.uniform(0.0, 1.0, batch)
            rho0.flat[0] = 0.0
            rho0, rho, P, h = kernel_case(rng, T, d, regime, rank_deficient, rho0, batch)
            got = smooth_core(rho0, rho, P, h)
            ref = loop_smooth(rho0, rho, P, h)
            for out, out_ref in zip(got, ref):
                assert out.shape == out_ref.shape
            np.testing.assert_array_equal(got[1], np.swapaxes(got[1], -1, -2))
            for idx in np.ndindex(batch):
                prior = GaussianChainPrior(d, float(rho0[idx]), rho[idx])
                cond = np.linalg.cond(joint_precision(prior, P[idx]))
                tol = 1e-12 * max(1.0, cond / (1e3 if regime == "spread" else 1e4))
                for out, out_ref in zip(got, ref):
                    assert max_rel_err(out[idx], out_ref[idx]) <= tol
                if T * d > 64:
                    continue
                oracle = dense_joint_oracle(prior, SitePotential(P[idx], h[idx]))
                for out, out_ref in zip(got, (oracle.mean, oracle.cov, oracle.cross_cov)):
                    assert max_rel_err(out[idx], out_ref) <= tol


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", ["nan", "inf", "not_pd"])
@pytest.mark.parametrize("T, where", [(7, 2), (7, 3), (7, 6), (8, 7)])
def test_cyclic_reduction_raises_like_loop(d, bad, T, where):
    # Blocks 2 (even), 3 (odd) and the last one, of odd and of even index.
    rng = np.random.default_rng(37)
    for batch in [(3,)] + ([()] if d == 3 else []):
        rho0, rho, P, h = kernel_case(rng, T, d, "moderate", False, 0.5, batch)
        block = P.reshape(-1, T, d, d)[-1, where]
        if bad == "nan":
            block[0, 0] = np.nan
        elif bad == "inf":
            block[-1, -1] = np.inf
        elif d == 1:
            block[:] = -50.0
        else:
            # Positive diagonal, negative leading 2x2 determinant.
            block[:] = np.eye(d)
            block[0, 1] = block[1, 0] = 40.0
        errors = []
        for smoother in (smooth_core, loop_smooth):
            with pytest.raises(DegeneratePosteriorError) as info:
                smoother(rho0, rho, P, h)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "chain total precision is not positive definite"


# ----- smooth_core contract: inputs untouched, fresh contiguous outputs --------


@pytest.mark.parametrize("T", [1, 2, 7, 100])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_smooth_core_leaves_inputs_and_returns_contiguous(batch, d, T):
    # The reduction moves axes through views; a view of an input written in
    # place, or a non-contiguous view handed back (and stored in a mode's
    # state), would corrupt or slow later sweeps.
    rng = np.random.default_rng(10 * T + d + len(batch))
    for broadcast_rho in (False, True) if batch else (False,):
        rho0, rho, P, h = kernel_case(rng, T, d, "moderate", False, 0.0, batch)
        rho0 = rng.uniform(0.1, 1.0, batch)
        if broadcast_rho:
            rho = rho[(0,) * len(batch)]  # one (T-1,) row shared by every chain
        inputs = (rho0, rho, P, h)
        before = [x.copy() for x in inputs]
        outs = smooth_core(*inputs)
        for x, x0 in zip(inputs, before):
            np.testing.assert_array_equal(x, x0)
        shapes = (batch + (T, d), batch + (T, d, d), batch + (T - 1, d, d))
        for out, shape in zip(outs, shapes):
            assert out.shape == shape
            assert out.flags.c_contiguous
            for x in inputs:
                assert not np.shares_memory(out, x)


# ----- single-chain kernels against their per-step tuple form ------------------


def tuple_smooth_d1(rho0, rho, precision, shift):
    """The d = 1 kernel as it collected its outputs before: one entry per
    step, reversed in place, then converted."""
    T = precision.shape[0]
    sites = precision.reshape(T).tolist()
    shifts = shift.reshape(T).tolist()
    diag = _diag_shifts(rho0, rho)
    invs, bhats = [], []
    inv = bhat = 0.0
    for t in range(T):
        a = sites[t] + diag[t]
        if t:
            r = rho[t - 1]
            a = a - r * r * inv
            bhat = shifts[t] + r * (inv * bhat)
        else:
            bhat = shifts[0]
        inv = 1.0 / a
        invs.append(inv)
        bhats.append(bhat)
    m, c = inv * bhat, inv
    mean, cov, cross = [m], [c], []
    for t in range(T - 2, -1, -1):
        inv = invs[t]
        g = rho[t] * inv
        m = inv * bhats[t] + g * m
        x = g * c
        c = inv + x * g
        mean.append(m)
        cov.append(c)
        cross.append(x)
    for out in (mean, cov, cross):
        out.reverse()
    return (
        np.array(mean).reshape(T, 1),
        np.array(cov).reshape(T, 1, 1),
        np.array(cross, dtype=float).reshape(T - 1, 1, 1),
    )


def tuple_smooth_d2(rho0, rho, precision, shift):
    """The d = 2 kernel as it collected its outputs before: a tuple of
    entries per step, reversed in place, then converted."""
    T = precision.shape[0]
    sites = precision.reshape(T, 4).tolist()
    shifts = shift.tolist()
    diag = _diag_shifts(rho0, rho)
    invs, bhats = [], []
    i00 = i01 = i11 = b0 = b1 = 0.0
    for t in range(T):
        p00, p01, p10, p11 = sites[t]
        h0, h1 = shifts[t]
        a = p00 + diag[t]
        c = p11 + diag[t]
        if t:
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
        inv_det = 1.0 / (a * c - b * b)
        i00, i01, i11 = c * inv_det, -b * inv_det, a * inv_det
        invs.append((i00, i01, i11))
        bhats.append((b0, b1))
    m0 = i00 * b0 + i01 * b1
    m1 = i01 * b0 + i11 * b1
    c00, c01, c11 = i00, i01, i11
    mean, cov, cross = [(m0, m1)], [(c00, c01, c01, c11)], []
    for t in range(T - 2, -1, -1):
        i00, i01, i11 = invs[t]
        b0, b1 = bhats[t]
        r = rho[t]
        g00, g01, g11 = r * i00, r * i01, r * i11
        m0, m1 = (
            (i00 * b0 + i01 * b1) + (g00 * m0 + g01 * m1),
            (i01 * b0 + i11 * b1) + (g01 * m0 + g11 * m1),
        )
        x00 = g00 * c00 + g01 * c01
        x01 = g00 * c01 + g01 * c11
        x10 = g01 * c00 + g11 * c01
        x11 = g01 * c01 + g11 * c11
        c00 = i00 + (x00 * g00 + x01 * g01)
        c01 = 0.5 * (
            (i01 + (x00 * g01 + x01 * g11)) + (i01 + (x10 * g00 + x11 * g01))
        )
        c11 = i11 + (x10 * g01 + x11 * g11)
        mean.append((m0, m1))
        cov.append((c00, c01, c01, c11))
        cross.append((x00, x01, x10, x11))
    for out in (mean, cov, cross):
        out.reverse()
    return (
        np.array(mean).reshape(T, 2),
        np.array(cov).reshape(T, 2, 2),
        np.array(cross, dtype=float).reshape(T - 1, 2, 2),
    )


@pytest.mark.parametrize("regime", ["moderate", "near_zero", "near_floor", "spread"])
@pytest.mark.parametrize("T", [1, 2, 3, 30, 100])
@pytest.mark.parametrize("d", [1, 2])
def test_single_chain_kernel_equals_tuple_form(d, T, regime):
    # Each kernel now extends one flat list per output and reverses it once;
    # the arithmetic is unchanged, so the outputs are the same bits.
    rng = np.random.default_rng(200 * d + T + len(regime))
    reference = tuple_smooth_d1 if d == 1 else tuple_smooth_d2
    for rank_deficient in (False, True):
        for rho0 in (0.0, 0.7):
            rho0, rho, P, h = kernel_case(rng, T, d, regime, rank_deficient, rho0)
            got = smooth_core(rho0, rho, P, h)
            want = reference(rho0, rho.tolist(), P, h)
            for out, out_ref in zip(got, want):
                assert out.dtype == np.float64 and out.flags.c_contiguous
                assert out.shape == out_ref.shape
                np.testing.assert_array_equal(out, out_ref)
