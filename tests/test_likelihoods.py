"""Site builders against plug-in values, Monte Carlo, and brute force."""
import re
from itertools import product

import numpy as np
import pytest

from fusionshrink.likelihoods import (
    ModeMoments,
    NetworkDyads,
    NormalQ,
    ObservationSet,
    bernoulli_site_subject,
    bernoulli_site_weights,
    cp_stack,
    expected_sse,
    fold,
    gaussian_matrix_sites,
    gaussian_noise_update,
    intercept_update,
    khatri_rao,
    logistic_quad_coeff,
    logistic_quad_const,
    pair_products,
    predicted_moments,
    tensor_sites,
    unfold,
    xi_update,
)
from fusionshrink.scales import InverseGammaQ

UNIT_NOISE = InverseGammaQ(1.0, 1.0)  # E[1/sigma^2] = 1


def random_moments(rng, n, T, d, point_mass=False):
    mean = rng.standard_normal((n, T, d))
    if point_mass:
        second = mean[..., :, None] * mean[..., None, :]
    else:
        A = rng.standard_normal((n, T, d, d))
        cov = 0.3 * np.einsum("ntij,ntkj->ntik", A, A)
        second = cov + mean[..., :, None] * mean[..., None, :]
    return ModeMoments(mean=mean, second=second)


# ----- observation validation -------------------------------------------------


def test_observation_set_validation():
    with pytest.raises(ValueError):
        ObservationSet(kind="nope", values=np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        ObservationSet(kind="gaussian-matrix", values=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ObservationSet(kind="gaussian-tensor", values=np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="binary"):
        ObservationSet(kind="bernoulli-network", values=np.full((2, 3, 3), 0.5))
    asym = np.zeros((1, 3, 3))
    asym[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        ObservationSet(kind="bernoulli-network", values=asym)
    diag = np.zeros((1, 3, 3))
    diag[0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="diagonal"):
        ObservationSet(kind="bernoulli-network", values=diag)
    with pytest.raises(ValueError, match="mask"):
        ObservationSet(
            kind="gaussian-matrix",
            values=np.zeros((2, 3, 4)),
            mask=np.ones((2, 3, 3)),
        )
    with pytest.raises(ValueError):
        ObservationSet(
            kind="gaussian-matrix",
            values=np.zeros((2, 3, 4)),
            mask=np.full((2, 3, 4), 0.5),
        )


@pytest.mark.parametrize("kind, shape", [
    ("gaussian-matrix", (2, 3, 4)),
    ("gaussian-tensor", (2, 3, 4, 2)),
    ("bernoulli-network", (2, 3, 3)),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observation_set_rejects_non_finite(kind, shape, bad):
    rest = (0,) * (len(shape) - 3)
    values = np.zeros(shape)
    values[(1, 2, 0) + rest] = bad
    values[(1, 0, 2) + rest] = bad  # keeps the network slice symmetric
    mask = np.ones(shape)
    mask[(1, 2, 0) + rest] = mask[(1, 0, 2) + rest] = 0  # no exception yet
    message = f"2 non-finite value(s), the first {bad!r} at index (1, 0, 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        ObservationSet(kind=kind, values=values, mask=mask)


@pytest.mark.parametrize("kind, shape", [
    ("gaussian-matrix", (0, 3, 3)),
    ("gaussian-matrix", (4, 0, 3)),
    ("gaussian-matrix", (4, 3, 0)),
    ("gaussian-tensor", (2, 3, 0, 2)),
    ("bernoulli-network", (2, 0, 0)),
])
def test_observation_set_rejects_empty_axis(kind, shape):
    # Before, (0, 3, 3) reached `fit` and failed there with numpy's
    # "negative dimensions are not allowed".
    with pytest.raises(ValueError, match=re.escape(f"no empty axis, got shape {shape}")):
        ObservationSet(kind=kind, values=np.zeros(shape))


def test_count_observed():
    obs = ObservationSet(kind="gaussian-matrix", values=np.zeros((2, 3, 4)))
    assert obs.count_observed() == 24.0
    net = ObservationSet(kind="bernoulli-network", values=np.zeros((2, 4, 4)))
    assert net.count_observed() == 12.0  # 6 dyads per slice
    mask = np.ones((2, 3, 4))
    mask[0, 0, 0] = 0
    obs = ObservationSet(kind="gaussian-matrix", values=np.zeros((2, 3, 4)), mask=mask)
    assert obs.count_observed() == 23.0


# ----- logistic tangent bound -------------------------------------------------


def test_quad_coeff_values():
    assert logistic_quad_coeff(0.0) == pytest.approx(-0.125, abs=1e-12)
    assert logistic_quad_coeff(2.0) == pytest.approx(-np.tanh(1.0) / 8.0, abs=1e-12)
    assert logistic_quad_coeff(2.0) == pytest.approx(-0.0951993, abs=1e-6)
    # continuity across the series switch point
    left = logistic_quad_coeff(9.9e-7)
    right = logistic_quad_coeff(1.1e-6)
    assert abs(left - right) < 1e-12


def bound_value(x, y, xi):
    return (
        logistic_quad_coeff(xi) * x**2
        + (y - 0.5) * x
        + logistic_quad_const(xi)
    )


def true_loglik(x, y):
    return y * x - np.logaddexp(0.0, x)


def test_tangent_bound_lower_bounds_and_touches():
    rng = np.random.default_rng(0)
    grid = np.linspace(-6.0, 6.0, 200)
    for xi in rng.uniform(0.0, 6.0, 10):
        for y in (0.0, 1.0):
            gap = true_loglik(grid, y) - bound_value(grid, y, xi)
            assert gap.min() >= -1e-12
            for x0 in (xi, -xi):
                assert true_loglik(x0, y) - bound_value(x0, y, xi) == pytest.approx(
                    0.0, abs=1e-10
                )


# ----- gaussian matrix sites --------------------------------------------------


def test_gaussian_sites_single_entry():
    # One column partner at point mass e1, Y = 2: P = e1 e1', h = 2 e1.
    d = 2
    e1 = np.array([1.0, 0.0])
    other = ModeMoments(
        mean=e1[None, None, :], second=np.outer(e1, e1)[None, None, :, :]
    )
    Y = np.full((1, 1, 1), 2.0)
    P, h = gaussian_matrix_sites(Y, other, UNIT_NOISE, alpha=1.0)
    np.testing.assert_allclose(P[0, 0], np.outer(e1, e1))
    np.testing.assert_allclose(h[0, 0], 2.0 * e1)


def test_gaussian_sites_alpha_zero_and_scaling():
    rng = np.random.default_rng(1)
    other = random_moments(rng, 5, 3, 2)
    Y = rng.standard_normal((3, 4, 5))
    P0, h0 = gaussian_matrix_sites(Y, other, UNIT_NOISE, alpha=0.0)
    assert not P0.any() and not h0.any()
    # alpha and noise precision enter only through their product
    P1, h1 = gaussian_matrix_sites(Y, other, InverseGammaQ(2.0, 1.0), alpha=0.5)
    P2, h2 = gaussian_matrix_sites(Y, other, InverseGammaQ(1.0, 1.0), alpha=1.0)
    np.testing.assert_allclose(P1, P2, rtol=1e-15)
    np.testing.assert_allclose(h1, h2, rtol=1e-15)


def test_gaussian_sites_direct_recomputation():
    rng = np.random.default_rng(2)
    T, n, p, d = 3, 4, 5, 2
    other = random_moments(rng, p, T, d)
    Y = rng.standard_normal((T, n, p))
    alpha = 0.7
    noise = InverseGammaQ(3.0, 2.0)
    P, h = gaussian_matrix_sites(Y, other, noise, alpha)
    w = alpha * noise.mean_inverse
    for i in range(n):
        for t in range(T):
            P_ref = w * sum(other.second[j, t] for j in range(p))
            h_ref = w * sum(Y[t, i, j] * other.mean[j, t] for j in range(p))
            np.testing.assert_allclose(P[i, t], P_ref, atol=1e-12)
            np.testing.assert_allclose(h[i, t], h_ref, atol=1e-12)


def test_gaussian_sites_mask_invariance():
    # Corrupting unobserved cells must not move the sites.
    rng = np.random.default_rng(3)
    T, n, p, d = 3, 4, 5, 2
    other = random_moments(rng, p, T, d)
    Y = rng.standard_normal((T, n, p))
    mask = (rng.random((T, n, p)) < 0.6).astype(float)
    P1, h1 = gaussian_matrix_sites(Y, other, UNIT_NOISE, 1.0, mask)
    corrupted = Y + (1.0 - mask) * rng.standard_normal((T, n, p)) * 100
    P2, h2 = gaussian_matrix_sites(corrupted, other, UNIT_NOISE, 1.0, mask)
    np.testing.assert_array_equal(P1, P2)
    np.testing.assert_array_equal(h1, h2)
    # Full mask equals no mask.
    P3, h3 = gaussian_matrix_sites(Y, other, UNIT_NOISE, 1.0, np.ones((T, n, p)))
    P4, h4 = gaussian_matrix_sites(Y, other, UNIT_NOISE, 1.0)
    np.testing.assert_allclose(P3, P4, atol=1e-12)
    np.testing.assert_allclose(h3, h4, atol=1e-12)


# ----- noise update -----------------------------------------------------------


def test_noise_update_exact_fit():
    rng = np.random.default_rng(4)
    T, n, p, d = 2, 3, 4, 2
    rows = random_moments(rng, n, T, d, point_mass=True)
    cols = random_moments(rng, p, T, d, point_mass=True)
    Y = np.stack([rows.mean[:, t] @ cols.mean[:, t].T for t in range(T)])
    obs = ObservationSet(kind="gaussian-matrix", values=Y)
    q = gaussian_noise_update(obs, [rows, cols], alpha=0.9, a_sigma=0.5, b_sigma=0.5)
    assert float(q.shape) == pytest.approx(0.5 + 0.9 * T * n * p / 2)
    assert float(q.rate) == pytest.approx(0.5, abs=1e-9)


def test_noise_update_single_obs_plugin():
    d = 2
    rows = ModeMoments(mean=np.zeros((1, 1, d)), second=np.eye(d)[None, None])
    cols = ModeMoments(mean=np.zeros((1, 1, d)), second=np.eye(d)[None, None])
    obs = ObservationSet(kind="gaussian-matrix", values=np.ones((1, 1, 1)))
    q = gaussian_noise_update(obs, [rows, cols], alpha=1.0, a_sigma=0.5, b_sigma=0.5)
    assert float(q.rate) == pytest.approx(0.5 + (1 + d) / 2)


def test_expected_square_matches_monte_carlo():
    rng = np.random.default_rng(5)
    d = 3
    mu_u, mu_v = rng.standard_normal(d), rng.standard_normal(d)
    Au, Av = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    Su, Sv = 0.2 * Au @ Au.T, 0.2 * Av @ Av.T
    rows = ModeMoments(
        mean=mu_u[None, None], second=(Su + np.outer(mu_u, mu_u))[None, None]
    )
    cols = ModeMoments(
        mean=mu_v[None, None], second=(Sv + np.outer(mu_v, mu_v))[None, None]
    )
    y = 1.3
    obs = ObservationSet(kind="gaussian-matrix", values=np.full((1, 1, 1), y))
    q = gaussian_noise_update(obs, [rows, cols], alpha=1.0, a_sigma=0.5, b_sigma=0.5)
    e_sq = 2.0 * (float(q.rate) - 0.5)  # recover sum E[(Y-m)^2]
    m = 1_000_000
    u = rng.multivariate_normal(mu_u, Su, size=m)
    v = rng.multivariate_normal(mu_v, Sv, size=m)
    mc = np.mean((y - np.sum(u * v, axis=1)) ** 2)
    assert e_sq == pytest.approx(mc, rel=0.01)


# ----- bernoulli sites --------------------------------------------------------


def network_dyads(Y, mask=None):
    return NetworkDyads.from_obs(ObservationSet("bernoulli-network", Y, mask))


def network_site(Y, moments, xi, subject, alpha, mask=None, intercept_mean=0.0):
    """bernoulli_site_subject from full (T, n, n) data, mask and xi."""
    dyads = network_dyads(Y, mask)
    curv = logistic_quad_coeff(dyads.pack(xi))
    n, T, _ = moments.mean.shape
    return bernoulli_site_subject(
        *bernoulli_site_weights(dyads, curv, alpha, intercept_mean),
        dyads.cols[subject],
        moments.second.transpose(1, 0, 2, 3).reshape(T, n, -1),
        moments.mean.transpose(1, 0, 2),
    )


def random_network(rng, T, n):
    vals = np.triu(rng.integers(0, 2, (T, n, n)).astype(float), 1)
    return vals + np.swapaxes(vals, 1, 2)


def test_network_dyads_pack_and_columns():
    rng = np.random.default_rng(61)
    T, n = 3, 6
    Y = random_network(rng, T, n)
    mask = np.triu((rng.random((T, n, n)) < 0.7).astype(float), 1)
    mask = mask + np.swapaxes(mask, 1, 2)
    dyads = network_dyads(Y, mask)
    iu = np.triu_indices(n, k=1)
    D = iu[0].size
    np.testing.assert_array_equal(dyads.resid, Y[:, iu[0], iu[1]] - 0.5)
    np.testing.assert_array_equal(dyads.weight, mask[:, iu[0], iu[1]])
    assert network_dyads(Y).weight is None
    padded = np.concatenate([dyads.resid, np.zeros((T, 1))], axis=1)
    for i in range(n):
        assert dyads.cols[i, i] == D
        row = Y[:, i, :] - 0.5
        row[:, i] = 0.0
        np.testing.assert_array_equal(padded[:, dyads.cols[i]], row)


def test_bernoulli_single_edge_plugin():
    d = 2
    n, T = 2, 1
    mean = np.zeros((n, T, d))
    mean[1, 0] = [1.0, 0.0]
    second = np.broadcast_to(np.eye(d), (n, T, d, d)).copy()
    moments = ModeMoments(mean=mean, second=second)
    Y = np.zeros((T, n, n))
    Y[0, 0, 1] = Y[0, 1, 0] = 1.0
    xi = np.zeros((T, n, n))
    P, h = network_site(Y, moments, xi, subject=0, alpha=1.0)
    np.testing.assert_allclose(P[0], 0.25 * np.eye(d), atol=1e-12)
    np.testing.assert_allclose(h[0], [0.5, 0.0], atol=1e-12)


def test_bernoulli_sites_always_psd():
    rng = np.random.default_rng(6)
    n, T, d = 5, 3, 2
    moments = random_moments(rng, n, T, d)
    Y = random_network(rng, T, n)
    xi = rng.uniform(0.0, 5.0, (T, n, n))
    for i in range(n):
        P, _ = network_site(Y, moments, xi, subject=i, alpha=0.95)
        assert np.linalg.eigvalsh(P).min() > -1e-10


def test_bernoulli_excludes_self_and_mask():
    rng = np.random.default_rng(7)
    n, T, d = 4, 2, 2
    moments = random_moments(rng, n, T, d)
    Y = np.zeros((T, n, n))
    xi = np.ones((T, n, n))
    mask = np.ones((T, n, n))
    mask[:, 0, 2] = mask[:, 2, 0] = 0.0
    P_all, h_all = network_site(Y, moments, xi, 0, 1.0)
    P_m, h_m = network_site(Y, moments, xi, 0, 1.0, mask=mask)
    a = logistic_quad_coeff(1.0)
    # removing partner 2 subtracts its exact contribution
    np.testing.assert_allclose(
        P_all - P_m, -2.0 * a * moments.second[2].transpose(0, 1, 2), atol=1e-12
    )
    np.testing.assert_allclose(
        h_all - h_m, -0.5 * moments.mean[2], atol=1e-12
    )


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_bernoulli_site_matches_einsum_form(d, masked):
    """The packed weights times time-major moments (one matmul each) agree
    with the per-subject einsum over full (T, n, n) arrays to 1e-14 of the
    largest entry: the same terms, summed in another order."""
    rng = np.random.default_rng(62)
    n, T, alpha, b = 9, 7, 0.95, -0.7
    moments = random_moments(rng, n, T, d)
    Y = random_network(rng, T, n)
    mask = None
    if masked:
        mask = np.triu((rng.random((T, n, n)) < 0.7).astype(float), 1)
        mask = mask + np.swapaxes(mask, 1, 2)
    xi = rng.uniform(0.0, 5.0, (T, n, n))
    xi = 0.5 * (xi + np.swapaxes(xi, 1, 2))
    for i in range(n):
        P, h = network_site(Y, moments, xi, i, alpha, mask, intercept_mean=b)
        a = logistic_quad_coeff(xi)[:, i, :]
        wgt = np.ones((T, n)) if mask is None else mask[:, i, :].copy()
        wgt[:, i] = 0.0
        P_ref = -2.0 * alpha * np.einsum("tj,jtab->tab", a * wgt, moments.second)
        resid = (Y[:, i, :] - 0.5 + 2.0 * a * b) * wgt
        h_ref = alpha * np.einsum("tj,jtd->td", resid, moments.mean)
        for got, ref in ((P, P_ref), (h, h_ref)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ----- xi and intercept -------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_products_match_einsum_forms(d):
    rng = np.random.default_rng(60)
    moments = random_moments(rng, 9, 6, d)
    inner = np.einsum("itd,jtd->tij", moments.mean, moments.mean)
    pair_sq = np.einsum("itab,jtab->tij", moments.second, moments.second)
    for got, ref in (
        (pair_products(moments.mean), inner),
        (pair_products(moments.second), pair_sq),
    ):
        assert got.shape == (6, 9, 9)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("intercept", [False, True])
def test_packed_xi_curvature_and_intercept_equal_full_array_forms(intercept, masked):
    """xi, A(xi) and the intercept from packed dyads are the bits of the
    (T, n, n) formulas gathered over i < j."""
    rng = np.random.default_rng(63)
    n, T, d, alpha, prior_var = 8, 5, 2, 0.9, 50.0
    moments = random_moments(rng, n, T, d)
    Y = random_network(rng, T, n)
    mask = None
    if masked:
        mask = np.triu((rng.random((T, n, n)) < 0.7).astype(float), 1)
        mask = mask + np.swapaxes(mask, 1, 2)
    b = NormalQ(mean=0.4, var=0.2) if intercept else None
    dyads = network_dyads(Y, mask)
    xi, inner, pair_sq = xi_update(moments, dyads, b)
    curv = logistic_quad_coeff(xi)
    q = intercept_update(dyads, curv, inner, alpha, prior_var)

    iu = np.triu_indices(n, k=1)
    full_inner = pair_products(moments.mean)
    full_sq = pair_products(moments.second)
    if b is not None:
        full_sq = full_sq + b.second_moment + 2.0 * b.mean * full_inner
    full_xi = np.sqrt(np.maximum(full_sq, 0.0))
    np.testing.assert_array_equal(xi, full_xi[:, iu[0], iu[1]])
    np.testing.assert_array_equal(curv, logistic_quad_coeff(full_xi)[:, iu[0], iu[1]])
    np.testing.assert_array_equal(inner, full_inner[:, iu[0], iu[1]])
    np.testing.assert_array_equal(pair_sq, pair_products(moments.second)[:, iu[0], iu[1]])
    a = logistic_quad_coeff(full_xi)[:, iu[0], iu[1]]
    wgt = np.ones_like(a) if mask is None else mask[:, iu[0], iu[1]]
    prec = 1.0 / prior_var - 2.0 * alpha * np.sum(a * wgt)
    lin = alpha * np.sum(
        (Y[:, iu[0], iu[1]] - 0.5 + 2.0 * a * full_inner[:, iu[0], iu[1]]) * wgt
    )
    assert (q.mean, q.var) == (lin / prec, 1.0 / prec)


def test_xi_point_mass_and_trace():
    d = 2
    e1 = np.array([1.0, 0.0])
    mean = np.stack([e1, e1])[:, None, :]
    second = np.stack([np.outer(e1, e1)] * 2)[:, None]
    dyads = network_dyads(np.zeros((1, 2, 2)))
    xi, _, _ = xi_update(ModeMoments(mean=mean, second=second), dyads)
    assert xi.shape == (1, 1)  # one dyad, no diagonal
    assert xi[0, 0] == pytest.approx(1.0)
    zero_mean = ModeMoments(
        mean=np.zeros((2, 1, d)), second=np.broadcast_to(np.eye(d), (2, 1, d, d))
    )
    xi, _, _ = xi_update(zero_mean, dyads)
    assert xi[0, 0] == pytest.approx(np.sqrt(2.0))


def test_xi_matches_monte_carlo():
    rng = np.random.default_rng(8)
    d = 2
    mu = rng.standard_normal((2, d))
    A = rng.standard_normal((2, d, d))
    covs = 0.3 * np.einsum("nij,nkj->nik", A, A)
    second = covs + np.einsum("ni,nj->nij", mu, mu)
    moments = ModeMoments(mean=mu[:, None], second=second[:, None])
    b = NormalQ(mean=0.4, var=0.2)
    xi, _, _ = xi_update(moments, network_dyads(np.zeros((1, 2, 2))), b)
    m = 1_000_000
    u = rng.multivariate_normal(mu[0], covs[0], size=m)
    v = rng.multivariate_normal(mu[1], covs[1], size=m)
    bs = rng.normal(b.mean, np.sqrt(b.var), size=m)
    mc = np.sqrt(np.mean((bs + np.sum(u * v, axis=1)) ** 2))
    assert xi[0, 0] == pytest.approx(mc, rel=0.01)


def network_intercept(Y, moments, xi, alpha, prior_var, mask=None):
    """intercept_update from full (T, n, n) data, mask and xi."""
    dyads = network_dyads(Y, mask)
    inner = dyads.pack(pair_products(moments.mean))
    curv = logistic_quad_coeff(dyads.pack(xi))
    return intercept_update(dyads, curv, inner, alpha, prior_var)


def test_intercept_no_observations_returns_prior():
    moments = ModeMoments(
        mean=np.zeros((3, 1, 2)), second=np.broadcast_to(np.eye(2), (3, 1, 2, 2))
    )
    Y = np.zeros((1, 3, 3))
    xi = np.ones((1, 3, 3))
    q = network_intercept(
        Y, moments, xi, alpha=1.0, prior_var=9.0, mask=np.zeros((1, 3, 3))
    )
    assert q.mean == pytest.approx(0.0)
    assert q.var == pytest.approx(9.0)


def test_intercept_single_obs_plugin():
    # one dyad, xi=0, Y=1, mu_x=0, alpha=1, flat prior: mean -> 2.
    moments = ModeMoments(
        mean=np.zeros((2, 1, 2)), second=np.zeros((2, 1, 2, 2))
    )
    Y = np.zeros((1, 2, 2))
    Y[0, 0, 1] = Y[0, 1, 0] = 1.0
    xi = np.zeros((1, 2, 2))
    q = network_intercept(Y, moments, xi, alpha=1.0, prior_var=1e12)
    assert q.mean == pytest.approx(2.0, abs=1e-9)
    assert q.var == pytest.approx(4.0, abs=1e-9)


def test_intercept_maximises_tangent_bound():
    rng = np.random.default_rng(9)
    n, T, d = 4, 2, 2
    moments = random_moments(rng, n, T, d)
    Y = random_network(rng, T, n)
    dyads = network_dyads(Y)
    xi, inner, _ = xi_update(moments, dyads)
    alpha = 0.9
    prior_var = 50.0
    q = intercept_update(dyads, logistic_quad_coeff(xi), inner, alpha, prior_var)

    iu = np.triu_indices(n, k=1)
    a = logistic_quad_coeff(xi)
    inner = np.einsum("itd,jtd->tij", moments.mean, moments.mean)[:, iu[0], iu[1]]
    x2 = np.einsum("itab,jtab->tij", moments.second, moments.second)[:, iu[0], iu[1]]
    yv = Y[:, iu[0], iu[1]]

    def neg_bound(b):
        # E[bound] as a function of the intercept value b (point evaluation)
        quad = a * (b**2 + 2.0 * b * inner + x2)
        lin = (yv - 0.5) * (b + inner)
        return -(alpha * np.sum(quad + lin) - b**2 / (2 * prior_var))

    grid = np.linspace(q.mean - 0.5, q.mean + 0.5, 2001)
    best = grid[np.argmin([neg_bound(b) for b in grid])]
    assert q.mean == pytest.approx(best, abs=1e-3)


@pytest.mark.parametrize(
    "mean, var, message",
    [
        (np.nan, 1.0, "mean must be finite"),
        (np.inf, 1.0, "mean must be finite"),
        (-np.inf, 1.0, "mean must be finite"),
        (0.0, np.nan, "variance must be positive and finite"),
        (0.0, np.inf, "variance must be positive and finite"),
        (0.0, 0.0, "variance must be positive and finite"),
        (0.0, -1.0, "variance must be positive and finite"),
    ],
)
def test_normal_q_rejects_non_finite_or_non_positive(mean, var, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        NormalQ(mean, var)
    q = NormalQ(-2.0, 1e-300)  # any finite mean and positive finite variance
    assert q.second_moment == pytest.approx(4.0)


# ----- hadamard and tensor sites ----------------------------------------------


def hadamard_moment(e_aat, mu_b, sigma_b):
    """E[(a o b)(a o b)'] of independent a and b, given E[aa'], E[b] and
    Cov(b), as the tensor sites form it: khatri_rao of the flattened second
    moments E[aa'] and E[bb'], for one subject at one time."""
    d = len(mu_b)
    e_bbt = sigma_b + np.outer(mu_b, mu_b)
    flat = [e_aat.reshape(1, 1, d * d), e_bbt.reshape(1, 1, d * d)]
    return khatri_rao(flat).reshape(d, d)


def test_hadamard_plugins():
    E = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(hadamard_moment(E, np.ones(2), np.zeros((2, 2))), E)
    np.testing.assert_allclose(
        hadamard_moment(np.eye(2), np.zeros(2), np.eye(2)), np.eye(2)
    )


def test_hadamard_matches_monte_carlo():
    rng = np.random.default_rng(10)
    d = 3
    for _ in range(3):
        mu_a, mu_b = rng.standard_normal((2, d))
        Aa, Ab = rng.standard_normal((2, d, d))
        Sa, Sb = 0.4 * Aa @ Aa.T, 0.4 * Ab @ Ab.T
        e_aat = Sa + np.outer(mu_a, mu_a)
        expected = hadamard_moment(e_aat, mu_b, Sb)
        m = 1_000_000
        a = rng.multivariate_normal(mu_a, Sa, size=m)
        b = rng.multivariate_normal(mu_b, Sb, size=m)
        ab = a * b
        mc = (ab.T @ ab) / m
        rel = np.linalg.norm(expected - mc) / np.linalg.norm(mc)
        assert rel < 0.01


LETTERS = "abcdef"


def test_unfold_roundtrip():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((2, 3, 4, 5))
    for m in range(3):
        U = unfold(X, m)
        assert U.shape == (2, X.shape[1 + m], X[0].size // X.shape[1 + m])
        np.testing.assert_array_equal(fold(U, m, X.shape[1:]), X)
    # mode-0 unfolding columns follow Fortran order of the other axes
    np.testing.assert_array_equal(unfold(X, 0)[1], X[1].reshape(3, -1, order="F"))


@pytest.mark.parametrize("dims", [(3, 4), (3, 2, 4), (2, 3, 2, 3)])
def test_khatri_rao_unfold_fold_match_einsum(dims):
    """Every helper of the CP layout against an index-by-index einsum, with
    a time axis: unfold(Y, m) @ khatri_rao(others) contracts the data with
    the other modes, and fold inverts unfold."""
    rng = np.random.default_rng(17)
    T, k = 3, 2
    M = len(dims)
    factors = [rng.standard_normal((n, T, k)) for n in dims]
    Y = rng.standard_normal((T, *dims))
    idx = LETTERS[:M]
    for m in range(M):
        others = [j for j in range(M) if j != m]
        kr = khatri_rao([factors[j] for j in others])
        # (T, n_o1, n_o2, ..., k): the product of every row combination;
        # row i_o1 + n_o1 (i_o2 + ...) of kr, the lowest mode fastest.
        sub = "".join(idx[j] for j in others)
        ref = np.einsum(
            ",".join(f"{c}tk" for c in sub) + f"->t{sub}k",
            *[factors[j] for j in others],
        )
        ref = ref.transpose(0, *range(M - 1, 0, -1), M).reshape(T, -1, k)
        np.testing.assert_allclose(kr, ref, rtol=1e-14)
        unf = unfold(Y, m)
        for t in range(T):
            for col, rest in enumerate(
                np.ndindex(*[dims[j] for j in others][::-1])
            ):
                cell = [0] * M
                for j, i in zip(others, rest[::-1]):
                    cell[j] = i
                for i in range(dims[m]):
                    cell[m] = i
                    assert unf[t, i, col] == Y[(t, *cell)]
        np.testing.assert_array_equal(fold(unf, m, dims), Y)
        contracted = np.einsum(
            f"t{idx}," + ",".join(f"{idx[j]}tk" for j in others) + f"->{idx[m]}tk",
            Y,
            *[factors[j] for j in others],
        )
        np.testing.assert_allclose(
            (unf @ kr).transpose(1, 0, 2), contracted, rtol=1e-12, atol=1e-12
        )


def test_cp_stack_matches_einsum():
    rng = np.random.default_rng(1)
    T = 3
    for dims in [(4, 2), (4, 2, 5), (2, 3, 2, 2)]:
        factors = [rng.standard_normal((n, T, 3)) for n in dims]
        out = cp_stack(factors)
        idx = LETTERS[: len(dims)]
        expected = np.einsum(
            ",".join(f"{c}tl" for c in idx) + f"->t{idx}", *factors
        )
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_cp_stack_rank_one():
    u = np.array([[1.0], [2.0]])[:, None]
    v = np.array([[1.0], [1.0]])[:, None]
    w = np.array([[1.0], [0.0]])[:, None]
    out = cp_stack([u, v, w])[0]
    expected = np.einsum("il,jl,kl->ijk", u[:, 0], v[:, 0], w[:, 0])
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert out[1, 1, 0] == 2.0 and out[1, 1, 1] == 0.0


def test_tensor_sites_match_brute_force():
    rng = np.random.default_rng(12)
    T, d = 2, 2
    alpha = 0.8
    noise = InverseGammaQ(2.0, 3.0)
    w = alpha * noise.mean_inverse
    for dims, masked in product([(3, 3, 2), (2, 3, 2, 2)], [False, True]):
        M = len(dims)
        moments = [random_moments(rng, n_m, T, d) for n_m in dims]
        Y = rng.standard_normal((T,) + dims)
        mask = (rng.random(Y.shape) < 0.6).astype(float) if masked else None
        for mode in range(M):
            P, h = tensor_sites(Y, moments, noise, alpha, mode, mask)
            others = [m for m in range(M) if m != mode]
            for i, t in product(range(dims[mode]), range(T)):
                P_ref = np.zeros((d, d))
                h_ref = np.zeros(d)
                for rest in np.ndindex(*[dims[m] for m in others]):
                    idx = [0] * M
                    idx[mode] = i
                    sec = np.ones((d, d))
                    mean = np.ones(d)
                    for m, j in zip(others, rest):
                        idx[m] = j
                        sec = sec * moments[m].second[j, t]
                        mean = mean * moments[m].mean[j, t]
                    obs = 1.0 if mask is None else mask[(t, *idx)]
                    P_ref += obs * sec
                    h_ref += obs * Y[(t, *idx)] * mean
                np.testing.assert_allclose(P[i, t], w * P_ref, atol=1e-10)
                np.testing.assert_allclose(h[i, t], w * h_ref, atol=1e-10)


def test_tensor_sites_mask_and_alpha_zero():
    rng = np.random.default_rng(13)
    T, dims, d = 2, (3, 2, 2), 2
    moments = [random_moments(rng, n_m, T, d) for n_m in dims]
    Y = rng.standard_normal((T,) + dims)
    P, h = tensor_sites(Y, moments, UNIT_NOISE, 0.0, mode=0)
    assert not P.any() and not h.any()
    mask = (rng.random(Y.shape) < 0.5).astype(float)
    P1, h1 = tensor_sites(Y, moments, UNIT_NOISE, 1.0, 1, mask=mask)
    corrupted = Y + (1 - mask) * 7.7
    P2, h2 = tensor_sites(corrupted, moments, UNIT_NOISE, 1.0, 1, mask=mask)
    np.testing.assert_array_equal(P1, P2)
    np.testing.assert_array_equal(h1, h2)


def test_tensor_two_modes_is_matrix_path():
    rng = np.random.default_rng(14)
    T, n, p, d = 3, 4, 5, 2
    rows = random_moments(rng, n, T, d)
    cols = random_moments(rng, p, T, d)
    Y = rng.standard_normal((T, n, p))
    P_t, h_t = tensor_sites(Y, [rows, cols], UNIT_NOISE, 0.9, mode=0)
    P_m, h_m = gaussian_matrix_sites(Y, cols, UNIT_NOISE, 0.9)
    np.testing.assert_array_equal(P_t, P_m)
    np.testing.assert_array_equal(h_t, h_m)
    P_t1, h_t1 = tensor_sites(Y, [rows, cols], UNIT_NOISE, 0.9, mode=1)
    P_m1, h_m1 = gaussian_matrix_sites(
        np.swapaxes(Y, 1, 2), rows, UNIT_NOISE, 0.9
    )
    np.testing.assert_array_equal(P_t1, P_m1)
    np.testing.assert_array_equal(h_t1, h_m1)


def test_tensor_point_mass_reduction_to_matrix():
    # Modes 2 and 3 point-mass at e1: the mode-0 site equals the matrix site
    # on the flattened slices with every partner at e1.
    rng = np.random.default_rng(15)
    T, dims, d = 2, (3, 2, 2), 2
    e1 = np.array([1.0, 0.0])
    rows = random_moments(rng, dims[0], T, d)
    point = ModeMoments(
        mean=np.broadcast_to(e1, (dims[1], T, d)).copy(),
        second=np.broadcast_to(np.outer(e1, e1), (dims[1], T, d, d)).copy(),
    )
    point2 = ModeMoments(
        mean=np.broadcast_to(e1, (dims[2], T, d)).copy(),
        second=np.broadcast_to(np.outer(e1, e1), (dims[2], T, d, d)).copy(),
    )
    Y = rng.standard_normal((T,) + dims)
    P_t, h_t = tensor_sites(Y, [rows, point, point2], UNIT_NOISE, 1.0, mode=0)
    flat = Y.reshape(T, dims[0], -1, order="F")
    partners = ModeMoments(
        mean=np.broadcast_to(e1, (dims[1] * dims[2], T, d)).copy(),
        second=np.broadcast_to(np.outer(e1, e1), (dims[1] * dims[2], T, d, d)).copy(),
    )
    P_m, h_m = gaussian_matrix_sites(flat, partners, UNIT_NOISE, 1.0)
    np.testing.assert_allclose(P_t, P_m, atol=1e-14)
    np.testing.assert_allclose(h_t, h_m, atol=1e-14)


def test_predicted_moments_point_mass():
    rng = np.random.default_rng(16)
    T, dims, d = 2, (3, 2, 2), 2
    moments = [random_moments(rng, n_m, T, d, point_mass=True) for n_m in dims]
    mean, second = predicted_moments(moments)
    ref = np.einsum(
        "itl,jtl,ktl->tijk", moments[0].mean, moments[1].mean, moments[2].mean
    )
    np.testing.assert_allclose(mean, ref, atol=1e-12)
    np.testing.assert_allclose(second, ref**2, atol=1e-10)


def predicted_moments_per_time(moments, t):
    """The per-time formula predicted_moments replaced: mode 0 against the
    Khatri-Rao rows of the others, built by a loop from the highest mode
    down, then a Fortran reshape of the mode-0 unfolding."""
    sizes = tuple(mm.mean.shape[0] for mm in moments)
    mrows = moments[-1].mean[:, t]
    srows = moments[-1].second[:, t]
    for mm in moments[-2:0:-1]:
        d = mrows.shape[-1]
        mrows = (mrows[:, None, :] * mm.mean[:, t][None, :, :]).reshape(-1, d)
        srows = (srows[:, None] * mm.second[:, t][None, :]).reshape(-1, d, d)
    mean = moments[0].mean[:, t] @ mrows.T
    second = np.einsum("iab,pab->ip", moments[0].second[:, t], srows)
    return mean.reshape(sizes, order="F"), second.reshape(sizes, order="F")


@pytest.mark.parametrize("dims", [(4, 3), (3, 2, 4), (2, 3, 2, 2)])
def test_predicted_moments_match_per_time_formula(dims):
    rng = np.random.default_rng(18)
    T, d = 4, 2
    moments = [random_moments(rng, n_m, T, d) for n_m in dims]
    mean, second = predicted_moments(moments)
    assert mean.shape == second.shape == (T, *dims)
    Y = rng.standard_normal((T, *dims))
    mask = (rng.random(Y.shape) < 0.7).astype(float)
    sse = {None: 0.0, "mask": 0.0}
    for t in range(T):
        mean_t, second_t = predicted_moments_per_time(moments, t)
        np.testing.assert_allclose(mean[t], mean_t, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(second[t], second_t, rtol=1e-13, atol=1e-13)
        sq = Y[t] ** 2 - 2.0 * Y[t] * mean_t + second_t
        sse[None] += sq.sum()
        sse["mask"] += (sq * mask[t]).sum()
    kind = "gaussian-matrix" if len(dims) == 2 else "gaussian-tensor"
    full = ObservationSet(kind, Y)
    masked = ObservationSet(kind, Y, mask)
    assert expected_sse(full, moments) == pytest.approx(sse[None], rel=1e-13)
    assert expected_sse(masked, moments) == pytest.approx(sse["mask"], rel=1e-13)
