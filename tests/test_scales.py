"""Inverse-gamma scale updates against quadrature of the exact conditionals.

Each coordinate optimum q*(x) ∝ exp(E[log joint]) has the form
x^(-c_log) exp(-c_inv/x).  The tests assemble (c_log, c_inv) term by term
from the model densities (never from the update formulas), substitute
y = 1/x so every moment exists, integrate numerically, and recover
(shape, rate) from the gamma moment identities shape = m1^2/var,
rate = shape/m1.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import invgamma

from fusionshrink.scales import (
    PRECISION_FLOOR,
    InverseGammaQ,
    floored_precision,
    transition_precisions,
    update_eta,
    update_lambda2,
    update_shared_transition_variance,
    update_sigma0,
    update_tau2,
)


def ig_fit_by_quadrature(c_log, c_inv):
    """(shape, rate) of the density x^(-c_log) exp(-c_inv/x) via moments of
    y = 1/x, whose density is y^(c_log - 2) exp(-c_inv * y)."""

    def integrand(y, k):
        return np.exp((c_log - 2.0 + k) * np.log(y) - c_inv * y)

    m0 = quad(integrand, 0, np.inf, args=(0,), limit=300)[0]
    m1 = quad(integrand, 0, np.inf, args=(1,), limit=300)[0] / m0
    m2 = quad(integrand, 0, np.inf, args=(2,), limit=300)[0] / m0
    var = m2 - m1**2
    shape = m1**2 / var
    return shape, shape / m1


def assert_q_matches(q, c_log, c_inv):
    shape, rate = ig_fit_by_quadrature(c_log, c_inv)
    assert float(np.asarray(q.shape)) == pytest.approx(shape, rel=1e-6, abs=1e-6)
    assert float(np.asarray(q.rate)) == pytest.approx(rate, rel=1e-6, abs=1e-6)


def test_mean_inverse_examples():
    assert InverseGammaQ(1.0, 1.0).mean_inverse == 1.0
    assert InverseGammaQ(2.0, 4.0).mean_inverse == 0.5
    q = InverseGammaQ(1.5, 0.3)
    assert q.mean_inverse == pytest.approx(5.0)
    num = quad(lambda x: invgamma.pdf(x, 1.5, scale=0.3) / x, 0, np.inf)[0]
    assert q.mean_inverse == pytest.approx(num, abs=1e-6)


def test_mean_log_and_entropy_against_scipy():
    for a, b in [(0.5, 1.0), (1.5, 0.3), (4.0, 2.5)]:
        q = InverseGammaQ(a, b)
        dist = invgamma(a, scale=b)
        num_log = quad(lambda x: np.log(x) * dist.pdf(x), 0, np.inf, limit=300)[0]
        assert q.mean_log == pytest.approx(num_log, abs=1e-7)
        assert q.entropy == pytest.approx(dist.entropy(), abs=1e-10)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        InverseGammaQ(0.0, 1.0)
    with pytest.raises(ValueError):
        InverseGammaQ(1.0, -2.0)
    # Non-finite parameters: before, (nan, 1) gave mean_inverse nan and
    # (1, inf) gave 0.0 without an error.
    for bad in (np.nan, np.inf, -np.inf):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                InverseGammaQ(*args)
        row = np.array([1.0, bad])
        for args in ((row, np.ones(2)), (np.ones(2), row[::-1])):
            with pytest.raises(ValueError, match="positive and finite"):
                InverseGammaQ(*args)
    InverseGammaQ(np.array([1e-300, 1e300]), np.array([1e300, 1e-300]))


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(0.2, 8.0),
    r=st.floats(0.1, 9.0),
    c=st.floats(0.1, 50.0),
)
def test_mean_inverse_scale_covariance(s, r, c):
    base = InverseGammaQ(s, r).mean_inverse
    scaled = InverseGammaQ(s, c * r).mean_inverse
    assert scaled == pytest.approx(base / c, rel=1e-12)


def test_update_eta_plugins():
    q = update_eta(InverseGammaQ(1.0, 1.0))  # E[1/lambda^2] = 1
    assert (float(q.shape), float(q.rate)) == (1.0, 2.0)
    q = update_eta(InverseGammaQ(3.0, 6.0))  # E = 0.5
    assert (float(q.shape), float(q.rate)) == (1.0, 1.5)


def test_update_eta_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam_q = InverseGammaQ(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        q = update_eta(lam_q)
        e_inv_l = lam_q.mean_inverse
        # lambda^2|eta ~ IG(1/2, 1/eta): 0.5 log eta in the rate-normaliser
        # direction gives eta^(-1/2), E[1/lambda^2]/eta in the exponent;
        # prior eta ~ IG(1/2, 1): eta^(-3/2) exp(-1/eta).
        assert_q_matches(q, c_log=0.5 + 1.5, c_inv=e_inv_l + 1.0)


def test_update_lambda2_plugins():
    q = update_lambda2(InverseGammaQ(1.0, 1.0), e_trans_sq=0.0, e_inv_tau2=1.0, d=2)
    assert (float(q.shape), float(q.rate)) == (1.5, 1.0)
    q = update_lambda2(InverseGammaQ(1.0, 1.0), e_trans_sq=4.0, e_inv_tau2=0.5, d=2)
    assert (float(q.shape), float(q.rate)) == (1.5, 2.0)


def test_update_lambda2_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        eta_q = InverseGammaQ(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        e_trans = float(rng.uniform(0.0, 5.0))
        e_inv_tau2 = float(rng.uniform(0.1, 2.0))
        q = update_lambda2(eta_q, e_trans, e_inv_tau2, d)
        # transition: (lambda^2)^(-d/2) exp(-E_trans E[1/tau^2]/(2 lambda^2));
        # augmentation IG(1/2, 1/eta): (lambda^2)^(-3/2) exp(-E[1/eta]/lambda^2).
        assert_q_matches(
            q,
            c_log=0.5 * d + 1.5,
            c_inv=eta_q.mean_inverse + 0.5 * e_trans * e_inv_tau2,
        )


def test_update_tau2_plugins():
    lam = InverseGammaQ(np.array([1.0]), np.array([1.0]))  # E[1/lambda^2] = 1
    aux = InverseGammaQ(1.0, 1.0)  # E[1/xi] = 1
    tau_q, aux_q = update_tau2(lam, np.array([2.0]), d=2, tau_aux_q=aux)
    assert (float(tau_q.shape), float(tau_q.rate)) == (1.5, 2.0)
    # Fresh auxiliary uses the new E[1/tau^2] = 1.5/2.
    assert (float(aux_q.shape), float(aux_q.rate)) == (1.0, 1.75)
    tau_q, _ = update_tau2(lam, np.array([0.0]), d=2, tau_aux_q=aux)
    assert float(tau_q.rate) == 1.0  # prior-dominated


def test_update_tau2_nested_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(4):
        n_trans = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        lam = InverseGammaQ(
            rng.uniform(0.5, 3.0, n_trans), rng.uniform(0.5, 3.0, n_trans)
        )
        aux = InverseGammaQ(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
        e_trans = rng.uniform(0.0, 4.0, n_trans)
        tau_q, aux_q = update_tau2(lam, e_trans, d=d, tau_aux_q=aux)
        # tau^2 conditional: each transition contributes (tau^2)^(-d/2) and
        # E[1/lambda_t^2] E_trans_t/(2 tau^2); augmentation IG(1/2, 1/xi)
        # contributes (tau^2)^(-3/2) and E[1/xi].
        c_log = 0.5 * d * n_trans + 1.5
        c_inv = aux.mean_inverse + 0.5 * float(np.sum(lam.mean_inverse * e_trans))
        shape_t, rate_t = ig_fit_by_quadrature(c_log, c_inv)
        assert float(tau_q.shape) == pytest.approx(shape_t, rel=1e-5)
        assert float(tau_q.rate) == pytest.approx(rate_t, rel=1e-5)
        # Nested stage: the xi conditional uses the fresh E[1/tau^2] taken
        # from the quadrature moments, not from the update object.
        e_inv_tau = shape_t / rate_t
        shape_x, rate_x = ig_fit_by_quadrature(0.5 + 1.5, 1.0 + e_inv_tau)
        assert float(aux_q.shape) == pytest.approx(shape_x, rel=1e-5)
        assert float(aux_q.rate) == pytest.approx(rate_x, rel=1e-5)


def test_update_sigma0_plugins():
    q = update_sigma0(0.0, d=2, a0=0.5, b0=0.5)
    assert (float(q.shape), float(q.rate)) == (1.5, 0.5)
    q = update_sigma0(3.0, d=2, a0=0.5, b0=0.5)
    assert (float(q.shape), float(q.rate)) == (1.5, 2.0)


def test_update_sigma0_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        a0, b0 = rng.uniform(0.3, 2.0, 2)
        e_norm = float(rng.uniform(0.0, 6.0))
        q = update_sigma0(e_norm, d=d, a0=a0, b0=b0)
        # init density (sigma0^2)^(-d/2) exp(-E||theta_1||^2/(2 sigma0^2))
        # times the IG(a0, b0) prior.
        assert_q_matches(q, c_log=0.5 * d + a0 + 1.0, c_inv=0.5 * e_norm + b0)


def test_update_shared_variance_plugins():
    q = update_shared_transition_variance(
        np.array([[2.0]]), n=1, horizon=2, d=2, a=0.5, b=0.5
    )
    assert (float(q.shape), float(q.rate)) == (1.5, 1.5)
    q = update_shared_transition_variance(
        np.zeros((3, 4)), n=3, horizon=5, d=2, a=0.5, b=0.5
    )
    assert (float(q.shape), float(q.rate)) == (0.5 + 12.0, 0.5)


def test_update_shared_variance_quadrature():
    rng = np.random.default_rng(4)
    for _ in range(4):
        n, horizon, d = int(rng.integers(1, 4)), int(rng.integers(2, 5)), 2
        stats = rng.uniform(0.0, 3.0, (n, horizon - 1))
        a, b = rng.uniform(0.3, 2.0, 2)
        q = update_shared_transition_variance(stats, n, horizon, d, a, b)
        assert_q_matches(
            q,
            c_log=0.5 * n * d * (horizon - 1) + a + 1.0,
            c_inv=b + 0.5 * float(stats.sum()),
        )


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 4),
    e_trans=st.floats(0.0, 100.0),
    s=st.floats(0.2, 6.0),
    r=st.floats(0.1, 6.0),
)
def test_updates_stay_valid(d, e_trans, s, r):
    eta_q = InverseGammaQ(s, r)
    lam_q = update_lambda2(eta_q, e_trans, e_inv_tau2=s / r, d=d)
    assert float(lam_q.shape) > 0 and float(lam_q.rate) > 0
    new_eta = update_eta(lam_q)
    assert float(new_eta.shape) > 0 and float(new_eta.rate) > 0


def test_batched_updates_match_scalar():
    rng = np.random.default_rng(5)
    shapes = rng.uniform(0.5, 3.0, 4)
    rates = rng.uniform(0.5, 3.0, 4)
    trans = rng.uniform(0.0, 2.0, 4)
    batched = update_lambda2(
        InverseGammaQ(shapes, rates), trans, e_inv_tau2=0.7, d=2
    )
    for i in range(4):
        single = update_lambda2(
            InverseGammaQ(shapes[i], rates[i]), trans[i], e_inv_tau2=0.7, d=2
        )
        assert float(np.asarray(batched.shape)[i]) == float(single.shape)
        assert float(np.asarray(batched.rate)[i]) == float(single.rate)


def test_precision_floor():
    lam = InverseGammaQ(1e-6, 1e6)  # E[1/x] = 1e-12
    tau = InverseGammaQ(1e-3, 1e3)
    rho = transition_precisions(lam, tau)
    assert np.all(rho >= PRECISION_FLOOR)
    assert floored_precision(InverseGammaQ(1e-9, 1.0)) >= PRECISION_FLOOR
    healthy = transition_precisions(InverseGammaQ(2.0, 1.0), InverseGammaQ(3.0, 1.0))
    assert healthy == pytest.approx(6.0)
