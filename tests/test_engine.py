"""Engine-level checks: wiring, fixed points, ELBO monotonicity, determinism."""
import numpy as np
import pytest
from scipy.special import gammaln

from fusionshrink import engine as engine_module
from fusionshrink import simulate as simulate_module
from fusionshrink.chain import all_expected_transition_sq, chain_entropy, smooth_core
from fusionshrink.cli import main as cli_main
from fusionshrink.engine import (
    AuxState,
    CaviEngine,
    FitResult,
    ModelConfig,
    ModeState,
    cp_mean_slice,
    fit,
    predict_mean,
    predict_stack,
)
from fusionshrink.likelihoods import (
    ObservationSet,
    expected_sse,
    logistic_quad_coeff,
    logistic_quad_const,
    pair_products,
)
from fusionshrink.metrics import auc
from fusionshrink.scales import InverseGammaQ


def gaussian_obs(rng, T, n, p, noise=0.3):
    U = rng.standard_normal((n, 2))
    V = rng.standard_normal((p, 2))
    Y = U @ V.T + noise * rng.standard_normal((T, n, p))
    return ObservationSet(kind="gaussian-matrix", values=Y)


def tensor_obs(rng, T, dims, noise=0.3):
    Y = noise * rng.standard_normal((T,) + dims)
    return ObservationSet(kind="gaussian-tensor", values=Y)


def network_obs(rng, T, n):
    U = rng.standard_normal((n, 2))
    logits = U @ U.T
    probs = 1.0 / (1.0 + np.exp(-logits))
    draws = (rng.random((T, n, n)) < probs).astype(float)
    vals = np.triu(draws, 1)
    vals = vals + np.swapaxes(vals, 1, 2)
    return ObservationSet(kind="bernoulli-network", values=vals)


def with_mask(rng, obs, keep=0.7):
    """Gaussian observations with about 1 - keep of the cells masked out."""
    mask = (rng.random(obs.values.shape) < keep).astype(float)
    return ObservationSet(kind=obs.kind, values=obs.values, mask=mask)


def mode_from_means(mean):
    n, T, d = mean.shape
    nt = (n, max(T - 1, 1))
    return ModeState(
        mean=mean,
        cov=np.zeros((n, T, d, d)),
        cross=np.zeros((n, T - 1, d, d)),
        lambda2=InverseGammaQ(np.full(nt, 0.5), np.ones(nt)),
        eta=InverseGammaQ(np.full(nt, 0.5), np.ones(nt)),
        tau2=InverseGammaQ(np.full(n, 0.5), np.ones(n)),
        tau_aux=InverseGammaQ(np.full(n, 0.5), np.ones(n)),
        sigma0=InverseGammaQ(np.full(n, 0.5), np.ones(n)),
    )


# ----- config validation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d=0)
    with pytest.raises(ValueError):
        ModelConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ModelConfig(alpha=1.5)
    with pytest.raises(ValueError):
        ModelConfig(prior="horseshoe")
    with pytest.raises(ValueError):
        ModelConfig(inner_iters=0)
    ModelConfig(alpha=1.0)  # boundary allowed
    for name in (
        "intercept_prior_var",
        "a_sigma0",
        "b_sigma0",
        "a_sigma",
        "b_sigma",
        "a_trans",
        "b_trans",
        "init_cov",
    ):
        for value in (0.0, -0.1, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive"):
                ModelConfig(**{name: value})
        ModelConfig(**{name: 1e-300})  # any positive finite value is allowed


def test_engine_rejects_bad_shapes():
    rng = np.random.default_rng(0)
    obs = gaussian_obs(rng, 3, 4, 5)
    with pytest.raises(ValueError, match="smallest mode"):
        CaviEngine(obs, ModelConfig(d=5))
    with pytest.raises(ValueError, match="intercept"):
        CaviEngine(obs, ModelConfig(d=2, intercept=True))


# ----- predictions ------------------------------------------------------------


def test_predict_mean_matrix_identity():
    eye = np.eye(2)[:, None, :]
    result = FitResult(
        kind="gaussian-matrix",
        config=ModelConfig(),
        modes=[mode_from_means(eye.copy()), mode_from_means(eye.copy())],
        aux=AuxState(),
    )
    np.testing.assert_allclose(predict_mean(result, 0), np.eye(2), atol=1e-15)


def test_predict_mean_network_intercept():
    from fusionshrink.likelihoods import NormalQ

    means = np.zeros((3, 1, 2))
    result = FitResult(
        kind="bernoulli-network",
        config=ModelConfig(),
        modes=[mode_from_means(means)],
        aux=AuxState(intercept=NormalQ(-2.0, 1.0)),
    )
    probs = predict_mean(result, 0)
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(probs[off], 1.0 / (1.0 + np.exp(2.0)), atol=1e-12)
    assert np.all(np.diag(probs) == 0.0)


def test_cp_mean_slice_rank_one():
    u = np.array([[1.0], [2.0]])
    v = np.array([[1.0], [1.0]])
    w = np.array([[1.0], [0.0]])
    out = cp_mean_slice([u, v, w], (2, 2, 2))
    expected = np.einsum("il,jl,kl->ijk", u, v, w)
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert out[1, 1, 0] == 2.0 and out[1, 1, 1] == 0.0


def test_cp_mean_slice_matches_einsum():
    rng = np.random.default_rng(1)
    factors = [rng.standard_normal((n, 3)) for n in (4, 2, 5)]
    out = cp_mean_slice(factors, (4, 2, 5))
    expected = np.einsum("il,jl,kl->ijk", *factors)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ----- wiring: one block equals one manual smooth -------------------------------


def test_first_mode_update_matches_manual_smooth():
    rng = np.random.default_rng(2)
    obs = gaussian_obs(rng, 4, 5, 6)
    eng = CaviEngine(obs, ModelConfig(d=2, inner_iters=1))
    P, h = eng._sites(0, slice(None))
    rho0, rho = eng._chain_rhos(0)
    mean, cov, cross = smooth_core(rho0, rho, P, h)
    eng._update_mode(0)
    np.testing.assert_array_equal(eng.modes[0].mean, mean)
    np.testing.assert_array_equal(eng.modes[0].cov, cov)
    np.testing.assert_array_equal(eng.modes[0].cross, cross)


def test_block_update_reaches_fixed_point():
    rng = np.random.default_rng(3)
    obs = gaussian_obs(rng, 3, 4, 4)
    eng = CaviEngine(obs, ModelConfig(d=2))
    for _ in range(200):
        eng._update_mode(0)
    before_mean = eng.modes[0].mean[1].copy()
    before_cov = eng.modes[0].cov[1].copy()
    before_rate = np.asarray(eng.modes[0].lambda2.rate)[1].copy()
    eng._update_mode(0)
    np.testing.assert_allclose(eng.modes[0].mean[1], before_mean, atol=1e-12)
    np.testing.assert_allclose(eng.modes[0].cov[1], before_cov, atol=1e-12)
    np.testing.assert_allclose(
        np.asarray(eng.modes[0].lambda2.rate)[1], before_rate, atol=1e-12
    )
    # fixed point satisfies the self-consistency equation of the block
    P, h = eng._sites(0, 1)
    rho0, rho = eng._chain_rhos(0)
    mean, cov, _ = smooth_core(rho0[1], rho[1], P, h)
    np.testing.assert_allclose(eng.modes[0].mean[1], mean, atol=1e-10)
    np.testing.assert_allclose(eng.modes[0].cov[1], cov, atol=1e-10)


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
@pytest.mark.parametrize("kind", ["matrix", "masked", "tensor"])
def test_gaussian_mode_update_equals_subject_by_subject(kind, prior):
    """A Gaussian mode is one block because its subjects are independent
    given the other modes: the same block loop run one subject at a time,
    each chain through the single-chain kernel, gives the same mode."""
    rng = np.random.default_rng(44)
    obs = {
        "matrix": lambda: gaussian_obs(rng, 9, 5, 6),
        "masked": lambda: with_mask(rng, gaussian_obs(rng, 9, 5, 6)),
        "tensor": lambda: tensor_obs(rng, 9, (4, 3, 5)),
    }[kind]()
    cfg = ModelConfig(d=2, prior=prior)
    batched, single = CaviEngine(obs, cfg), CaviEngine(obs, cfg)
    for eng in (batched, single):
        eng.sweep()  # leave the warm start, so every subject has its own scales
    for m in range(len(batched.modes)):
        batched._update_mode(m)
        st = single.modes[m]
        for i in range(single.sizes[m]):
            P, h = single._sites(m, i)
            for _ in range(cfg.inner_iters):
                rho0, rho = single._chain_rhos(m, i)
                mean, cov, cross = smooth_core(rho0, rho, P, h)
                st.mean[i], st.cov[i], st.cross[i] = mean, cov, cross
                single.second[m][i] = engine_module._second_from(mean, cov)
                single._update_scales(m, i)
        a, b = batched.modes[m], single.modes[m]
        for name in ("mean", "cov", "cross"):
            assert rel_err(getattr(a, name), getattr(b, name)) <= 1e-10, (m, name)
        assert rel_err(batched.second[m], single.second[m]) <= 1e-10
        for name in ("lambda2", "eta", "tau2", "tau_aux", "sigma0"):
            for field_name in ("shape", "rate"):
                got = getattr(getattr(a, name), field_name)
                ref = getattr(getattr(b, name), field_name)
                assert rel_err(got, ref) <= 1e-10, (m, name, field_name)


def update_mode_reference(eng, m):
    """The block loop with the chain precisions and every scale update
    inside each block's rounds: the reference for the engine's loop, which
    computes the precisions once per mode and runs the last round's scale
    updates once over all subjects."""
    st = eng.modes[m]
    network = eng.kind == "bernoulli-network"
    for rows in range(eng.sizes[m]) if network else (slice(None),):
        P, h = eng._sites(m, rows)
        for _ in range(eng.cfg.inner_iters):
            rho0, rho = eng._chain_rhos(m, rows)
            mean, cov, cross = smooth_core(rho0, rho, P, h)
            st.mean[rows], st.cov[rows], st.cross[rows] = mean, cov, cross
            eng.second[m][rows] = engine_module._second_from(mean, cov)
            eng._update_scales(m, rows)


def engine_arrays(eng):
    """Every array of the variational state, by name."""
    out = {}
    for m, st in enumerate(eng.modes):
        out[f"mean{m}"], out[f"cov{m}"], out[f"cross{m}"] = st.mean, st.cov, st.cross
        out[f"second{m}"] = eng.second[m]
        for name in ("lambda2", "eta", "tau2", "tau_aux", "sigma0"):
            q = getattr(st, name)
            out[f"{name}{m}.shape"], out[f"{name}{m}.rate"] = q.shape, q.rate
    aux = eng.aux
    for name in ("noise", "shared_trans"):
        q = getattr(aux, name)
        if q is not None:
            out[f"{name}.shape"], out[f"{name}.rate"] = q.shape, q.rate
    if aux.xi is not None:
        out["xi"], out["curv"] = aux.xi, aux.curv
    if aux.intercept is not None:
        out["intercept.mean"] = aux.intercept.mean
        out["intercept.var"] = aux.intercept.var
    return out


@pytest.mark.parametrize("inner_iters", [1, 3])
@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
@pytest.mark.parametrize(
    "case",
    [
        "network_d1_intercept",
        "network_d1_masked",
        "network_d2_intercept",
        "network_d2_masked",
        "network_d3_intercept",
        "network_d3_masked",
        "matrix",
        "matrix_masked",
        "tensor",
    ],
)
def test_update_mode_equals_per_subject_reference(case, prior, inner_iters):
    """Computing the precisions once per mode and the last round's scale
    updates once over all subjects reorders no arithmetic: the state, the
    metric trace and the ELBO are bit-identical to the reference loop."""
    rng = np.random.default_rng(46)
    d = 2
    if case.startswith("network"):
        d = int(case.split("_")[1][1])
        obs = (masked_network_obs if case.endswith("masked") else network_obs)(
            rng, 10, 8
        )
    elif case.startswith("matrix"):
        obs = gaussian_obs(rng, 10, 6, 5)
        if case.endswith("masked"):
            obs = with_mask(rng, obs)
    else:
        obs = tensor_obs(rng, 10, (4, 3, 5))
    cfg = ModelConfig(
        d=d, prior=prior, inner_iters=inner_iters, intercept=case.endswith("intercept")
    )
    eng, ref = CaviEngine(obs, cfg), CaviEngine(obs, cfg)
    ref._update_mode = lambda m: update_mode_reference(ref, m)
    for sweeps in range(1, 4):
        eng.sweep()
        ref.sweep()
        got, want = engine_arrays(eng), engine_arrays(ref)
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(
                got[name], want[name], err_msg=f"{sweeps} {name}"
            )
        assert eng.metric() == ref.metric(), sweeps
        assert eng.elbo() == ref.elbo(), sweeps


# ----- ELBO: reference formula and monotonicity ---------------------------------


def elbo_reference(eng):
    """The ELBO with every term written out by hand: the reference that
    the engine's two term helpers are checked against."""
    cfg = eng.cfg
    d = cfg.d
    if eng.kind == "bernoulli-network":
        iu = np.triu_indices(eng.sizes[0], k=1)
        mom = eng._moments(0)
        xi, a = eng.aux.xi, eng.aux.curv  # packed over i < j
        inner = pair_products(mom.mean)[:, iu[0], iu[1]]
        pair_sq = pair_products(mom.second)[:, iu[0], iu[1]]
        b = eng.aux.intercept
        mb = float(b.mean) if b is not None else 0.0
        eb2 = float(b.second_moment) if b is not None else 0.0
        edge = (
            a * (eb2 + 2.0 * mb * inner + pair_sq)
            + (eng.obs.values[:, iu[0], iu[1]] - 0.5) * (mb + inner)
            + logistic_quad_const(xi)
        )
        if eng.obs.mask is not None:
            edge = edge * (eng.obs.mask[:, iu[0], iu[1]] > 0)
        total = cfg.alpha * float(edge.sum())
        if b is not None:
            v0 = cfg.intercept_prior_var
            total += -0.5 * (np.log(2 * np.pi * v0) + float(b.second_moment) / v0)
            total += 0.5 * (1.0 + np.log(2 * np.pi * float(b.var)))
    else:
        noise = eng.aux.noise
        n_obs = eng.obs.count_observed()
        sse = expected_sse(eng.obs, [eng._moments(k) for k in range(len(eng.sizes))])
        e_log_s2 = float(noise.mean_log)
        e_inv_s2 = float(noise.mean_inverse)
        total = -0.5 * cfg.alpha * (
            n_obs * (np.log(2 * np.pi) + e_log_s2) + e_inv_s2 * sse
        )
        # Noise prior and entropy.
        total += (
            cfg.a_sigma * np.log(cfg.b_sigma)
            - gammaln(cfg.a_sigma)
            - (cfg.a_sigma + 1.0) * e_log_s2
            - cfg.b_sigma * e_inv_s2
        )
        total += float(noise.entropy)
    if cfg.prior == "iglsm":
        sh = eng.aux.shared_trans
        e_log_sa = float(sh.mean_log)
        e_inv_sa = float(sh.mean_inverse)
        total += (
            cfg.a_trans * np.log(cfg.b_trans)
            - gammaln(cfg.a_trans)
            - (cfg.a_trans + 1.0) * e_log_sa
            - cfg.b_trans * e_inv_sa
        )
        total += float(sh.entropy)
    lg_half = gammaln(0.5)
    for st in eng.modes:
        e_trans = all_expected_transition_sq(st.mean, st.cov, st.cross)
        e_norm1 = np.sum(st.mean[:, 0] ** 2, axis=-1) + np.trace(
            st.cov[:, 0], axis1=-2, axis2=-1
        )
        s0_log = np.asarray(st.sigma0.mean_log)
        s0_inv = np.asarray(st.sigma0.mean_inverse)
        total += np.sum(
            -0.5 * d * (np.log(2 * np.pi) + s0_log) - 0.5 * s0_inv * e_norm1
        )
        total += np.sum(
            cfg.a_sigma0 * np.log(cfg.b_sigma0)
            - gammaln(cfg.a_sigma0)
            - (cfg.a_sigma0 + 1.0) * s0_log
            - cfg.b_sigma0 * s0_inv
            + np.asarray(st.sigma0.entropy)
        )
        if cfg.prior == "iglsm":
            e_log_sa = float(eng.aux.shared_trans.mean_log)
            e_inv_sa = float(eng.aux.shared_trans.mean_inverse)
            total += np.sum(
                -0.5 * d * (np.log(2 * np.pi) + e_log_sa) - 0.5 * e_inv_sa * e_trans
            )
        else:
            l_log = np.asarray(st.lambda2.mean_log)
            l_inv = np.asarray(st.lambda2.mean_inverse)
            t_log = np.asarray(st.tau2.mean_log)[:, None]
            t_inv = np.asarray(st.tau2.mean_inverse)[:, None]
            e_log = np.asarray(st.eta.mean_log)
            e_inv = np.asarray(st.eta.mean_inverse)
            x_log = np.asarray(st.tau_aux.mean_log)
            x_inv = np.asarray(st.tau_aux.mean_inverse)
            # Transition likelihood under the scale product.
            total += np.sum(
                -0.5 * d * (np.log(2 * np.pi) + t_log + l_log)
                - 0.5 * t_inv * l_inv * e_trans
            )
            # lambda^2 | eta and eta priors.
            total += np.sum(-0.5 * e_log - lg_half - 1.5 * l_log - e_inv * l_inv)
            total += np.sum(-lg_half - 1.5 * e_log - e_inv)
            # tau^2 | aux and aux priors.
            total += np.sum(
                -0.5 * x_log
                - lg_half
                - 1.5 * np.asarray(st.tau2.mean_log)
                - x_inv * np.asarray(st.tau2.mean_inverse)
            )
            total += np.sum(-lg_half - 1.5 * x_log - x_inv)
            for q in (st.lambda2, st.eta, st.tau2, st.tau_aux):
                total += np.sum(np.asarray(q.entropy))
        total += float(np.sum(chain_entropy(st.cov, st.cross)))
    return float(total)


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
@pytest.mark.parametrize(
    "case",
    [
        "matrix",
        "matrix_masked",
        "tensor",
        "tensor_masked",
        "network",
        "network_masked",
        "network_intercept",
        "network_intercept_masked",
    ],
)
def test_elbo_matches_reference(case, prior):
    """A dropped or mis-signed ELBO term can keep the ELBO monotone; the
    term-by-term reference catches it."""
    rng = np.random.default_rng(45)
    kind, masked = case.split("_")[0], case.endswith("masked")
    if kind == "network":
        obs = (masked_network_obs if masked else network_obs)(rng, 8, 9)
    else:
        obs = gaussian_obs(rng, 8, 6, 5) if kind == "matrix" else tensor_obs(
            rng, 8, (4, 3, 5)
        )
        if masked:
            obs = with_mask(rng, obs)
    eng = CaviEngine(obs, ModelConfig(d=2, prior=prior, intercept="intercept" in case))
    for sweeps in range(4):
        if sweeps:
            eng.sweep()
        ref = elbo_reference(eng)
        assert abs(eng.elbo() - ref) <= 1e-12 * abs(ref), (sweeps, eng.elbo(), ref)


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
def test_elbo_monotone_matrix(prior):
    rng = np.random.default_rng(4)
    obs = gaussian_obs(rng, 5, 6, 7)
    eng = CaviEngine(obs, ModelConfig(d=2, prior=prior, inner_iters=2))
    eng.refresh_aux()  # make noise factor consistent before the first reading
    values = [eng.elbo()]
    for _ in range(8):
        eng.sweep()
        values.append(eng.elbo())
    diffs = np.diff(values)
    assert diffs.min() > -1e-8, values
    assert values[-1] > values[0]


def test_elbo_monotone_tensor():
    rng = np.random.default_rng(5)
    obs = tensor_obs(rng, 3, (4, 3, 3))
    eng = CaviEngine(obs, ModelConfig(d=2, inner_iters=1))
    eng.refresh_aux()
    values = [eng.elbo()]
    for _ in range(6):
        eng.sweep()
        values.append(eng.elbo())
    assert np.diff(values).min() > -1e-8, values


def test_elbo_monotone_with_mask():
    rng = np.random.default_rng(6)
    obs = gaussian_obs(rng, 4, 5, 5)
    mask = (rng.random(obs.values.shape) < 0.7).astype(float)
    obs = ObservationSet(kind="gaussian-matrix", values=obs.values, mask=mask)
    eng = CaviEngine(obs, ModelConfig(d=2))
    eng.refresh_aux()
    values = [eng.elbo()]
    for _ in range(6):
        eng.sweep()
        values.append(eng.elbo())
    assert np.diff(values).min() > -1e-8, values


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
@pytest.mark.parametrize("intercept", [False, True])
def test_elbo_monotone_network(prior, intercept):
    """The network elbo is the tangent-bound functional; every sweep step is
    a coordinate optimum of it and the tangent refresh tightens it, so it
    must climb.  This is the only end-to-end check of the bernoulli wiring
    strong enough to catch sign or moment errors anywhere in the loop."""
    rng = np.random.default_rng(7)
    obs = network_obs(rng, 6, 9)
    eng = CaviEngine(obs, ModelConfig(d=2, prior=prior, intercept=intercept))
    eng.refresh_aux()  # align the tangent parameters with the warm start
    values = [eng.elbo()]
    for _ in range(25):
        eng.sweep()
        values.append(eng.elbo())
    diffs = np.diff(values)
    assert diffs.min() > -1e-8, values
    assert values[-1] > values[0]


def test_elbo_monotone_network_masked():
    rng = np.random.default_rng(8)
    obs = network_obs(rng, 4, 8)
    mask = (rng.random(obs.values.shape) < 0.8).astype(float)
    mask = np.triu(mask, 1)
    mask = mask + np.swapaxes(mask, 1, 2)
    obs = ObservationSet(kind="bernoulli-network", values=obs.values, mask=mask)
    eng = CaviEngine(obs, ModelConfig(d=2, intercept=True))
    eng.refresh_aux()
    values = [eng.elbo()]
    for _ in range(12):
        eng.sweep()
        values.append(eng.elbo())
    assert np.diff(values).min() > -1e-8, values


# ----- full fits ----------------------------------------------------------------


def test_fit_deterministic():
    rng = np.random.default_rng(8)
    obs = gaussian_obs(rng, 4, 5, 6)
    cfg = ModelConfig(d=2, max_cycles=5)
    r1 = fit(obs, cfg)
    r2 = fit(obs, cfg)
    assert r1.trace == r2.trace
    for m1, m2 in zip(r1.modes, r2.modes):
        np.testing.assert_array_equal(m1.mean, m2.mean)
        np.testing.assert_array_equal(m1.cov, m2.cov)
    assert r1.cycles == len(r1.trace)


def test_fit_improves_over_noise_floor():
    # Truth is a static rank-2 signal; the fitted means should track it
    # far better than the raw observations do.
    rng = np.random.default_rng(9)
    T, n, p = 6, 10, 8
    U = rng.standard_normal((n, 2))
    V = rng.standard_normal((p, 2))
    truth = np.broadcast_to(U @ V.T, (T, n, p))
    Y = truth + 0.5 * rng.standard_normal((T, n, p))
    obs = ObservationSet(kind="gaussian-matrix", values=Y)
    result = fit(obs, ModelConfig(d=2, max_cycles=30))
    pred = np.stack([predict_mean(result, t) for t in range(T)])
    err_fit = np.sqrt(np.mean((pred - truth) ** 2))
    err_raw = np.sqrt(np.mean((Y - truth) ** 2))
    assert err_fit < 0.6 * err_raw


def test_fit_network_smoke():
    rng = np.random.default_rng(10)
    obs = network_obs(rng, 3, 6)
    result = fit(obs, ModelConfig(d=2, intercept=True, max_cycles=4))
    probs = predict_mean(result, 1)
    assert probs.shape == (6, 6)
    assert np.all((probs >= 0) & (probs <= 1))
    np.testing.assert_allclose(probs, probs.T, atol=1e-12)
    assert np.all(np.diag(probs) == 0)
    assert result.aux.intercept is not None
    assert len(result.trace) == result.cycles


@pytest.mark.parametrize("case", ["network", "network_intercept", "matrix", "tensor"])
def test_predict_stack_equals_per_time_slices(case):
    # The stacked network product must give the bits of one product per time
    # (written out here as the per-time formula), symmetric to the bit.
    rng = np.random.default_rng(14)
    if case.startswith("network"):
        obs = network_obs(rng, 5, 12)
        cfg = ModelConfig(d=2, intercept=case == "network_intercept", max_cycles=3)
    elif case == "matrix":
        obs, cfg = gaussian_obs(rng, 5, 6, 4), ModelConfig(d=2, max_cycles=3)
    else:
        obs, cfg = tensor_obs(rng, 5, (4, 3, 3)), ModelConfig(d=2, max_cycles=3)
    eng = CaviEngine(obs, cfg)
    result = eng.run()
    stack = predict_stack(result)
    np.testing.assert_array_equal(eng.predict_stack(), stack)
    if obs.kind == "bernoulli-network":
        b = result.aux.intercept.mean if result.aux.intercept is not None else 0.0
        slices = []
        for t in range(obs.horizon):
            u = result.modes[0].mean[:, t]
            probs = engine_module._sigmoid(b + u @ u.T)
            np.fill_diagonal(probs, 0.0)
            slices.append(probs)
        np.testing.assert_array_equal(stack, np.swapaxes(stack, 1, 2))
    else:
        slices = [predict_mean(result, t) for t in range(obs.horizon)]
    np.testing.assert_array_equal(stack, np.stack(slices))


def test_fit_tensor_smoke():
    rng = np.random.default_rng(11)
    obs = tensor_obs(rng, 3, (4, 3, 3))
    result = fit(obs, ModelConfig(d=2, max_cycles=3))
    assert len(result.modes) == 3
    pred = predict_mean(result, 0)
    assert pred.shape == (4, 3, 3)
    assert np.isfinite(result.trace).all()


def test_iglsm_updates_shared_variance():
    rng = np.random.default_rng(12)
    obs = gaussian_obs(rng, 4, 5, 5)
    result = fit(obs, ModelConfig(d=2, prior="iglsm", max_cycles=3))
    sh = result.aux.shared_trans
    assert sh is not None
    n_total = 10  # 5 + 5 subjects
    expected_shape = 0.5 + n_total * 2 * (4 - 1) / 2
    assert float(sh.shape) == pytest.approx(expected_shape)


def test_shrinkage_concentrates_on_active_transitions():
    # One subject jumps at a single time; its transition scale posterior
    # should put that jump's lambda^2 well above the quiet ones.
    rng = np.random.default_rng(13)
    T, n, p = 8, 6, 6
    U = np.zeros((n, T, 2))
    U[:, :, 0] = 1.0
    U[0, T // 2 :, 0] = 3.0  # single large move for subject 0
    V = np.ones((p, 2)) * 0.7
    Y = np.einsum("itd,jd->tij", U, V) + 0.05 * rng.standard_normal((T, n, p))
    obs = ObservationSet(kind="gaussian-matrix", values=Y)
    result = fit(obs, ModelConfig(d=2, max_cycles=20))
    lam = result.modes[0].lambda2
    post_mean_scale = np.asarray(lam.rate) / np.asarray(lam.shape)  # monotone proxy
    jump = post_mean_scale[0, T // 2 - 1]
    quiet = np.delete(post_mean_scale[0], T // 2 - 1)
    assert jump > 5.0 * quiet.max()


# ----- single-chain smoother and batched entropy inside the engine -------------


def rel_err(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


@pytest.mark.parametrize("d,prior", [(2, "ffs"), (2, "iglsm"), (1, "ffs")])
def test_network_sweeps_match_batched_smoother(monkeypatch, d, prior):
    """The network schedule smooths one chain per call, which takes the
    single-chain kernel; the same sweeps with every chain sent through the
    batched loop (as a batch of one) must agree."""
    rng = np.random.default_rng(41)
    obs = network_obs(rng, 15, 8)
    cfg = ModelConfig(d=d, prior=prior, intercept=True, inner_iters=2)

    def run_three(eng):
        for _ in range(3):
            eng.sweep()
        return eng

    fast = run_three(CaviEngine(obs, cfg))

    def batched_smooth(rho0, rho, precision, shift):
        if np.ndim(precision) != 3:
            return smooth_core(rho0, rho, precision, shift)
        out = smooth_core(
            np.asarray(rho0)[None], np.asarray(rho)[None], precision[None], shift[None]
        )
        return tuple(a[0] for a in out)

    monkeypatch.setattr(engine_module, "smooth_core", batched_smooth)
    ref = run_three(CaviEngine(obs, cfg))
    for a, b in zip(fast.modes, ref.modes):
        for name in ("mean", "cov", "cross"):
            assert rel_err(getattr(a, name), getattr(b, name)) <= 1e-10
        for name in ("lambda2", "eta", "tau2", "tau_aux", "sigma0"):
            assert rel_err(getattr(a, name).rate, getattr(b, name).rate) <= 1e-10
    assert rel_err(fast.aux.xi, ref.aux.xi) <= 1e-10
    assert rel_err(fast.aux.intercept.mean, ref.aux.intercept.mean) <= 1e-10
    assert abs(fast.elbo() - ref.elbo()) <= 1e-10 * abs(ref.elbo())


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
def test_chain_rhos_for_one_subject_are_its_row(prior):
    rng = np.random.default_rng(42)
    eng = CaviEngine(network_obs(rng, 10, 6), ModelConfig(d=2, prior=prior))
    eng.sweep()
    rho0, rho = eng._chain_rhos(0)
    for i in range(6):
        rho0_i, rho_i = eng._chain_rhos(0, i)
        np.testing.assert_array_equal(rho0_i, rho0[i])
        np.testing.assert_array_equal(rho_i, rho[i])


def chain_entropy_loop(cov, cross):
    """Per-chain entropy by the Markov factorisation, one block at a time."""
    n, T, d = cov.shape[:3]
    out = np.empty(n)
    for i in range(n):
        _, logdet1 = np.linalg.slogdet(cov[i, 0])
        h = 0.5 * logdet1
        for t in range(T - 1):
            c = cross[i, t]
            cond = cov[i, t + 1] - c.T @ np.linalg.solve(cov[i, t], c)
            _, ld = np.linalg.slogdet(0.5 * (cond + cond.T))
            h += 0.5 * ld
        out[i] = h + 0.5 * T * d * (1.0 + np.log(2 * np.pi))
    return out


@pytest.mark.parametrize("prior", ["ffs", "iglsm"])
@pytest.mark.parametrize("kind", ["matrix", "network", "tensor"])
def test_batched_chain_entropy_matches_loop(kind, prior):
    rng = np.random.default_rng(43)
    obs = {
        "matrix": lambda: gaussian_obs(rng, 12, 6, 5),
        "network": lambda: network_obs(rng, 12, 7),
        "tensor": lambda: tensor_obs(rng, 12, (4, 5, 3)),
    }[kind]()
    eng = CaviEngine(obs, ModelConfig(d=2, prior=prior))
    for _ in range(2):
        eng.sweep()
    for st in eng.modes:
        batched = chain_entropy(st.cov, st.cross)
        loop = chain_entropy_loop(st.cov, st.cross)
        assert np.max(np.abs(batched - loop) / np.abs(loop)) <= 1e-12


# ----- network dyad statistics: cached curvature, dyad-only metric ---------------


def masked_network_obs(rng, T, n, keep=0.8):
    obs = network_obs(rng, T, n)
    mask = np.triu((rng.random(obs.values.shape) < keep).astype(float), 1)
    mask = mask + np.swapaxes(mask, 1, 2)
    return ObservationSet(kind="bernoulli-network", values=obs.values, mask=mask)


@pytest.mark.parametrize("intercept", [False, True])
def test_cached_curvature_follows_xi(intercept):
    rng = np.random.default_rng(50)
    eng = CaviEngine(network_obs(rng, 6, 9), ModelConfig(d=2, intercept=intercept))
    np.testing.assert_array_equal(eng.aux.curv, logistic_quad_coeff(eng.aux.xi))
    for _ in range(3):
        eng.sweep()  # ends with refresh_aux
        np.testing.assert_array_equal(eng.aux.curv, logistic_quad_coeff(eng.aux.xi))
        eng.refresh_aux()
        np.testing.assert_array_equal(eng.aux.curv, logistic_quad_coeff(eng.aux.xi))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("intercept", [False, True])
def test_network_metric_is_auc_of_predicted_upper_triangle(masked, intercept):
    rng = np.random.default_rng(51)
    obs = masked_network_obs(rng, 7, 10) if masked else network_obs(rng, 7, 10)
    eng = CaviEngine(obs, ModelConfig(d=2, intercept=intercept))
    iu = np.triu_indices(10, k=1)
    for scale in (1.0, 1.0, 1.0, 6.0):
        eng.sweep()
        # Scaled positions push logits past 37, where the sigmoid rounds to
        # 1.0 and ties scores that the logits alone would still rank.
        eng.modes[0].mean *= scale
        scores = eng.predict_stack()[:, iu[0], iu[1]].ravel()
        labels = obs.values[:, iu[0], iu[1]].ravel()
        if masked:
            keep = obs.mask[:, iu[0], iu[1]].ravel() > 0
            scores, labels = scores[keep], labels[keep]
        assert eng.metric() == auc(scores, labels)


def fresh_network_auc(eng):
    """The training AUC from the full (T, n, n) logits of the current means,
    gathered over the observed dyads i < j."""
    n = eng.sizes[0]
    iu = np.triu_indices(n, k=1)
    u = np.swapaxes(eng.modes[0].mean, 0, 1)
    b = eng.aux.intercept.mean if eng.aux.intercept is not None else 0.0
    scores = engine_module._sigmoid(b + u @ np.swapaxes(u, 1, 2))[:, iu[0], iu[1]]
    labels = eng.obs.values[:, iu[0], iu[1]]
    keep = np.ones(scores.shape, bool)
    if eng.obs.mask is not None:
        keep = eng.obs.mask[:, iu[0], iu[1]] > 0
    return auc(scores[keep], labels[keep])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("intercept", [False, True])
def test_network_metric_and_elbo_fresh_after_init_and_mid_sweep(masked, intercept):
    """metric() and elbo() read the pair products of the last xi refresh only
    while the means are those it read: right after __init__ (no refresh yet),
    mid-sweep (a subject stored since) and after the refresh, they equal a
    fresh full computation."""
    rng = np.random.default_rng(53)
    obs = masked_network_obs(rng, 6, 9) if masked else network_obs(rng, 6, 9)
    cfg = ModelConfig(d=2, intercept=intercept)
    eng = CaviEngine(obs, cfg)
    assert eng.metric() == fresh_network_auc(eng)
    assert eng.elbo() == pytest.approx(elbo_reference(eng), rel=1e-12)
    for _ in range(2):
        eng._update_mode(0)  # mid-sweep: moments moved, xi not refreshed
        assert eng.metric() == fresh_network_auc(eng)
        assert eng.elbo() == pytest.approx(elbo_reference(eng), rel=1e-12)
        eng.refresh_aux()
        assert eng.metric() == fresh_network_auc(eng)
        assert eng.elbo() == pytest.approx(elbo_reference(eng), rel=1e-12)


def old_sigmoid(x):
    """The masked two-branch logistic the branch-free form replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    rng = np.random.default_rng(52)
    edges = np.array(
        [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 800.0, -800.0]
    )
    grid = np.concatenate(
        [edges, rng.standard_normal(5000) * 10.0, rng.uniform(-40.0, 40.0, 5000)]
    )
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = engine_module._sigmoid(grid)  # exp(-800) may only underflow
    ref = old_sigmoid(grid)
    assert got.tobytes() == ref.tobytes()
    shaped = grid[:10_000].reshape(10, 40, 25)
    assert engine_module._sigmoid(shaped).tobytes() == old_sigmoid(shaped).tobytes()


@pytest.mark.parametrize("scenario", ["case2", "cluster", "two-movers"])
def test_simulated_networks_unchanged_by_branch_free_sigmoid(
    tmp_path, monkeypatch, scenario
):
    def write(out):
        argv = ["simulate", "--scenario", scenario, "--n", "12", "--T", "15",
                "--seed", "7", "--out", str(out)]
        assert cli_main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    current = write(tmp_path / "current")
    monkeypatch.setattr(simulate_module, "_sigmoid", old_sigmoid)
    assert write(tmp_path / "old") == current


@pytest.mark.parametrize(
    "values, mask, found",
    [
        ("empty", None, "found 0 edge(s) in 45 observed dyad(s)"),
        ("complete", None, "found 45 edge(s) in 45 observed dyad(s)"),
        ("random", "none", "found 0 edge(s) in 0 observed dyad(s)"),
    ],
)
def test_degenerate_network_rejected_before_warm_start(monkeypatch, values, mask, found):
    rng = np.random.default_rng(53)
    obs = network_obs(rng, 3, 6)
    vals = {
        "empty": np.zeros((3, 6, 6)),
        "complete": np.broadcast_to(1.0 - np.eye(6), (3, 6, 6)),
        "random": obs.values,
    }[values]
    obs = ObservationSet(
        kind="bernoulli-network",
        values=vals,
        mask=None if mask is None else np.zeros((3, 6, 6)),
    )

    def no_warm_start(self):
        raise AssertionError("the warm start ran on degenerate data")

    monkeypatch.setattr(CaviEngine, "_init_means", no_warm_start)
    with pytest.raises(ValueError, match="an edge and a non-edge") as info:
        CaviEngine(obs, ModelConfig(d=2))
    assert found in str(info.value)
