"""Structured mean-field coordinate ascent for dynamic factorization.

One engine serves all three observation kinds.  The variational family
factorises over subjects; each subject keeps its whole latent trajectory
as a jointly Gaussian chain, and every scale in the shrinkage hierarchy is
an inverse-gamma factor.  An outer cycle sweeps the latent modes in
ascending index.  A network mode's blocks are its subjects in ascending
index (a subject's site holds its partners' moments); a Gaussian mode is
one block of all its subjects, which are independent given the other
modes.  Each block builds its site once, then runs `inner_iters` rounds of
(chain smooth -> scale updates).  The chain precisions of a mode's subjects
are computed once per mode, before its blocks, and the last round's scale
updates run once over all of them, after the blocks: only a subject's own
chain reads its scales.  After a full sweep the global factors
(noise variance, tangent parameters, intercept, shared transition
variance) refresh, the fit metric is recorded, and the loop stops when the
metric change drops below tolerance.

All updates are deterministic given the data and config, so repeated runs
produce identical arrays.  The likelihood enters raised to the fractional
power `alpha`; the prior does not.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import all_expected_transition_sq, chain_entropy, smooth_core
from .likelihoods import (
    ModeMoments,
    NetworkDyads,
    NormalQ,
    ObservationSet,
    bernoulli_site_subject,
    bernoulli_site_weights,
    cp_stack,
    expected_sse,
    gaussian_noise_update,
    intercept_update,
    link_probs,
    logistic_quad_coeff,
    logistic_quad_const,
    packed_pair_products,
    sigmoid,
    tensor_sites,
    unfold,
    xi_update,
)
from .metrics import mann_whitney_auc, rmse
from .scales import (
    InverseGammaQ,
    _log_gamma,
    floored_precision,
    transition_precisions,
    update_eta,
    update_lambda2,
    update_shared_transition_variance,
    update_sigma0,
    update_tau2,
)

PRIORS = ("ffs", "iglsm")


@dataclass
class ModelConfig:
    """Model and optimisation settings.

    prior "ffs" is the fused global-local shrinkage random walk; "iglsm"
    replaces the per-transition scales with one shared inverse-gamma
    transition variance and keeps everything else identical.
    """

    d: int = 2
    alpha: float = 0.95
    prior: str = "ffs"
    intercept: bool = False
    intercept_prior_var: float = 100.0
    a_sigma0: float = 0.5
    b_sigma0: float = 0.5
    a_sigma: float = 0.5
    b_sigma: float = 0.5
    a_trans: float = 0.5
    b_trans: float = 0.5
    inner_iters: int = 3
    max_cycles: int = 100
    tol_rmse: float = 1e-4
    tol_auc: float = 1e-4
    init_cov: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d", "inner_iters", "max_cycles"):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integer or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}")
        for name in ("tol_rmse", "tol_auc"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")
        for name in (
            "intercept_prior_var", "a_sigma0", "b_sigma0", "a_sigma", "b_sigma",
            "a_trans", "b_trans", "init_cov",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class ModeState(ModeMoments):
    """Variational state of one latent mode, vectorised over subjects: the
    moments the sites read (mean (n, T, d) and second = cov + mean mean',
    kept in step with the chains) and the rest of the state."""

    cov: np.ndarray  # (n, T, d, d)
    cross: np.ndarray  # (n, T-1, d, d)
    lambda2: InverseGammaQ  # arrays (n, T-1)
    eta: InverseGammaQ  # arrays (n, T-1)
    tau2: InverseGammaQ  # arrays (n,)
    tau_aux: InverseGammaQ  # arrays (n,)
    sigma0: InverseGammaQ  # arrays (n,)


@dataclass
class AuxState:
    """Global factors refreshed once per sweep.

    For the network kind, xi is packed over the dyads i < j as (T, D)
    (see NetworkDyads), and curv = logistic_quad_coeff(xi) is the tangent
    bound's curvature A(xi), set together with xi so the sites, the
    intercept and the ELBO read it instead of recomputing it.
    """

    noise: InverseGammaQ | None = None
    xi: np.ndarray | None = None
    curv: np.ndarray | None = None
    intercept: NormalQ | None = None
    shared_trans: InverseGammaQ | None = None


@dataclass
class FitResult:
    kind: str
    config: ModelConfig
    modes: list[ModeState]
    aux: AuxState
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    cycles: int = 0


def _rows(q: InverseGammaQ, rows: int | slice) -> InverseGammaQ:
    """The factors of the given subjects, from a factor array over subjects."""
    return InverseGammaQ(q.shape[rows], q.rate[rows])


def _ig_term(q: InverseGammaQ, e_log_x, a: float, e_log_b, e_b) -> float:
    """E_q[log IG(x; a, b)] + H[q], summed over the factor's entries, for a
    rate b that may itself be random: E[log b] and E[b] are given, and so
    is E_q[log x] (q.mean_log, which the caller reads for other terms too)."""
    return float(
        np.sum(
            a * e_log_b
            - _log_gamma(a)
            - (a + 1.0) * e_log_x
            - e_b * q.mean_inverse
            + q.entropy
        )
    )


def _gauss_term(k: float, e_log_v, e_inv_v, sq) -> float:
    """E[log N(x; 0, v I_k)] summed over entries, given E[log v], E[1/v]
    and E||x||^2 = sq."""
    return float(
        np.sum(-0.5 * k * (np.log(2 * np.pi) + e_log_v) - 0.5 * e_inv_v * sq)
    )


def _second_from(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return cov + mean[..., :, None] * mean[..., None, :]


def _initial_sq(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """E||theta_1||^2 of chains with means (..., T, d) and covariances
    (..., T, d, d): (...,)."""
    return np.sum(mean[..., 0, :] ** 2, axis=-1) + np.trace(
        cov[..., 0, :, :], axis1=-2, axis2=-1
    )


def predict_stack(fit: FitResult) -> np.ndarray:
    """Predicted mean slices at every time, (T, *dims), each kind as one
    stacked product over time; the network's are the link probabilities
    sigmoid(b + u_i' u_j)."""
    if fit.kind == "bernoulli-network":
        b = fit.aux.intercept.mean if fit.aux.intercept is not None else 0.0
        u = np.swapaxes(fit.modes[0].mean, 0, 1)
        return link_probs(b + u @ np.swapaxes(u, -1, -2))
    return cp_stack([st.mean for st in fit.modes])


class CaviEngine:
    """Coordinate-ascent driver; `fit` below is the function-style entry."""

    def __init__(self, obs: ObservationSet, config: ModelConfig) -> None:
        self.obs = obs
        self.cfg = config
        self.kind = obs.kind
        self.T = obs.horizon
        self.sizes = obs.mode_sizes
        d = config.d
        if d > min(self.sizes):
            raise ValueError("d exceeds the smallest mode size")
        if config.intercept and self.kind != "bernoulli-network":
            raise ValueError("the intercept is only defined for the network kind")
        if self.kind == "bernoulli-network":
            self._gather_dyads()
        means = self._init_means()
        self.modes: list[ModeState] = []
        for n_m, mean in zip(self.sizes, means):
            cov = np.broadcast_to(
                config.init_cov * np.eye(d), (n_m, self.T, d, d)
            ).copy()
            cross = np.zeros((n_m, self.T - 1, d, d))
            nt = (n_m, self.T - 1)
            self.modes.append(
                ModeState(
                    mean=mean,
                    second=_second_from(mean, cov),
                    cov=cov,
                    cross=cross,
                    lambda2=InverseGammaQ(np.full(nt, 0.5), np.ones(nt)),
                    eta=InverseGammaQ(np.full(nt, 0.5), np.ones(nt)),
                    tau2=InverseGammaQ(np.full(n_m, 0.5), np.ones(n_m)),
                    tau_aux=InverseGammaQ(np.full(n_m, 0.5), np.ones(n_m)),
                    sigma0=InverseGammaQ(
                        np.full(n_m, config.a_sigma0), np.full(n_m, config.b_sigma0)
                    ),
                )
            )
        self.aux = AuxState()
        if self.kind == "bernoulli-network":
            self._set_xi(np.ones(self.dyads.resid.shape))
            if config.intercept:
                self.aux.intercept = NormalQ(0.0, config.intercept_prior_var)
        else:
            self.aux.noise = InverseGammaQ(config.a_sigma, config.b_sigma)
        if config.prior == "iglsm":
            self.aux.shared_trans = InverseGammaQ(config.a_trans, config.b_trans)

    # ----- initialisation -------------------------------------------------

    def _gather_dyads(self) -> None:
        """Packed upper-triangle dyads (i < j), and the flat indices of the
        observed edges and non-edges among them; the training AUC needs
        both to be present."""
        self.dyads = NetworkDyads.from_obs(self.obs)
        labels = self.dyads.pack(self.obs.values).ravel()
        observed = True
        if self.dyads.weight is not None:
            observed = self.dyads.weight.ravel() > 0
        self._edges = np.flatnonzero((labels == 1) & observed)
        self._non_edges = np.flatnonzero((labels == 0) & observed)
        if not (self._edges.size and self._non_edges.size):
            raise ValueError(
                f"network data must hold an edge and a non-edge among the "
                f"observed dyads; found {self._edges.size} edge(s) in "
                f"{self._edges.size + self._non_edges.size} observed dyad(s)"
            )
        self._pairs: tuple[np.ndarray, ...] | None = None

    def _init_means(self) -> list[np.ndarray]:
        """Spectral warm start: per-time rank-d factors of the data slices
        (network: top-d eigenpairs of 2Y - 1 with eigenvalues floored away
        from zero so no latent dimension starts exactly dead)."""
        d = self.cfg.d
        Y = self.obs.values
        T = self.T
        if self.kind == "bernoulli-network":
            n = self.sizes[0]
            mean = np.empty((n, T, d))
            for t in range(T):
                B = 2.0 * Y[t] - 1.0
                np.fill_diagonal(B, 0.0)
                w, V = np.linalg.eigh(B)
                idx = np.argsort(w)[::-1][:d]
                mean[:, t] = V[:, idx] * np.sqrt(np.clip(w[idx], 1e-2, None))
            return [mean]
        if self.kind == "gaussian-matrix":
            U, s, Vt = np.linalg.svd(Y, full_matrices=False)
            root = np.sqrt(s[:, None, :d])
            mu = U[..., :d] * root
            mv = Vt[:, :d].transpose(0, 2, 1) * root
            return [np.ascontiguousarray(m.transpose(1, 0, 2)) for m in (mu, mv)]
        # gaussian-tensor: HOSVD-style per-mode unfolding factors.
        M = len(self.sizes)
        means = []
        for m in range(M):
            U, s, _ = np.linalg.svd(unfold(Y, m), full_matrices=False)
            root = s[:, None, :d] ** (1.0 / M)
            means.append(np.ascontiguousarray((U[..., :d] * root).transpose(1, 0, 2)))
        return means

    # ----- shared pieces ---------------------------------------------------

    def _chain_rhos(
        self, m: int, rows: int | slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Initial and transition precisions of the given subjects' chains:
        (n,) and (n, T-1) for a slice, () and (T-1,) for one subject."""
        st = self.modes[m]
        rho0 = floored_precision(_rows(st.sigma0, rows))
        if self.cfg.prior == "iglsm":
            shared = floored_precision(self.aux.shared_trans)
            rho = np.full(rho0.shape + (self.T - 1,), shared)
        else:
            tau2 = _rows(st.tau2, rows)
            rho = transition_precisions(
                _rows(st.lambda2, rows),
                InverseGammaQ(tau2.shape[..., None], tau2.rate[..., None]),
            )
        return rho0, rho

    def _network_operands(self) -> tuple[np.ndarray, ...]:
        """What the network sites read, for the current state: the two
        per-dyad weight arrays of bernoulli_site_weights, and time-major
        copies of the second moments (T, n, d*d) and means (T, n, d)."""
        b = self.aux.intercept.mean if self.aux.intercept is not None else 0.0
        second_tm = np.ascontiguousarray(self.modes[0].second.transpose(1, 0, 2, 3))
        return (
            *bernoulli_site_weights(self.dyads, self.aux.curv, self.cfg.alpha, b),
            second_tm.reshape(self.T, self.sizes[0], -1),
            np.ascontiguousarray(self.modes[0].mean.transpose(1, 0, 2)),
        )

    def _sites(
        self, m: int, rows: int | slice, operands: tuple | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Site precisions and shifts of mode m's subjects `rows`: one
        subject for the network kind, any rows for the Gaussian kinds.  A
        network site reads `operands` (from _network_operands, made here
        when not given)."""
        if self.kind == "bernoulli-network":
            prec_w, shift_w, second_tm, mean_tm = operands or self._network_operands()
            return bernoulli_site_subject(
                prec_w, shift_w, self.dyads.cols[rows], second_tm, mean_tm
            )
        P, h = tensor_sites(
            self.obs.values, self.modes, self.aux.noise, self.cfg.alpha, m, self.obs.mask
        )
        return P[rows], h[rows]

    # ----- scale updates ---------------------------------------------------

    def _update_scales(self, m: int, rows: int | slice) -> None:
        """Conjugate scale updates for the given subjects, from their stored
        chains.  Order: eta, lambda^2, (tau^2, aux), sigma_0^2."""
        st = self.modes[m]
        cfg = self.cfg
        mean, cov, cross = st.mean[rows], st.cov[rows], st.cross[rows]
        e_trans = all_expected_transition_sq(mean, cov, cross)
        if cfg.prior == "ffs":
            eta_new = update_eta(_rows(st.lambda2, rows))
            lam_new = update_lambda2(
                eta_new,
                e_trans,
                _rows(st.tau2, rows).mean_inverse[..., None],
                cfg.d,
            )
            tau_new, aux_new = update_tau2(
                lam_new, e_trans, cfg.d, _rows(st.tau_aux, rows)
            )
            for q, new in (
                (st.eta, eta_new),
                (st.lambda2, lam_new),
                (st.tau2, tau_new),
                (st.tau_aux, aux_new),
            ):
                q.shape[rows] = new.shape
                q.rate[rows] = new.rate
        sig_new = update_sigma0(_initial_sq(mean, cov), cfg.d, cfg.a_sigma0, cfg.b_sigma0)
        st.sigma0.shape[rows] = sig_new.shape
        st.sigma0.rate[rows] = sig_new.rate

    # ----- block updates ---------------------------------------------------

    def _update_mode(self, m: int) -> None:
        """One pass over mode m's blocks.  The network's blocks are its
        subjects in ascending order (Gauss-Seidel); a Gaussian mode is one
        block, since its subjects are independent given the other modes.
        The other subjects' moments are frozen while a block iterates, so
        its site is built once.

        Only the moments need the Gauss-Seidel order: a subject's scales
        are read by its own chain precisions alone, and every scale update
        is elementwise or a per-row reduction.  So the precisions of all
        subjects are computed once before the loop, and the last round's
        scale updates run once over all subjects after it; a round r >= 1
        still updates its block's scales and precisions first.  The network
        sites' weights and time-major moments are made once per pass, and a
        stored subject's moments are copied into them.
        """
        st = self.modes[m]
        network = self.kind == "bernoulli-network"
        rho0_all, rho_all = self._chain_rhos(m)
        operands = self._network_operands() if network else None
        for rows in range(self.sizes[m]) if network else (slice(None),):
            P, h = self._sites(m, rows, operands)
            rho0, rho = rho0_all[rows], rho_all[rows]
            for r in range(self.cfg.inner_iters):
                if r:
                    self._update_scales(m, rows)
                    rho0, rho = self._chain_rhos(m, rows)
                mean, cov, cross = smooth_core(rho0, rho, P, h)
                st.mean[rows], st.cov[rows], st.cross[rows] = mean, cov, cross
                st.second[rows] = _second_from(mean, cov)
            if network:  # the later subjects' sites read these moments
                operands[2][:, rows] = st.second[rows].reshape(self.T, -1)
                operands[3][:, rows] = mean
        self._update_scales(m, slice(None))

    def _set_xi(self, xi: np.ndarray) -> None:
        self.aux.xi = xi
        self.aux.curv = logistic_quad_coeff(xi)

    def refresh_aux(self) -> None:
        cfg = self.cfg
        if self.kind == "bernoulli-network":
            xi, inner, pair_sq = xi_update(self.modes[0], self.dyads, self.aux.intercept)
            self._set_xi(xi)
            self._keep_pairs(inner, pair_sq)
            if cfg.intercept:
                self.aux.intercept = intercept_update(
                    self.dyads, self.aux.curv, inner, cfg.alpha, cfg.intercept_prior_var
                )
        else:
            self.aux.noise = gaussian_noise_update(
                self.obs, self.modes, cfg.alpha, cfg.a_sigma, cfg.b_sigma
            )
        if cfg.prior == "iglsm":
            total = 0.0
            count = 0
            for st in self.modes:
                e = all_expected_transition_sq(st.mean, st.cov, st.cross)
                total += float(e.sum())
                count += st.mean.shape[0]
            self.aux.shared_trans = update_shared_transition_variance(
                np.asarray(total), count, self.T, cfg.d, cfg.a_trans, cfg.b_trans
            )

    def sweep(self) -> None:
        for m in range(len(self.modes)):
            self._update_mode(m)
        self.refresh_aux()

    # ----- diagnostics -----------------------------------------------------

    def _fit_view(self) -> FitResult:
        return FitResult(
            kind=self.kind, config=self.cfg, modes=self.modes, aux=self.aux
        )

    def predict_stack(self) -> np.ndarray:
        return predict_stack(self._fit_view())

    def _pair_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed inner = E[u_i]'E[u_j] and pair_sq = tr(E[u_i u_i'] E[u_j u_j'])
        of the current network moments: those of the last xi refresh while
        the moments equal the ones it read, else formed anew."""
        mom = self.modes[0]
        if self._pairs is not None:
            mean, second, inner, pair_sq = self._pairs
            if np.array_equal(mean, mom.mean) and np.array_equal(second, mom.second):
                return inner, pair_sq
        inner, pair_sq = packed_pair_products(mom, self.dyads)
        self._keep_pairs(inner, pair_sq)
        return inner, pair_sq

    def _keep_pairs(self, inner: np.ndarray, pair_sq: np.ndarray) -> None:
        mom = self.modes[0]
        self._pairs = (mom.mean.copy(), mom.second.copy(), inner, pair_sq)

    def metric(self) -> float:
        """In-sample RMSE (Gaussian kinds) or training AUC (network).

        The network AUC scores only the observed upper-triangle dyads: the
        logits are the intercept plus the packed pair products, the same
        product as predict_stack, and the sigmoid runs on the observed
        edges and non-edges alone, so the value equals the AUC of
        predict_stack's upper triangle bit for bit.
        """
        if self.kind != "bernoulli-network":
            return rmse(self.predict_stack(), self.obs.values, self.obs.mask)
        b = self.aux.intercept.mean if self.aux.intercept is not None else 0.0
        logits = (b + self._pair_stats()[0]).ravel()
        return mann_whitney_auc(
            sigmoid(logits[self._edges]), sigmoid(logits[self._non_edges])
        )

    def elbo(self) -> float:
        """Evidence lower bound: exact for the Gaussian kinds, the tangent
        quadratic bound for the network kind.

        Every update in the engine is an exact coordinate optimum of this
        functional (and the tangent refresh tightens it), so it must be
        non-decreasing across sweeps; the tests lean on that.  Chain
        entropies use the Markov factorisation of the posterior, which is
        exact for the chain family.
        """
        cfg = self.cfg
        d = cfg.d
        if self.kind == "bernoulli-network":
            xi, a = self.aux.xi, self.aux.curv
            inner, pair_sq = self._pair_stats()
            b = self.aux.intercept
            mb = float(b.mean) if b is not None else 0.0
            eb2 = float(b.second_moment) if b is not None else 0.0
            edge = (
                a * (eb2 + 2.0 * mb * inner + pair_sq)
                + self.dyads.resid * (mb + inner)
                + logistic_quad_const(xi)
            )
            if self.dyads.weight is not None:
                edge = edge * self.dyads.weight
            total = cfg.alpha * float(edge.sum())
            if b is not None:
                v0 = cfg.intercept_prior_var
                total += _gauss_term(1, np.log(v0), 1.0 / v0, b.second_moment)
                total += 0.5 * (1.0 + np.log(2 * np.pi * float(b.var)))
        else:
            noise = self.aux.noise
            log_noise = noise.mean_log
            sse = expected_sse(self.obs, self.modes)
            total = cfg.alpha * _gauss_term(
                self.obs.count_observed(), log_noise, noise.mean_inverse, sse
            )
            total += _ig_term(
                noise, log_noise, cfg.a_sigma, np.log(cfg.b_sigma), cfg.b_sigma
            )
        shared = self.aux.shared_trans
        if cfg.prior == "iglsm":
            log_shared = shared.mean_log
            total += _ig_term(
                shared, log_shared, cfg.a_trans, np.log(cfg.b_trans), cfg.b_trans
            )
        for st in self.modes:
            e_trans = all_expected_transition_sq(st.mean, st.cov, st.cross)
            s0 = st.sigma0
            log_s0 = s0.mean_log
            total += _gauss_term(
                d, log_s0, s0.mean_inverse, _initial_sq(st.mean, st.cov)
            )
            total += _ig_term(
                s0, log_s0, cfg.a_sigma0, np.log(cfg.b_sigma0), cfg.b_sigma0
            )
            if cfg.prior == "iglsm":
                total += _gauss_term(d, log_shared, shared.mean_inverse, e_trans)
            else:
                lam, eta, tau2, aux = st.lambda2, st.eta, st.tau2, st.tau_aux
                log_lam, log_eta, log_tau2, log_aux = (
                    q.mean_log for q in (lam, eta, tau2, aux)
                )
                # Transitions under the scale product tau^2 lambda^2, then
                # lambda^2 | eta ~ IG(1/2, 1/eta), eta ~ IG(1/2, 1) and the
                # same pair for tau^2 and its auxiliary.
                total += _gauss_term(
                    d,
                    log_tau2[:, None] + log_lam,
                    tau2.mean_inverse[:, None] * lam.mean_inverse,
                    e_trans,
                )
                total += _ig_term(lam, log_lam, 0.5, -log_eta, eta.mean_inverse)
                total += _ig_term(eta, log_eta, 0.5, 0.0, 1.0)
                total += _ig_term(tau2, log_tau2, 0.5, -log_aux, aux.mean_inverse)
                total += _ig_term(aux, log_aux, 0.5, 0.0, 1.0)
            total += float(np.sum(chain_entropy(st.cov, st.cross)))
        return float(total)

    # ----- main loop -------------------------------------------------------

    def run(self) -> FitResult:
        cfg = self.cfg
        tol = cfg.tol_auc if self.kind == "bernoulli-network" else cfg.tol_rmse
        trace: list[float] = []
        converged = False
        cycles = 0
        for _ in range(cfg.max_cycles):
            self.sweep()
            cycles += 1
            trace.append(self.metric())
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
                converged = True
                break
        result = self._fit_view()
        result.trace = trace
        result.converged = converged
        result.cycles = cycles
        return result


def fit(obs: ObservationSet, config: ModelConfig | None = None) -> FitResult:
    """Fit the dynamic factorization model; see CaviEngine for the schedule."""
    return CaviEngine(obs, config or ModelConfig()).run()
