"""The workloads of the fit benchmark: inputs, jobs and checks.

`network-cluster` and `matrix-files` are the workloads of BENCHMARK.json;
`tensor-large` runs by name only (see the README for why).

A job fits one dataset end to end: construct `CaviEngine` (which includes
the spectral warm start), `run()`, `elbo()` once, `predict_stack()`, then
the workload's own extra steps.  Only the job is timed; checks run after.

Ground truths are a fixed panel: dataset j of every run is built on the
truth the package generator draws from seed j.  The run's `--seed` draws
everything observed on top of it: the Gaussian noise and the network
edges.  The tolerance rule stops a Gaussian fit after 4 to 35 sweeps
depending mostly on the truth, so a truth drawn per run would move
`job_s` by 20-30% from seed to seed, more than any bound can allow.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from fusionshrink import dataio, postprocess, simulate
from fusionshrink.engine import CaviEngine, FitResult, ModelConfig
from fusionshrink.likelihoods import ObservationSet

PROPERTY_SWEEPS = 6


@dataclass
class Dataset:
    index: int
    obs: ObservationSet | None  # None when the job reads it from `path`
    truth: np.ndarray | list[np.ndarray]  # true means, or tensor factors
    Y: np.ndarray | None = None  # observed values as the program sees them
    path: Path | None = None
    labels: np.ndarray | None = None  # true corner labels (T, n)


@dataclass
class JobOutput:
    job_s: float
    run_s: float
    sweeps: int
    trace_last: float
    elbo: float
    pred: np.ndarray
    means: list[np.ndarray]
    labels: np.ndarray | None = None
    bytes_written: int = 0


def _rng(seed: int, salt: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, salt, j])))


class Workload:
    name = ""
    kind = ""
    salt = 0  # keeps the workloads' random streams apart for one --seed
    datasets = 1
    d = 2

    def config(self, ds: Dataset) -> ModelConfig:
        return ModelConfig(d=self.d, seed=ds.index)

    def make(self, seed: int, workdir: Path) -> list[Dataset]:
        return [self.make_one(_rng(seed, self.salt, j), j, workdir) for j in range(self.datasets)]

    def make_one(self, rng: np.random.Generator, j: int, workdir: Path) -> Dataset:
        raise NotImplementedError

    def observations(self, ds: Dataset) -> ObservationSet:
        return ds.obs

    def extra(self, fit: FitResult, ds: Dataset, workdir: Path) -> dict:
        return {}

    def run_job(self, ds: Dataset, workdir: Path) -> JobOutput:
        start = time.perf_counter()
        eng = CaviEngine(self.observations(ds), self.config(ds))
        run_start = time.perf_counter()
        fit = eng.run()
        run_s = time.perf_counter() - run_start
        elbo = eng.elbo()
        pred = eng.predict_stack()
        extra = self.extra(fit, ds, workdir)
        job_s = time.perf_counter() - start
        return JobOutput(
            job_s=job_s,
            run_s=run_s,
            sweeps=fit.cycles,
            trace_last=fit.trace[-1],
            elbo=elbo,
            pred=pred,
            means=[m.mean for m in fit.modes],
            **extra,
        )

    def truth_means(self, ds: Dataset) -> np.ndarray:
        return ds.truth

    def rmse_truth(self, ds: Dataset, out: JobOutput) -> float:
        return checks.rmse(out.pred, self.truth_means(ds))

    def check(self, ds: Dataset, out: JobOutput) -> list[str]:
        """Failures shared by every workload; subclasses add their own."""
        means = np.concatenate([m.ravel() for m in out.means])
        return (checks.finite(prediction=out.pred, elbo=out.elbo, means=means)
                + checks.final_trace(self.kind, out.trace_last, out.pred, ds.Y))

    def property_check(self, ds: Dataset, workdir: Path) -> list[str]:
        """ELBO never falls across directly driven sweeps, and two saves of
        the same fit are byte-identical.  Not timed."""
        eng = CaviEngine(self.observations(ds), self.config(ds))
        elbos = [eng.elbo()]
        for _ in range(PROPERTY_SWEEPS):
            eng.sweep()
            elbos.append(eng.elbo())
        fails = checks.finite(elbo=elbos) + checks.elbo_monotone(elbos)
        fit = FitResult(kind=eng.kind, config=eng.cfg, modes=eng.modes, aux=eng.aux,
                        trace=[eng.metric()], cycles=PROPERTY_SWEEPS)
        a = dataio.save_fit(workdir / "property_a", fit)
        b = dataio.save_fit(workdir / "property_b", fit)
        return fails + checks.identical_dirs(a, b)


class NetworkCluster(Workload):
    """The `cluster` scenario at a fixed sweep budget, plus postprocess.
    One dataset a round: a job takes about 6 s, so a run repeats it often
    enough for a median over rounds."""

    name = "network-cluster"
    kind = "bernoulli-network"
    salt = 1

    def __init__(self, n=40, T=100, p_stay=0.95, k=4, sweeps=16, datasets=1):
        self.n, self.T, self.p_stay, self.k = n, T, p_stay, k
        self.sweeps, self.datasets = sweeps, datasets

    def config(self, ds):
        return ModelConfig(d=self.d, seed=ds.index, intercept=True, inner_iters=1,
                           tol_auc=0.0, max_cycles=self.sweeps)

    def make_one(self, rng, j, workdir):
        truth = simulate.gen_cluster_case(self.n, self.T, p_stay=self.p_stay, seed=j)
        probs = truth.truth_means
        iu = np.triu_indices(self.n, k=1)
        edges = (rng.random((self.T, iu[0].size)) < probs[:, iu[0], iu[1]]).astype(float)
        Y = np.zeros_like(probs)
        Y[:, iu[0], iu[1]] = edges
        Y[:, iu[1], iu[0]] = edges
        return Dataset(j, ObservationSet(self.kind, Y), probs, Y=Y, labels=truth.truth_labels)

    def extra(self, fit, ds, workdir):
        paths = fit.modes[0].mean.transpose(1, 0, 2)
        aligned, _ = postprocess.sequential_align(postprocess.row_normalize(paths))
        labels = np.stack([
            postprocess.kmeans_rows(aligned[t], self.k, restarts=10, seed=ds.index)[0]
            for t in range(aligned.shape[0])
        ])
        return {"labels": labels}

    def rmse_truth(self, ds, out):
        off = ~np.eye(self.n, dtype=bool)
        return checks.rmse(out.pred[:, off], ds.truth[:, off])

    def check(self, ds, out):
        return (super().check(ds, out) + checks.network_probs(out.pred)
                + checks.rand_above(out.labels, ds.labels))


class MatrixFiles(Workload):
    """case1 read from and written to text files, at a fixed sweep budget:
    under the default tolerance rule the sweep count of a fit jumps between
    about 5 and 20 with the noise draw, which moved `job_s` by 15-20%
    (interquartile) between seeds at 16 datasets a run.

    No cell is masked: with masked cells written as 0 the warm start reads
    them, and on some seeds the fit ends far from the truth (rmse_truth 2.3
    against 0.09 with the true values in those cells), so which jobs fail
    would depend on the seed."""

    name = "matrix-files"
    kind = "gaussian-matrix"
    salt = 2

    def __init__(self, n=20, p=20, T=100, sweeps=12, datasets=8):
        self.n, self.p, self.T = n, p, T
        self.sweeps, self.datasets = sweeps, datasets

    def config(self, ds):
        return ModelConfig(d=self.d, seed=ds.index, tol_rmse=0.0, max_cycles=self.sweeps)

    def make_one(self, rng, j, workdir):
        truth = simulate.gen_case1(self.n, self.p, self.T, sigma=checks.NOISE_SD, seed=j)
        means = truth.truth_means
        Y = means + checks.NOISE_SD * rng.standard_normal(means.shape)
        path = dataio.save_dataset(workdir / f"data_{j:02d}", ObservationSet(self.kind, Y), seed=j)
        return Dataset(j, None, means, Y=Y, path=path)

    def observations(self, ds):
        return dataio.load_dataset(ds.path)[0]

    def extra(self, fit, ds, workdir):
        out = dataio.save_fit(workdir / f"fit_{ds.index:02d}", fit)
        return {"bytes_written": sum(f.stat().st_size for f in out.iterdir())}

    def check(self, ds, out):
        return (super().check(ds, out) + checks.below_noise(self.rmse_truth(ds, out))
                + checks.beats_svd(out.pred, ds.Y, ds.truth, self.d))


class TensorLarge(Workload):
    """case3 at 30x30x30, held in memory.  Not in BENCHMARK.json: on the
    shared machine its time metrics spread past their bound between sets
    of runs of the same code."""

    name = "tensor-large"
    kind = "gaussian-tensor"
    salt = 3

    def __init__(self, dims=(30, 30, 30), T=100, datasets=4):
        self.dims, self.T, self.datasets = tuple(dims), T, datasets

    def make_one(self, rng, j, workdir):
        truth = simulate.gen_case3_tensor(self.dims, self.T, sigma=checks.NOISE_SD, seed=j)
        factors = truth.truth_factors
        Y = truth.truth_means
        Y += checks.NOISE_SD * rng.standard_normal(Y.shape)
        # Only the factors are kept; the means are rebuilt when checking.
        return Dataset(j, ObservationSet(self.kind, Y), factors, Y=Y)

    def truth_means(self, ds):
        return checks.cp_means(ds.truth)

    def check(self, ds, out):
        return super().check(ds, out) + checks.below_noise(self.rmse_truth(ds, out))


WORKLOADS = {w.name: w for w in (NetworkCluster, MatrixFiles, TensorLarge)}
