"""Fit benchmark for fusionshrink.

    python3 fitbench/run.py --workload network-cluster --seed 0 --seconds 30 --trace 0

Runs whole rounds of one workload's jobs (see workloads.py) from one
process, for about `--seconds` seconds, checks every output, and prints
one JSON line last on stdout: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`.  The package is
imported from `src/` of the checkout that holds this file.
"""
from __future__ import annotations

import os
import sys
import time

# Pinned before numpy loads: one BLAS thread keeps runs comparable on a
# small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started (Linux), else since this module ran."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


import argparse
import json
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "sweeps_per_s": "1/s",
    "rmse_truth": "1",
    "peak_rss_mb": "MB",
}

# metric -> (unit, layers it needs, how it is read from the tracer)
PER_LAYER = {
    "chain.smooth_s": ("s", ("chain.smooth",), lambda t: t.self_s["chain.smooth"]),
    "chain.smooth_calls": ("count", ("chain.smooth",), lambda t: t.calls["chain.smooth"]),
    "chain.chains": ("count", ("chain.smooth",), lambda t: t.counts["chain.chains"]),
    "likelihoods.sites_s": ("s", ("likelihoods.sites",), lambda t: t.self_s["likelihoods.sites"]),
    "likelihoods.sites_calls": ("count", ("likelihoods.sites",), lambda t: t.calls["likelihoods.sites"]),
    "likelihoods.aux_s": ("s", ("likelihoods.aux",), lambda t: t.self_s["likelihoods.aux"]),
    "scales.update_s": ("s", ("scales.update",), lambda t: t.self_s["scales.update"]),
    "scales.update_calls": ("count", ("scales.update",), lambda t: t.calls["scales.update"]),
    "engine.init_s": ("s", ("engine.init",), lambda t: t.self_s["engine.init"]),
    "engine.sweeps": ("count", ("engine.sweep",), lambda t: t.calls["engine.sweep"]),
    "engine.sweep_self_s": ("s", ("engine.run", "engine.sweep"),
                            lambda t: t.self_s["engine.run"] + t.self_s["engine.sweep"]),
    "engine.metric_s": ("s", ("engine.metric",), lambda t: t.self_s["engine.metric"]),
    "engine.elbo_s": ("s", ("engine.elbo",), lambda t: t.self_s["engine.elbo"]),
    "engine.predict_s": ("s", ("engine.predict",), lambda t: t.self_s["engine.predict"]),
    "postprocess.align_s": ("s", ("postprocess.align",), lambda t: t.self_s["postprocess.align"]),
    "postprocess.kmeans_s": ("s", ("postprocess.kmeans",), lambda t: t.self_s["postprocess.kmeans"]),
    "postprocess.kmeans_calls": ("count", ("postprocess.kmeans",), lambda t: t.calls["postprocess.kmeans"]),
    "dataio.load_s": ("s", ("dataio.load",), lambda t: t.self_s["dataio.load"]),
    "dataio.save_s": ("s", ("dataio.save",), lambda t: t.self_s["dataio.save"]),
}
UNITS = {**END_TO_END, **{name: spec[0] for name, spec in PER_LAYER.items()},
         "dataio.bytes_written": "count", "simulate.generate_s": "s", "trace.overhead_s": "s"}


def _import_package() -> None:
    """Import fusionshrink from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fusionshrink

    if Path(fusionshrink.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"fusionshrink was imported from {fusionshrink.__file__}, not {src}")


@dataclass
class JobRecord:
    """The figures one job leaves; its arrays are dropped after checking."""

    index: int
    job_s: float
    run_s: float
    sweeps: int
    rmse_truth: float
    bytes_written: int


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False  # some operation finished with a wrong output

    def operation(self, label: str, fn) -> object | None:
        """Run `fn() -> (result, failure messages)` as one operation."""
        self.attempted += 1
        try:
            result, fails = fn()
        except Exception:  # a job that raises is one failed operation
            self.failed += 1
            print(f"{label}: raised\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if fails:
            self.failed += 1
            self.wrong = True
            for msg in fails:
                print(f"{label}: {msg}", file=sys.stderr)
        return result


def run_round(workload, datasets, workdir: Path, tally: Tally, jobs: list) -> None:
    """One job per dataset; appends a JobRecord per finished job to `jobs`."""
    for ds in datasets:
        def job(ds=ds):
            out = workload.run_job(ds, workdir)
            record = JobRecord(ds.index, out.job_s, out.run_s, out.sweeps,
                               workload.rmse_truth(ds, out), out.bytes_written)
            return record, workload.check(ds, out)

        record = tally.operation(f"{workload.name} job {ds.index}", job)
        if record is not None:
            jobs.append(record)


def rounds(seconds: float, step) -> None:
    """Call `step` at least once, and again while one more call of the
    length of the last one still ends within `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def panel_mean(jobs: list, figure) -> float:
    """Mean over datasets of each dataset's median over rounds.  A median
    over rounds is moved less than a mean by the rounds that a busy spell of
    the shared machine slowed down.  Datasets differ in how many sweeps they take, so a median
    across them jumps when one fit stops a few sweeps earlier; the mean moves
    by that job's share."""
    by_dataset: dict[int, list[float]] = {}
    for job in jobs:
        by_dataset.setdefault(job.index, []).append(figure(job))
    return statistics.fmean(statistics.median(v) for v in by_dataset.values())


def end_to_end(setup_s: float, jobs: list) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "job_s": panel_mean(jobs, lambda j: j.job_s),
        "sweeps_per_s": panel_mean(jobs, lambda j: j.sweeps / j.run_s),
        "rmse_truth": statistics.median(j.rmse_truth for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import fusionshrink from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        tally, metrics = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def untraced_run(workload, args, workdir):
    datasets = workload.make(args.seed, workdir)
    setup_s = _process_age()
    tally, jobs = Tally(), []
    rounds(args.seconds, lambda: run_round(workload, datasets, workdir, tally, jobs))
    property_check(workload, datasets, workdir, tally)
    summarize(workload, jobs)
    return tally, (end_to_end(setup_s, jobs) if jobs else {})


def traced_run(workload, args, workdir):
    """Alternate an untraced and a traced round over the same datasets; the
    traced rounds give the per-layer figures per job, the two kinds of round
    together the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    hooks = tracing.Installed(tracer)
    datasets = workload.make(args.seed, workdir)
    hooks.restore()
    generate_s = tracer.self_s["simulate.generate"]
    tracer.reset()
    for entry in hooks.missing:
        print(f"missing layer: {entry}", file=sys.stderr)

    tally, plain, traced = Tally(), [], []

    def pair():
        run_round(workload, datasets, workdir, tally, plain)
        installed = tracing.Installed(tracer)
        try:
            run_round(workload, datasets, workdir, tally, traced)
        finally:
            installed.restore()

    rounds(args.seconds, pair)
    property_check(workload, datasets, workdir, tally)
    summarize(workload, traced)
    n = max(len(traced), 1)
    present = hooks.layers()
    metrics = {name: read(tracer) / n for name, (_, needs, read) in PER_LAYER.items()
               if set(needs) <= present}
    metrics["dataio.bytes_written"] = sum(j.bytes_written for j in traced) / n
    if "simulate.generate" in present:
        metrics["simulate.generate_s"] = generate_s
    if plain and traced:
        job_s = lambda j: j.job_s
        metrics["trace.overhead_s"] = panel_mean(traced, job_s) - panel_mean(plain, job_s)
    return tally, metrics


def property_check(workload, datasets, workdir: Path, tally: Tally) -> None:
    tally.operation(f"{workload.name} property check",
                    lambda: (None, workload.property_check(datasets[0], workdir)))


def summarize(workload, jobs: list) -> None:
    for j in jobs:
        print(f"{workload.name} dataset {j.index}: job {j.job_s:.3f} s, "
              f"{j.sweeps} sweeps in {j.run_s:.3f} s, rmse_truth {j.rmse_truth:.5f}",
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
