"""Command-line entry points.

Subcommands: simulate (write a synthetic dataset directory), fit (run the
variational engine on a dataset directory and write artifacts), benchmark
(replicate a scenario comparison into a CSV), postprocess (normalise,
align, and cluster saved factor paths).  Every command is deterministic
given its flags; missing or malformed inputs exit with status 2.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .benchmark import SCENARIOS
from .dataio import (
    load_dataset,
    load_fit_factors,
    save_dataset,
    save_fit,
    write_factors,
    write_results_csv,
    write_slices,
)
from .engine import ModelConfig, fit
from .postprocess import align_modes, kmeans_rows, row_normalize
from .simulate import (
    gen_case1,
    gen_case2_network,
    gen_case3_tensor,
    gen_cluster_case,
    gen_two_movers,
)

KIND_FLAGS = {
    "gaussian": "gaussian-matrix",
    "bernoulli": "bernoulli-network",
    "tensor": "gaussian-tensor",
}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got '{text}'")


def cmd_fit(args: argparse.Namespace) -> int:
    obs, _ = load_dataset(args.data)
    if args.kind is not None and KIND_FLAGS[args.kind] != obs.kind:
        raise ValueError(
            f"--kind {args.kind} maps to '{KIND_FLAGS[args.kind]}' but the "
            f"dataset manifest says '{obs.kind}'"
        )
    kwargs = dict(
        d=args.d,
        alpha=args.alpha,
        prior=args.prior,
        intercept=args.intercept,
        max_cycles=args.max_cycles,
        seed=args.seed,
    )
    if args.tol is not None:
        if obs.kind == "bernoulli-network":
            kwargs["tol_auc"] = args.tol
        else:
            kwargs["tol_rmse"] = args.tol
    result = fit(obs, ModelConfig(**kwargs))
    out = save_fit(args.out, result)
    print(
        f"fit {obs.kind}: cycles={result.cycles} converged={result.converged} "
        f"final_metric={result.trace[-1]:.6g} -> {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = args.scenario
    T, seed = args.T, args.seed
    if scenario == "case1":
        rho = 0.95 if args.rho is None else args.rho
        n = 20 if args.n is None else args.n
        p = n if args.p is None else args.p
        data = gen_case1(n, p, T, d=args.d, rho=rho, sigma=args.sigma, seed=seed)
    elif scenario == "case2":
        rho = 0.9 if args.rho is None else args.rho
        n = 20 if args.n is None else args.n
        data = gen_case2_network(n, T, rho=rho, seed=seed)
    elif scenario == "case3":
        rho = 0.99 if args.rho is None else args.rho
        dims = tuple(int(s) for s in args.dims.split(","))
        if len(dims) != 3:
            raise ValueError("--dims must hold three comma-separated sizes")
        data = gen_case3_tensor(dims, T, rho=rho, sigma=args.sigma, seed=seed)
    elif scenario == "cluster":
        rho = 0.95 if args.rho is None else args.rho
        n = 40 if args.n is None else args.n
        data = gen_cluster_case(n, T, p_stay=rho, seed=seed)
    else:  # two-movers; --rho is the per-step stay probability
        rho = 0.95 if args.rho is None else args.rho
        n = 10 if args.n is None else args.n
        data = gen_two_movers(n, T, transit_prob=1.0 - rho, seed=seed)
    out = Path(args.out)
    save_dataset(out, data.observations, seed=seed)
    write_slices(out, "truth_t", data.truth_means)
    if data.truth_labels is not None:
        np.savetxt(out / "labels.txt", data.truth_labels, fmt="%d")
    print(f"simulate {scenario}: T={T} dims={data.observations.dims} -> {out}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    runner = SCENARIOS[args.scenario.replace("-", "_")]
    rows = runner(replicates=args.reps, seed=args.seed)
    out = write_results_csv(args.out, rows)
    print(f"benchmark {args.scenario}: {len(rows)} rows -> {out}")
    return 0


def cmd_postprocess(args: argparse.Namespace) -> int:
    paths, entries = load_fit_factors(args.fit)
    if args.normalize:
        paths = [row_normalize(p) for p in paths]
    if args.align:
        paths = align_modes(paths)
        if paths is None:
            raise ValueError(
                "--align is undefined for fits with more than two latent modes"
            )
    labels = None
    if args.kmeans is not None:  # before any write, so a bad K leaves no output
        seed = int(entries.get("seed", "0"))
        slices = paths[0].transpose(1, 0, 2)  # (T, n, d)
        labels = [kmeans_rows(x, args.kmeans, seed=seed)[0] for x in slices]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_factors(out, "post_m", paths)
    if labels is not None:
        np.savetxt(out / "labels.txt", labels, fmt="%d")
    print(f"postprocess: {len(paths)} mode(s) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionshrink",
        description="Dynamic low-rank mean estimation with fused shrinkage priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model on a dataset directory")
    p_fit.add_argument("--data", required=True, help="dataset directory")
    p_fit.add_argument("--kind", choices=sorted(KIND_FLAGS), default=None)
    p_fit.add_argument("--d", type=int, default=2, help="latent dimension")
    p_fit.add_argument("--alpha", type=float, default=0.95)
    p_fit.add_argument("--prior", choices=("ffs", "iglsm"), default="ffs")
    p_fit.add_argument("--intercept", type=_parse_bool, default=False, metavar="BOOL")
    p_fit.add_argument("--tol", type=float, default=None)
    p_fit.add_argument("--max-cycles", type=int, default=100)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="artifact directory")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    p_sim.add_argument(
        "--scenario",
        required=True,
        choices=("case1", "case2", "case3", "cluster", "two-movers"),
    )
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p", type=int, default=None)
    p_sim.add_argument("--dims", default="10,10,10", help="case3 sizes, e.g. 10,10,10")
    p_sim.add_argument("--T", type=int, default=100)
    p_sim.add_argument("--d", type=int, default=2)
    p_sim.add_argument("--rho", type=float, default=None, help="per-step stay probability")
    p_sim.add_argument("--sigma", type=float, default=0.3)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run a scenario comparison")
    p_bench.add_argument(
        "--scenario",
        required=True,
        choices=("case1", "case2", "case3", "cluster", "two-movers"),
    )
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.set_defaults(func=cmd_benchmark)

    p_post = sub.add_parser("postprocess", help="align and cluster saved factors")
    p_post.add_argument("--fit", required=True, help="fit artifact directory")
    p_post.add_argument("--align", action="store_true")
    p_post.add_argument("--normalize", action="store_true")
    p_post.add_argument("--kmeans", type=int, default=None, metavar="K")
    p_post.add_argument("--out", required=True)
    p_post.set_defaults(func=cmd_postprocess)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
