"""Clustering accuracy of the fused prior vs the shared-variance prior.

Sweeps the per-step stay probability of the corner-hopping network and
reports the median time-averaged Rand index for both priors.  Sparse
transitions (p_stay near 1) is where the fused prior's separation
preservation should show; dense transitions erode both.

Heavier than the other scripts: each cell fits 2 models x replicates at a
fixed 200-sweep budget (several minutes per p_stay value at the defaults).
"""
import argparse
from statistics import median

from fusionshrink.benchmark import run_cluster


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--T", type=int, default=100)
    ap.add_argument("--p-stay", type=float, nargs="+", default=[0.95])
    ap.add_argument("--replicates", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"n={args.n} T={args.T} replicates={args.replicates} seed={args.seed}")
    print(f"{'p_stay':>8} {'ffs':>8} {'iglsm':>8}")
    for p in args.p_stay:
        rows = run_cluster(
            n=args.n,
            T=args.T,
            p_stay=p,
            replicates=args.replicates,
            seed=args.seed,
        )
        med = {}
        for method in ("ffs", "iglsm"):
            med[method] = median(r["value"] for r in rows if r["method"] == method)
        print(f"{p:>8.3f} {med['ffs']:>8.4f} {med['iglsm']:>8.4f}")


if __name__ == "__main__":
    main()
