"""Transition-norm heatmap for the two-movers network.

Simulates the ten-subject network in which only subjects 1 and 2 change
position, fits the fused-shrinkage model, and prints each subject's
aligned one-step transition norms bucketed over time.  The two movers
should be the only rows with visible mass.
"""
import argparse

import numpy as np

from fusionshrink.benchmark import _config
from fusionshrink.engine import fit
from fusionshrink.metrics import transition_norm_heatmap
from fusionshrink.postprocess import align_modes
from fusionshrink.simulate import gen_two_movers


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--T", type=int, default=100)
    ap.add_argument("--transit-prob", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--buckets", type=int, default=25, help="time buckets per row")
    args = ap.parse_args()

    data = gen_two_movers(args.n, args.T, transit_prob=args.transit_prob, seed=args.seed)
    result = fit(data.observations, _config(2, args.seed, None))

    [aligned] = align_modes([result.modes[0].mean])
    heat = transition_norm_heatmap(aligned.transpose(1, 0, 2))
    # Collapse T-1 transitions into coarse buckets for terminal display.
    edges = np.linspace(0, heat.shape[1], args.buckets + 1).astype(int)
    marks = " .:*#"
    top = np.argsort(heat.max(axis=1))[-2:]  # as benchmark.mover_scores
    print(f"n={args.n} T={args.T} transit_prob={args.transit_prob} seed={args.seed}")
    print(f"largest scores at subjects {sorted(int(i) for i in top)} (movers are 0 and 1)")
    scale = heat.max()
    for i in range(heat.shape[0]):
        row = [heat[i, a:b].max() if b > a else 0.0 for a, b in zip(edges[:-1], edges[1:])]
        cells = "".join(marks[min(int(v / scale * (len(marks) - 1) + 0.5), 4)] for v in row)
        print(f"subject {i:2d} |{cells}| peak {heat[i].max():.3f}")


if __name__ == "__main__":
    main()
