"""Cross-check sphere simulations against the exact spectral heat kernel.

Runs the S^2 and S^3 reference configurations (radius 3, diffusion 0.4,
T = 2) with every integrator and prints simulated means next to the
series ground truth.
"""

import argparse

import numpy as np

from manifold_sde import (
    INTEGRATOR_IDS,
    SimulationConfig,
    heat_expectation_s2,
    heat_expectation_s3,
    make_cost,
    make_manifold,
    simulate,
)
from manifold_sde.costs import ANGLE_COSTS

CASES = [
    ("S2", dict(n=3), "phi_5_2", heat_expectation_s2),
    ("S3", dict(n=4), "phi_32_52", heat_expectation_s3),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-path", type=int, default=1000)
    ap.add_argument("--n-div", type=int, default=1000)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--diffusion", type=float, default=0.4)
    ap.add_argument("--radius", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    for tag, params, cost_id, series in CASES:
        handle = make_manifold("sphere", radius=args.radius, **params)
        exact = series(ANGLE_COSTS[cost_id], T=args.T, diffusion=args.diffusion,
                       radius=args.radius)
        print(f"{tag} cost {cost_id}: spectral series = {exact:.6f}")
        for integ in INTEGRATOR_IDS:
            config = SimulationConfig(
                T=args.T, n_div=args.n_div, n_path=args.n_path, seed=args.seed,
                integrator=integ, diffusion=args.diffusion, path_chunk=args.n_path,
            )
            out = simulate(config, handle, cost=make_cost(cost_id, handle))
            z = (out.mean - exact) / out.stderr if out.stderr else np.inf
            print(f"  {integ:>13}: {out.mean:.4f} +- {out.stderr:.4f}  (z = {z:+.2f})")


if __name__ == "__main__":
    main()
