#!/usr/bin/env python3
"""Noise-stability experiment.

Perturbs every vertex of a model along its normal with Gaussian noise,
re-runs the full parameterization, and reports the relative authalic-
energy error

    err = n_vertices * |E_A(noisy) - E_A(clean)| / sum_v ||v_noisy - v||

for a sweep of noise levels.  Noise is applied to the raw coordinates,
before area normalization.
"""

import argparse
import sys

from authalic.diagnostics import authalic_error
from authalic.errors import AuthalicError
from authalic.mesh import load_mesh, make_icosphere, normalize_area, perturb_vertices
from authalic.pipeline import ParameterizeConfig, parameterize


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mesh", nargs="?", default=None)
    ap.add_argument("--subdivisions", type=int, default=4)
    ap.add_argument("--sigmas", type=float, nargs="+", default=[1e-3, 5e-3])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-iters", type=int, default=None,
                    help="default: the default method's")
    args = ap.parse_args()
    if args.max_iters is not None and args.max_iters < 0:
        ap.error(f"argument --max-iters: must be >= 0, got {args.max_iters}")
    if args.subdivisions < 0:
        ap.error(f"argument --subdivisions: must be >= 0, got {args.subdivisions}")
    if args.seed < 0:
        ap.error(f"argument --seed: must be >= 0, got {args.seed}")
    for sigma in args.sigmas:
        # a zero sigma moves no vertex, so the relative error divides by zero
        if not 0 < sigma < float("inf"):
            ap.error(f"argument --sigmas: must be > 0 and finite, got {sigma}")

    if args.mesh:
        try:
            raw = load_mesh(args.mesh)
        except (AuthalicError, OSError) as exc:
            sys.exit(f"error: {exc}")
    else:
        raw = make_icosphere(args.subdivisions, (1.0, 0.8, 0.6))
    config = ParameterizeConfig(max_iters=args.max_iters, seed=args.seed)

    clean = parameterize(normalize_area(raw), config).summary
    print(f"clean: SD/Mean {clean['sd_over_mean']:.4f}  E_A {clean['authalic']:.3e}  "
          f"time {clean['seconds']:.2f}s")
    print(f"{'sigma':>8}  {'SD/Mean':>9}  {'E_A':>10}  {'err-E_A':>10}  folds")

    for sigma in args.sigmas:
        noisy_raw = perturb_vertices(raw, sigma, args.seed)
        noisy = parameterize(normalize_area(noisy_raw), config).summary
        err = authalic_error(noisy_raw, raw, noisy["authalic"], clean["authalic"])
        print(f"{sigma:8.0e}  {noisy['sd_over_mean']:9.4f}  {noisy['authalic']:10.3e}  "
              f"{err:10.3e}  {noisy['folds']}")


if __name__ == "__main__":
    main()
