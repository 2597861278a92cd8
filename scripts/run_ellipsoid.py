#!/usr/bin/env python3
"""Convergence experiment on a generated ellipsoid (or a supplied mesh).

Runs the full pipeline under each method (the default L-BFGS run and the
paper's run) and prints a table row per run: SD/Mean, stretch-minus-area
energy at matched total areas, wall time, and residual fold count.
"""

import argparse

from authalic.mesh import load_mesh, make_icosphere, normalize_area
from authalic.pipeline import METHODS, ParameterizeConfig, parameterize


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mesh", nargs="?", default=None,
                    help="optional OBJ/OFF path (default: generated ellipsoid)")
    ap.add_argument("--subdivisions", type=int, default=4)
    ap.add_argument("--radii", type=float, nargs=3, default=(1.0, 0.8, 0.6))
    ap.add_argument("--max-iters", type=int, default=None, help="default: each method's")
    args = ap.parse_args()

    if args.mesh:
        surface = load_mesh(args.mesh)
        name = args.mesh
    else:
        surface = make_icosphere(args.subdivisions, args.radii)
        name = f"ellipsoid{tuple(args.radii)} sub {args.subdivisions}"
    surface = normalize_area(surface)
    print(f"model: {name}  ({surface.n_vertices} vertices, {surface.n_faces} faces)")
    print(f"{'method':>12}  {'SD/Mean':>9}  {'E_A':>10}  {'time':>7}  folds")

    for method in METHODS:
        config = ParameterizeConfig(method=method, max_iters=args.max_iters)
        summary = parameterize(surface, config).summary
        print(f"{method:>12}  {summary['sd_over_mean']:9.4f}  {summary['authalic']:10.3e}  "
              f"{summary['seconds']:6.2f}s  {summary['folds']}")


if __name__ == "__main__":
    main()
