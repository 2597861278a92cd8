#!/usr/bin/env python3
"""Convergence experiment on a generated ellipsoid (or a supplied mesh).

Runs the full pipeline under each method (the default L-BFGS run and the
paper's run) and prints a table row per run: SD/Mean, stretch-minus-area
energy at matched total areas, wall time, and residual fold count.  After
the table it prints the process's peak resident set, the memory figure
of brain-scale meshes (``--subdivisions 7`` is 163,842 vertices).
"""

import argparse
import resource
import sys

from authalic.errors import AuthalicError
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
    if args.max_iters is not None and args.max_iters < 0:
        ap.error(f"argument --max-iters: must be >= 0, got {args.max_iters}")
    if args.subdivisions < 0:
        ap.error(f"argument --subdivisions: must be >= 0, got {args.subdivisions}")
    for radius in args.radii:
        if not 0 < radius < float("inf"):
            ap.error(f"argument --radii: must be > 0 and finite, got {radius}")

    if args.mesh:
        try:
            surface = load_mesh(args.mesh)
        except (AuthalicError, OSError) as exc:
            sys.exit(f"error: {exc}")
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
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak resident set: {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
