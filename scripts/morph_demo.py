#!/usr/bin/env python3
"""Registration and morphing demo on a generated surface pair.

Builds a bumpy sphere and an ellipsoid, parameterizes both, aligns five
landmark pairs on the sphere, composes the registration map, and writes
morph frames as OBJ files.
"""

import argparse
import os

import numpy as np

from authalic.mesh import make_icosphere, normalize_area, save_mesh
from authalic.pipeline import ParameterizeConfig, parameterize
from authalic.registration import DEFAULT_LAMBDA, homotopy_frame, register


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="morph_out")
    ap.add_argument("--frames", type=int, default=4)
    ap.add_argument("--subdivisions", type=int, default=3)
    ap.add_argument("--landmarks", type=int, default=5)
    ap.add_argument("--lam", type=float, default=DEFAULT_LAMBDA)
    args = ap.parse_args()
    if args.frames < 2:
        ap.error(f"argument --frames: must be >= 2, got {args.frames}")
    if args.subdivisions < 0:
        ap.error(f"argument --subdivisions: must be >= 0, got {args.subdivisions}")
    if not 0 < args.lam < float("inf"):
        ap.error(f"argument --lam: must be > 0 and finite, got {args.lam}")

    m0 = normalize_area(make_icosphere(args.subdivisions, (1.0, 0.75, 0.9)))
    m1 = normalize_area(make_icosphere(args.subdivisions, (0.7, 1.0, 0.8)))
    if not 1 <= args.landmarks <= m0.n_vertices:
        ap.error(f"argument --landmarks: must be in [1, {m0.n_vertices}], got {args.landmarks}")
    rng = np.random.default_rng(0)
    idx = rng.choice(m0.n_vertices, size=args.landmarks, replace=False)
    pairs = np.stack([idx, idx], axis=1)

    config = ParameterizeConfig()
    f0 = parameterize(m0, config).mapping
    f1 = parameterize(m1, config).mapping

    reg = register(m0, m1, f0, f1, pairs, lam=args.lam)
    print(f"landmark mismatch {reg.mismatch_before:.4f} -> {reg.mismatch_after:.6f}")
    composed = reg.composed
    print(f"point-location fallbacks: {composed.fallback_count}")

    os.makedirs(args.out, exist_ok=True)
    for k in range(args.frames):
        t = k / (args.frames - 1)
        frame = homotopy_frame(m0, composed, t)
        path = os.path.join(args.out, f"frame_{k:03d}.obj")
        save_mesh(frame, m0.faces, path)
        print(f"wrote {path} (t = {t:.2f})")


if __name__ == "__main__":
    main()
