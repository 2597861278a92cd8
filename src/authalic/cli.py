"""Command-line interface: param, register, morph, check.

Exit codes: 0 on success, 1 on numerical failure, 2 on usage errors.
Every flag can be overridden through environment variables prefixed
AUTHALIC_ (e.g. AUTHALIC_PARAM_SEED).  Each run writes a manifest JSON
recording inputs, parameters, seed, and timings next to its outputs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from importlib.metadata import PackageNotFoundError, version

import click
import numpy as np

from . import diagnostics as diag
from . import energy as en
from . import registration
from .errors import AuthalicError
from .mesh import (build_surface, load_mesh, normalize_area, parse_landmarks,
                   perturb_vertices, save_mesh)
from .pipeline import (METHOD_ITERS, METHODS, ParameterizeConfig, parameterize,
                       write_records_csv)
from .rgd import NormalizedStretchObjective
from .sphere import (count_folds, inverse_stereographic, project_to_manifold,
                     stereographic)

try:
    _VERSION = version("authalic")
except PackageNotFoundError:  # running from a source tree
    _VERSION = "0.1.0"

_COUNT = click.IntRange(min=0)


def _finite(ctx, param, value):
    # a range test lets NaN through (it compares false with every bound)
    if not np.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


def _write_manifest(out_dir, command, inputs, params, seconds):
    manifest = {
        "command": command,
        "inputs": inputs,
        "params": params,
        "seed": params.get("seed"),
        "version": _VERSION,
        "seconds": round(seconds, 3),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@click.group(context_settings={"auto_envvar_prefix": "AUTHALIC"})
@click.version_option(_VERSION)
def main():
    """Spherical area-preserving parameterization of closed triangle meshes."""


_METHOD = click.Choice(METHODS)
_METHOD_HELP = ("Descent: preconditioned L-BFGS on spherical areas, or the paper's "
                "steepest descent on chordal areas.")


_MAX_HELP = ("Descent iterations (default: "
             + ", ".join(f"{iters[1]} under {m}" for m, iters in METHOD_ITERS.items())
             + "; the method fixes its warm-up).")


@main.command()
@click.argument("mesh", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=_METHOD, default=ParameterizeConfig.method,
              show_default=True, help=_METHOD_HELP)
@click.option("--max-iters", type=_COUNT, default=None, help=_MAX_HELP)
@click.option("--noise-sigma", type=click.FloatRange(min=0), default=0.0, show_default=True,
              help="Gaussian vertex-normal noise applied to the raw input mesh.")
@click.option("--seed", default=0, show_default=True)
@click.option("--log", "log_path", type=click.Path(dir_okay=False), default=None,
              help="Convergence CSV path (default: <out>/convergence.csv).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: <mesh stem>_param).")
def param(mesh, method, max_iters, noise_sigma, seed, log_path, out_dir):
    """Compute the spherical parameterization of MESH."""
    out_dir = out_dir or os.path.splitext(mesh)[0] + "_param"
    # the log is written last: a missing directory for it (other than the
    # output directory, made below) fails now, before any work
    if log_path:
        log_dir = os.path.dirname(os.path.abspath(log_path))
        if not (os.path.isdir(log_dir) or log_dir == os.path.abspath(out_dir)):
            raise click.BadParameter(f"directory {log_dir!r} does not exist.",
                                     param_hint="'--log'")
    os.makedirs(out_dir, exist_ok=True)
    try:
        surface = load_mesh(mesh)
        if noise_sigma > 0:
            surface = perturb_vertices(surface, noise_sigma, seed)
        config = ParameterizeConfig(method=method, max_iters=max_iters, seed=seed)
        result = parameterize(surface, config)
        # a map the summary cannot measure is a failure, found before any
        # output is written
        s = result.summary
    except (AuthalicError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    sphere_path = os.path.join(out_dir, "sphere.obj")
    save_mesh(result.mapping, result.surface.faces, sphere_path)
    # the output keeps the input vertex order; the sidecar records the map
    ids = np.arange(result.surface.n_vertices)
    np.savetxt(os.path.join(out_dir, "vertex_ids.txt"), np.column_stack([ids, ids]),
               fmt="%d", header="input_vertex_id output_vertex_id")
    csv_path = log_path or os.path.join(out_dir, "convergence.csv")
    write_records_csv(csv_path, result.records)
    params = {
        "method": method, "max_iters": config.max_iters, "noise_sigma": noise_sigma,
        "seed": seed, "fpi_iterations_run": len(result.fpi.records), "start": result.start,
    }
    _write_manifest(out_dir, "param", {"mesh": os.path.abspath(mesh)}, params,
                    result.seconds)
    click.echo(f"SD/Mean {s['sd_over_mean']:.4f}, E_A {s['authalic']:.3e}, "
               f"time {s['seconds']:.2f} s, folds {s['folds']}, degree {s['degree']}")


@main.command()
@click.argument("mesh0", type=click.Path(exists=True, dir_okay=False))
@click.argument("mesh1", type=click.Path(exists=True, dir_okay=False))
@click.argument("landmarks", type=click.Path(exists=True, dir_okay=False))
@click.option("--lam", "--lambda", "lam", type=click.FloatRange(min=0, min_open=True),
              callback=_finite, default=registration.DEFAULT_LAMBDA, show_default=True,
              help="Landmark penalty weight (finite, > 0).")
@click.option("--align-iters", type=_COUNT, default=registration.DEFAULT_ALIGN_ITERS,
              show_default=True,
              help="Iteration cap of each alignment, a safety bound: an alignment "
                   "often stops earlier, by the relative gradient test.")
@click.option("--method", type=_METHOD, default=ParameterizeConfig.method,
              show_default=True, help=_METHOD_HELP)
@click.option("--max-iters", type=_COUNT, default=None, help=_MAX_HELP)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
def register(mesh0, mesh1, landmarks, lam, align_iters, method, max_iters, seed, out_dir):
    """Landmark-aligned registration of MESH0 onto MESH1."""
    out_dir = out_dir or os.path.splitext(mesh0)[0] + "_register"
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    try:
        m0 = load_mesh(mesh0)
        m1 = load_mesh(mesh1)
        pairs = parse_landmarks(landmarks, m0.n_vertices, m1.n_vertices)
        config = ParameterizeConfig(method=method, max_iters=max_iters, seed=seed)
        p0, p1 = parameterize(m0, config), parameterize(m1, config)
        f0, f1 = p0.mapping, p1.mapping
        reg = registration.register(m0, m1, f0, f1, pairs, lam=lam, iters=align_iters)
    except (AuthalicError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    h0, h1, composed = reg.h0.mapping, reg.h1.mapping, reg.composed
    for name, mapping, faces in (("f0", f0, m0.faces), ("f1", f1, m1.faces),
                                 ("h0", h0, m0.faces), ("h1", h1, m1.faces)):
        save_mesh(mapping, faces, os.path.join(out_dir, f"{name}.obj"))
    np.savetxt(os.path.join(out_dir, "composed_map.txt"),
               np.column_stack([np.arange(m0.n_vertices), composed.face_indices,
                                composed.weights]),
               fmt="%d %d %.17g %.17g %.17g", header="vertex_id face_id w0 w1 w2")

    before, after = reg.mismatch_before, reg.mismatch_after
    folds = [count_folds(m0, h0), count_folds(m1, h1)]
    mismatch = {
        "initial_mean_geodesic": registration.geodesic_mismatch(f0[pairs[:, 0]],
                                                                f1[pairs[:, 1]]),
        "rotation_deg": reg.rotation_deg,
        "rotated_mean_geodesic": before,
        "final_mean_geodesic": after,
        "reduction": 1.0 - after / before if before > 0 else 0.0,
        "fallback_points": composed.fallback_count,
        "alignment_status": [reg.h0.status, reg.h1.status],
        "alignment_iters": [len(reg.h0.records), len(reg.h1.records)],
        "alignment_folds": folds,
    }
    with open(os.path.join(out_dir, "mismatch.json"), "w") as fh:
        json.dump(mismatch, fh, indent=2, sort_keys=True)
        fh.write("\n")
    params = {"lambda": lam, "align_iters": align_iters, "method": method,
              "max_iters": config.max_iters, "seed": seed, "starts": [p0.start, p1.start]}
    _write_manifest(out_dir, "register",
                    {"mesh0": os.path.abspath(mesh0), "mesh1": os.path.abspath(mesh1),
                     "landmarks": os.path.abspath(landmarks)},
                    params, time.perf_counter() - start)
    click.echo(f"landmark mismatch {before:.4e} -> {after:.4e} "
               f"({100 * mismatch['reduction']:.1f}% reduction), "
               f"alignment folds {folds[0]} + {folds[1]}")


def _read_composed_map(path, m0, m1) -> registration.ComposedMap:
    """Read a ``composed_map.txt``: one row per source vertex, each an
    integral face id of the target and three finite weights."""
    rows = np.loadtxt(path, comments="#", ndmin=2)
    if rows.shape != (m0.n_vertices, 5):
        raise ValueError(f"{path} has shape {rows.shape}, expected ({m0.n_vertices}, 5)")
    ids = rows[:, 1]
    bad = (ids != np.floor(ids)) | (ids < 0) | (ids >= m1.n_faces)
    if bad.any():
        raise ValueError(f"{path}: face id {ids[bad][0]:g} is not one of the "
                         f"{m1.n_faces} target faces")
    weights = rows[:, 2:5]
    if not np.isfinite(weights).all():
        raise ValueError(f"{path}: non-finite barycentric weight")
    return registration.composed_map(m1, ids.astype(np.int64), weights, 0)


@main.command()
@click.argument("regdir", type=click.Path(exists=True, file_okay=False))
@click.option("--frames", default=4, show_default=True,
              help="Number of morph frames, endpoints included.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
def morph(regdir, frames, out_dir):
    """Write linear morph frames from a registration output directory."""
    if frames < 2:
        raise click.UsageError("--frames must be at least 2")
    out_dir = out_dir or os.path.join(regdir, "morph")
    manifest_path = os.path.join(regdir, "manifest.json")
    composed_path = os.path.join(regdir, "composed_map.txt")
    start = time.perf_counter()
    try:
        manifest = {}
        if os.path.exists(manifest_path) and os.path.exists(composed_path):
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        # the manifest of a registration names both input meshes
        try:
            mesh_paths = [manifest["inputs"][key] for key in ("mesh0", "mesh1")]
        except (KeyError, TypeError):
            mesh_paths = [None]
        if not all(isinstance(path, str) for path in mesh_paths):
            raise click.UsageError(f"{regdir} does not contain registration outputs")
        os.makedirs(out_dir, exist_ok=True)
        m0, m1 = (load_mesh(path) for path in mesh_paths)
        composed = _read_composed_map(composed_path, m0, m1)
        for k in range(frames):
            t = k / (frames - 1)
            frame = registration.homotopy_frame(m0, composed, t)
            save_mesh(frame, m0.faces, os.path.join(out_dir, f"frame_{k:03d}.obj"))
    except (AuthalicError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _write_manifest(out_dir, "morph", {"regdir": os.path.abspath(regdir)},
                    {"frames": frames, "seed": None}, time.perf_counter() - start)
    click.echo(f"wrote {frames} frames to {out_dir}")


def _check_lines(surface, probe_eigen: bool):
    """Yield (name, passed, detail) tuples for the verification suite."""
    f = project_to_manifold(surface.vertices - surface.vertices.mean(axis=0))

    areas = en.face_geometry(surface, surface.vertices).image_areas
    err = np.abs(areas - surface.face_areas).max() / surface.face_areas.max()
    yield "area formulas agree", err < 1e-12, f"max rel diff {err:.2e}"

    geom = en.face_geometry(surface, f)
    lap = en.assemble_laplacian(surface, geom)
    lap_f = lap @ f
    row_err = np.abs(np.asarray(lap.sum(axis=1))).max() / max(abs(lap.data).max(), 1e-300)
    yield "laplacian rows sum to zero", row_err < 1e-10, f"residual {row_err:.2e}"

    # the Laplacian routes against the per-face identities the library
    # runs: the quadratic form (1/2) sum_s (f^s)^T L f^s against the
    # stretch energy, and 2 L f against the stretch gradient
    quadratic = 0.5 * float(np.sum(f * lap_f))
    rel = abs(quadratic - geom.stretch) / abs(geom.stretch)
    yield "stretch energy routes agree", rel < 1e-10, f"rel diff {rel:.2e}"

    grad = en.stretch_gradient(surface, geom)
    rel = np.abs(grad - 2.0 * lap_f).max() / max(np.abs(grad).max(), 1e-300)
    yield "stretch gradient routes agree", rel < 1e-10, f"rel diff {rel:.2e}"

    # the gradients of both descents: the paper's chordal energy and the
    # default L-BFGS's spherical one
    for name, spherical in (("chordal", False), ("spherical", True)):
        objective = NormalizedStretchObjective(surface, spherical=spherical)
        fd_err = diag.fd_gradient_norm_error(objective, f, step=1e-6, max_coords=300)
        yield (f"{name} gradient matches finite differences", fd_err < 1e-6,
               f"normwise rel err {fd_err:.2e}")

    back = inverse_stereographic(stereographic(f))
    rt = np.abs(back - f).max()
    yield "stereographic round trip", rt < 1e-12, f"max abs err {rt:.2e}"

    flipped = surface.faces.copy()
    flipped[0] = flipped[0, [0, 2, 1]]
    flipped_surface = build_surface(surface.vertices, flipped)
    base = count_folds(surface, f)
    got = count_folds(flipped_surface, f)
    yield "fold detector counts a flipped face", got == base + 1, f"{base} -> {got}"

    if probe_eigen:
        try:
            probe = diag.smallest_hessian_eigenvalue(surface, f)
            yield ("hessian eigenvalue probe", True,
                   f"lambda {probe.smallest_eigenvalue:.4e}, residual {probe.residual:.2e}")
        except AuthalicError as exc:
            yield "hessian eigenvalue probe", False, str(exc)


@main.command()
@click.argument("mesh", type=click.Path(exists=True, dir_okay=False))
@click.option("--probe-eigen", is_flag=True, help="Also probe the smallest Hessian eigenvalue.")
def check(mesh, probe_eigen):
    """Run the verification suite on MESH; nonzero exit on any failure."""
    try:
        surface = normalize_area(load_mesh(mesh))
        results = list(_check_lines(surface, probe_eigen))
    except AuthalicError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    failed = 0
    for name, ok, detail in results:
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
