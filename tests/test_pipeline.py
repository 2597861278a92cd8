"""Validation of the pipeline settings, and the records of a run."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from authalic.energy import IMAGE_AREA_TOL, face_geometry
from authalic.errors import AuthalicError
from authalic.mesh import build_surface, make_icosphere
from authalic.pipeline import ParameterizeConfig, parameterize


def test_unknown_correction_rejected_on_construction():
    # "rgb" used to run no fold correction at all, silently
    with pytest.raises(ValueError, match="correct 'rgb'"):
        ParameterizeConfig(correct="rgb")
    for correct in ("off", "fpi", "rgd", "both"):
        assert ParameterizeConfig(correct=correct).correct == correct


def test_unknown_strategy_rejected_on_construction():
    # rejected before the conformal start and FPI run, not inside the
    # first line search
    with pytest.raises(ValueError, match="strategy 'golden'"):
        ParameterizeConfig(strategy="golden")
    for strategy in ("interpolant", "bounded"):
        assert ParameterizeConfig(strategy=strategy).strategy == strategy


def test_record_clock_runs_from_the_start_of_the_run(ellipsoid3):
    # FPI and descent time their records from their own starts; the run's
    # records read one clock, the one `seconds` is read from
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=10))
    assert result.fpi_iterations >= 1 and len(result.rgd.records) == 10
    elapsed = [r.elapsed_s for r in result.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:])), elapsed
    assert elapsed[-1] <= result.seconds


def test_fpi_decisions_do_not_depend_on_the_input_scale():
    # FPI stops on absolute energies (an E_A rise, an E_S decrease below
    # fpi.STRETCH_DECREASE_TOL), so the run always rescales the mesh first
    small = make_icosphere(3, (1.0, 0.8, 0.6))
    large = build_surface(10.0 * small.vertices, small.faces)
    config = ParameterizeConfig(max_iters=1)
    a, b = parameterize(small, config), parameterize(large, config)
    assert (a.fpi_status, a.fpi_iterations) == (b.fpi_status, b.fpi_iterations)
    assert np.abs(a.mapping - b.mapping).max() <= 1e-9


def unit_hull(n_points: int, seed: int):
    """Convex hull of `n_points` random unit vectors, faces outward."""
    points = np.random.default_rng(seed).normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    faces = ConvexHull(points).simplices
    corners = points[faces]
    normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    inward = np.einsum("ij,ij->i", normals, corners[:, 0]) < 0
    faces[inward] = faces[inward][:, ::-1]
    return build_surface(points, faces)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_collapsed_map_is_not_returned_as_a_success():
    # fold correction after the descent sends every vertex of this hull to
    # one point (17 folds -> 0); a map with zero image areas must not come
    # back as a normal result
    surface = unit_hull(20, seed=0)
    try:
        result = parameterize(surface)
    except AuthalicError:
        return
    geom = face_geometry(result.surface, result.mapping, check=False)
    assert (geom.image_areas > IMAGE_AREA_TOL).all()
