"""Validation of the pipeline settings, and the records of a run."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from authalic.energy import IMAGE_AREA_TOL, face_geometry
from authalic.errors import AuthalicError, DegenerateFaceError
from authalic.mesh import build_surface, make_icosphere
from authalic.pipeline import ParameterizeConfig, parameterize


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
    assert len(result.fpi.records) >= 1 and len(result.rgd.records) == 10
    elapsed = [r.elapsed_s for r in result.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:])), elapsed
    assert elapsed[-1] <= result.seconds


def test_both_fold_corrections_are_reported(ellipsoid3):
    # the run corrects folds after FPI and after the descent, and the
    # second correction's count is the one the summary reports
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=5))
    assert set(result.corrections) == {"after_fpi", "after_rgd"}
    assert result.corrections["after_rgd"].folds_after == result.summary["folds"]


def test_summary_of_a_collapsed_map_raises(ellipsoid3):
    # SD/Mean is read first and divides by the mean area ratio, so it
    # checks the total image area before dividing
    result = parameterize(ellipsoid3, ParameterizeConfig(fpi_iters=0, max_iters=1))
    collapsed = dataclasses.replace(result, mapping=np.tile([0.0, 0.0, 1.0],
                                                            (ellipsoid3.n_vertices, 1)))
    with pytest.raises(DegenerateFaceError, match="total image area 0.000e"):
        collapsed.summary


def test_fpi_decisions_do_not_depend_on_the_input_scale():
    # FPI stops on absolute energies (an E_A rise, an E_S decrease below
    # fpi.STRETCH_DECREASE_TOL), so the run always rescales the mesh first
    small = make_icosphere(3, (1.0, 0.8, 0.6))
    large = build_surface(10.0 * small.vertices, small.faces)
    config = ParameterizeConfig(max_iters=1)
    a, b = parameterize(small, config), parameterize(large, config)
    assert (a.fpi.status, len(a.fpi.records)) == (b.fpi.status, len(b.fpi.records))
    assert np.abs(a.mapping - b.mapping).max() <= 1e-9


def test_no_fpi_iterations_runs_the_descent_from_the_start(ellipsoid3):
    # FPI always runs; with no iterations it returns the start unchanged
    result = parameterize(ellipsoid3, ParameterizeConfig(fpi_iters=0, max_iters=5))
    assert result.fpi.records == []
    assert result.fpi.status == "max_iters"
    # the run's records are the descent's, numbered from 1
    assert [r.stretch for r in result.records] == [r.stretch for r in result.rgd.records]
    assert [r.iteration for r in result.records] == list(range(1, len(result.rgd.records) + 1))


def test_zero_median_rescale_raises_before_dividing():
    # this 10:1 ellipsoid reaches a median planar magnitude of 0 in FPI;
    # dividing by it used to fill the plane with NaNs
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AuthalicError, match="FPI iteration"):
            parameterize(make_icosphere(3, (10.0, 1.0, 1.0)))


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


def test_collapsed_map_is_not_returned_as_a_success():
    # a fold-correction sweep after the descent sends every vertex of this
    # hull to one point; a map with zero image areas must not come back as
    # a normal result (its faces count as folds, and the next sweep raises)
    surface = unit_hull(20, seed=0)
    try:
        result = parameterize(surface)
    except AuthalicError:
        return
    geom = face_geometry(result.surface, result.mapping)
    assert (geom.image_areas > IMAGE_AREA_TOL).all()
