"""Validation of the pipeline settings, and the records of a run."""

import dataclasses
import re
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import authalic.energy as en
import authalic.fpi as fpi
import authalic.pipeline as pipeline
import authalic.rgd as rgd
from authalic.energy import IMAGE_AREA_TOL, face_geometry
from authalic.errors import AuthalicError, DegenerateFaceError, MeshTopologyError
from authalic.fpi import fpi_minimize
from authalic.mesh import build_surface, make_icosphere, normalize_area
from authalic.pipeline import ParameterizeConfig, parameterize
from authalic.sphere import count_folds

from helpers import (conformal_start, inverted_vertex_map, rotation_matrix,
                     straight_corner_icosphere, unit_hull)


PAPER = ParameterizeConfig(method="paper")


def test_unknown_method_rejected_on_construction():
    with pytest.raises(ValueError, match="method 'newton'"):
        ParameterizeConfig(method="newton")
    assert ParameterizeConfig().method == "lbfgs"


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_negative_descent_cap_rejected_on_construction(method):
    # a negative cap would run no descent and still report the "max_iters" stop
    with pytest.raises(ValueError, match="max_iters must be >= 0, got -3"):
        ParameterizeConfig(method=method, max_iters=-3)
    assert ParameterizeConfig(method=method, max_iters=0).max_iters == 0


def test_negative_seed_rejected_on_construction():
    # numpy's generator rejected it only once the mesh was loaded and the
    # start tried
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ParameterizeConfig(seed=-1)
    assert ParameterizeConfig(seed=0).seed == 0


@pytest.mark.parametrize("field", ["max_iters", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", np.float64(1.0)])
def test_a_cap_or_seed_that_is_not_an_integer_is_rejected_on_construction(field, value):
    # a float cap used to fail inside the descent, after the start and
    # K's factor, and a float seed inside numpy's SeedSequence
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ParameterizeConfig(**{field: value})
    assert getattr(ParameterizeConfig(**{field: np.int64(3)}), field) == 3


def test_the_method_picks_the_iteration_caps():
    # one setting selects a method: its descent cap comes with it unless
    # set, and reads resolved from then on
    assert ParameterizeConfig().max_iters == 20
    assert PAPER.max_iters == 100
    assert ParameterizeConfig(method="paper", max_iters=3).max_iters == 3
    assert dataclasses.replace(PAPER, max_iters=1).max_iters == 1


def test_record_clock_runs_from_the_start_of_the_run(ellipsoid3):
    # FPI and descent time their records from their own starts; the run's
    # records read one clock, the one `seconds` is read from
    result = parameterize(ellipsoid3, dataclasses.replace(PAPER, max_iters=10))
    assert len(result.fpi.records) >= 1 and len(result.rgd.records) == 10
    elapsed = [r.elapsed_s for r in result.records]
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:])), elapsed
    assert elapsed[-1] <= result.seconds


def test_the_descent_records_count_the_preconditioner_factor(ellipsoid3, monkeypatch):
    # K is factored before the descent's own clock starts; every descent
    # row must still count that time, as `seconds` does
    factorize = rgd.factorize

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(rgd, "factorize", slow)
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=3))
    assert result.fpi.records == [] and len(result.rgd.records) == 3
    assert result.records[0].elapsed_s >= 0.3
    assert result.records[-1].elapsed_s <= result.seconds


@pytest.mark.parametrize("method, spherical", [("lbfgs", True), ("paper", False)])
def test_the_method_hands_the_descent_its_objective_and_direction(ellipsoid3, monkeypatch,
                                                                   method, spherical):
    # the L-BFGS method descends the spherical energy with K^-1, the
    # paper's the chordal one along the anti-gradient
    handed = []
    minimize = pipeline.minimize

    def captured(objective, f0, **kwargs):
        handed.append((objective, kwargs))
        return minimize(objective, f0, **kwargs)

    monkeypatch.setattr(pipeline, "minimize", captured)
    result = parameterize(ellipsoid3, ParameterizeConfig(method=method, max_iters=2))
    [(objective, kwargs)] = handed
    assert type(objective) is rgd.NormalizedStretchObjective
    assert objective.spherical is spherical and objective.surface is result.surface
    assert kwargs["max_iters"] == 2
    if spherical:
        assert callable(kwargs["precondition"])
    else:
        assert kwargs["precondition"] is None


def test_both_fold_corrections_are_reported(ellipsoid3):
    # the run corrects folds after FPI and after the descent, and the
    # second correction's count is the one the summary reports
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=5))
    assert set(result.corrections) == {"after_fpi", "after_rgd"}
    assert result.corrections["after_rgd"].folds_after == result.summary["folds"]


def test_summary_of_a_collapsed_map_raises(ellipsoid3):
    # SD/Mean is read first and divides by the mean area ratio, so it
    # checks the total image area before dividing
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=1))
    collapsed = dataclasses.replace(result, mapping=np.tile([0.0, 0.0, 1.0],
                                                            (ellipsoid3.n_vertices, 1)))
    with pytest.raises(DegenerateFaceError, match="total image area 0.000e"):
        collapsed.summary


def test_fpi_decisions_do_not_depend_on_the_input_scale():
    # FPI stops on absolute energies (an E_A rise, an E_S decrease below
    # fpi.STRETCH_DECREASE_TOL), so the run always rescales the mesh first
    small = make_icosphere(3, (1.0, 0.8, 0.6))
    large = build_surface(10.0 * small.vertices, small.faces)
    config = dataclasses.replace(PAPER, max_iters=1)
    a, b = parameterize(small, config), parameterize(large, config)
    assert (a.fpi.status, len(a.fpi.records)) == (b.fpi.status, len(b.fpi.records))
    assert np.abs(a.mapping - b.mapping).max() <= 1e-9


def test_no_fpi_iterations_runs_the_descent_from_the_start(ellipsoid3):
    # FPI always runs; under the default method's cap of no iterations it
    # returns the start unchanged
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=5))
    assert result.fpi.records == []
    assert result.fpi.status == "max_iters"
    # the run's records are the descent's, numbered from 1
    assert [r.stretch for r in result.records] == [r.stretch for r in result.rgd.records]
    assert [r.iteration for r in result.records] == list(range(1, len(result.rgd.records) + 1))


def test_zero_median_rescale_raises_before_dividing():
    # from the conformal start a paper run takes, this 10:1 ellipsoid
    # reaches a median planar magnitude of 0 in FPI; dividing by it used
    # to fill the plane with NaNs
    surface = normalize_area(make_icosphere(3, (10.0, 1.0, 1.0)))
    f0 = conformal_start(surface)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AuthalicError, match="FPI iteration"):
            fpi_minimize(surface, f0, max_iters=10)


def test_collapsed_map_is_not_returned_as_a_success():
    # in a paper run, a fold-correction sweep after the descent sends every
    # vertex of this hull to one point; a map with zero image areas must
    # not come back as a normal result (its faces count as folds, and the
    # next sweep raises)
    surface = unit_hull(20, seed=0)
    try:
        result = parameterize(surface, PAPER)
    except AuthalicError:
        return
    geom = face_geometry(result.surface, result.mapping)
    assert (geom.image_areas > IMAGE_AREA_TOL).all()


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def mirrored_radial(surface):
    """The radial start mirrored: every face of a fold-free one folds."""
    return fpi.radial_initial_map(surface) * np.array([-1.0, 1.0, 1.0])


def test_one_reference_laplacian_per_run(ellipsoid3, monkeypatch):
    # the conformal start and the preconditioner share it
    calls = count_calls(monkeypatch, en, "assemble_laplacian")
    factors = count_calls(monkeypatch, spla, "splu")
    result = parameterize(ellipsoid3)
    assert result.start == "radial"
    assert result.fpi.records == [] and len(result.rgd.records) == 20
    assert len(calls) == 1
    # the fold-free radial start needs no solve: the preconditioner's
    # factor is the run's only one
    assert len(factors) == 1
    # where the radial start folds, the conformal start's solve is the second
    monkeypatch.setattr(pipeline, "radial_initial_map", mirrored_radial)
    assert parameterize(ellipsoid3).start == "conformal"
    assert len(calls) == 2 and len(factors) == 3


def test_each_method_tries_the_starts_in_its_own_order(ellipsoid3, monkeypatch):
    # the first fold-free start is taken and the other is never built
    built = count_calls(monkeypatch, pipeline, "conformal_initial_map")
    assert parameterize(ellipsoid3, ParameterizeConfig(max_iters=1)).start == "radial"
    assert built == []
    radial = count_calls(monkeypatch, pipeline, "radial_initial_map")
    assert parameterize(ellipsoid3, dataclasses.replace(PAPER, max_iters=1)).start == "conformal"
    assert (len(built), radial) == (1, [])


def test_a_fold_free_conformal_start_is_kept(ellipsoid3):
    assert parameterize(ellipsoid3, dataclasses.replace(PAPER, max_iters=1)).start == "conformal"


def test_an_unchanged_fold_free_start_is_not_corrected_again(ellipsoid3, monkeypatch):
    # the start rule has counted the start's folds; with no FPI iteration
    # the after-FPI correction is its fold-free result, not a second count
    calls = count_calls(monkeypatch, pipeline, "correct_bijectivity")
    result = parameterize(ellipsoid3, ParameterizeConfig(max_iters=1))
    assert len(calls) == 1
    after = result.corrections["after_fpi"]
    assert after.mapping is result.fpi.mapping
    assert (after.folds_before, after.folds_after, after.sweeps) == (0, 0, 0)
    parameterize(ellipsoid3, dataclasses.replace(PAPER, max_iters=1))
    assert len(calls) == 3


def test_a_folded_conformal_start_falls_back_to_the_radial_start():
    # the conformal start folds hundreds of this ellipsoid's faces; the
    # radial start is fold-free on a star-shaped mesh, and is taken under
    # either method's order
    surface = make_icosphere(4, (10.0, 1.0, 1.0))
    for config in (ParameterizeConfig(), PAPER):
        assert parameterize(surface, dataclasses.replace(config, max_iters=1)).start == "radial"


def test_the_radial_start_is_taken_only_when_fold_free(icosphere2, monkeypatch):
    # a conformal start with one folded vertex, which fold correction
    # mends, gives way to a fold-free radial start, and is kept when the
    # radial start folds too, under either method's order
    monkeypatch.setattr(pipeline, "conformal_initial_map",
                        lambda s, **kwargs: inverted_vertex_map(s))
    configs = (ParameterizeConfig(max_iters=1), dataclasses.replace(PAPER, max_iters=1))
    for config in configs:
        assert parameterize(icosphere2, config).start == "radial"
    monkeypatch.setattr(pipeline, "radial_initial_map", mirrored_radial)
    for config in configs:
        result = parameterize(icosphere2, config)
        assert result.start == "conformal"
        # the default run corrects the start's fold; the paper's warm-up
        # mends it before the correction
        folded = result.corrections["after_fpi"].folds_before > 0
        assert folded == (config.method == "lbfgs")


def bent_tube(k: float, subdivisions: int = 3):
    """The (3, 0.6, 0.6) ellipsoid, sub 3 by default, bent about the z
    axis by k radians: x, y go to the angle k x / 3 and the radius
    3 / k - y."""
    s = make_icosphere(subdivisions, (3.0, 0.6, 0.6))
    x, y, z = s.vertices.T
    angle, radius = k * x / 3.0, 3.0 / k - y
    return build_surface(np.column_stack([radius * np.sin(angle),
                                          3.0 / k - radius * np.cos(angle), z]), s.faces)


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_a_bent_tube_takes_the_conformal_start_and_ends_fold_free(k):
    # the bent tube is not star-shaped about its centroid: the radial
    # start folds 144 (k = 1) to 404 (k = 2) of its 1,280 faces, so the
    # default run takes the conformal start (which folds a few faces
    # here too, and fold correction mends them)
    surface = bent_tube(k)
    assert count_folds(surface, fpi.radial_initial_map(surface)) >= 144
    result = parameterize(surface)
    assert result.start == "conformal"
    assert result.summary["folds"] == 0 and result.summary["degree"] == 1


def test_the_least_straight_corner_seen_ends_fold_free():
    # the sub-4 tube bent by 2 meets a mean-value corner whose divisor is
    # 4.5e-13 |u||v|, the least on the tests' meshes: unfold.STRAIGHT_TOL
    # must stay below it (1e-12 makes this run raise)
    summary = parameterize(bent_tube(2.0, subdivisions=4)).summary
    assert summary["folds"] == 0 and summary["degree"] == 1


def test_a_straight_planar_corner_is_named_not_divided_by():
    # the correction after FPI meets a corner within about 1e-8 of pi;
    # the error names it, and no division by zero warns or reaches the LU
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFaceError,
                           match=r"^degenerate planar corner 0 of face 0: ") as caught:
            parameterize(straight_corner_icosphere())
    assert caught.value.face_index == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the default run leaves one fold (SD/Mean 0.231, "
                          "status max_iters) and reports success")
def test_a_sub5_bent_tube_ends_fold_free():
    summary = parameterize(bent_tube(1.0, subdivisions=5)).summary
    assert summary["folds"] == 0 and summary["degree"] == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: from the seed-3 puncture the paper run ends "
                          "fold-free but at SD/Mean 1.31, status max_iters, and reports "
                          "success; seeds 0-2 and 4-7 read 0.041-0.082")
def test_the_paper_run_on_the_bent_tube_reaches_a_low_sd_over_mean_at_seed_3():
    summary = parameterize(bent_tube(1.0), ParameterizeConfig(method="paper", seed=3)).summary
    assert summary["folds"] == 0 and summary["sd_over_mean"] < 0.2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the 20-iteration cap stops the descent at "
                          "SD/Mean 0.231; 40 iterations reach 0.0124")
def test_a_20_1_1_ellipsoid_reaches_a_low_sd_over_mean():
    summary = parameterize(make_icosphere(4, (20.0, 1.0, 1.0))).summary
    assert summary["folds"] == 0 and summary["sd_over_mean"] < 0.02


def test_a_rotated_input_gives_the_rotated_map(ellipsoid3):
    # the default start follows the input's frame; the map's quality does not
    rotation = rotation_matrix([0.3, -1.0, 2.0], 1.1)
    turned = build_surface(ellipsoid3.vertices @ rotation.T, ellipsoid3.faces)
    a, b = parameterize(ellipsoid3), parameterize(turned)
    assert a.start == b.start == "radial"
    assert np.abs(a.mapping @ rotation.T - b.mapping).max() <= 1e-12
    assert b.summary["sd_over_mean"] == pytest.approx(a.summary["sd_over_mean"],
                                                      rel=1e-12, abs=0)


def test_the_radial_start_mirrors_a_mirrored_mesh(ellipsoid3):
    mirrored = build_surface(ellipsoid3.vertices, ellipsoid3.faces[:, ::-1])
    f = fpi.radial_initial_map(mirrored)
    assert face_geometry(mirrored, f).folds == 0


@pytest.mark.parametrize("surface, config", [
    (make_icosphere(1, (1.0, 0.75, 0.9)), ParameterizeConfig(max_iters=100)),
    (make_icosphere(4, (10.0, 1.0, 1.0)), ParameterizeConfig()),
], ids=["sub1-ellipsoid-100-iters", "ellipsoid-10-1-1"])
def test_coarse_and_elongated_meshes_end_fold_free(surface, config):
    result = parameterize(surface, config)
    assert result.summary["folds"] == 0
    assert result.summary["degree"] == 1


@pytest.mark.parametrize("seed", range(10))
def test_twenty_point_hulls_end_fold_free(seed):
    result = parameterize(unit_hull(20, seed=seed))
    assert result.summary["folds"] == 0


@pytest.mark.parametrize("n, seed", [(5, 1), (5, 2), (5, 3), (5, 6), (5, 7), (6, 2), (6, 3),
                                     (6, 6), (6, 7), (8, 3), (8, 6), (8, 7), (10, 7)])
def test_small_hulls_face_outward_from_their_centroid(n, seed):
    # the origin lies outside each of these hulls: oriented against it,
    # some faces came out reversed, and build_surface would reject the list
    surface = unit_hull(n, seed=seed)
    summary = parameterize(surface).summary
    assert summary["folds"] == 0 and summary["degree"] == 1


def test_a_hull_with_a_degenerate_trial_step_ends_fold_free(monkeypatch):
    # from the conformal start, a trial step of the descent collapses
    # this six-point hull's spherical image; the line search rejects it
    # and halves the step instead of raising DegenerateFaceError.  The
    # radial start meets no such trial, so it is made to fold
    monkeypatch.setattr(pipeline, "radial_initial_map", mirrored_radial)
    degenerate = []
    value = rgd.NormalizedStretchObjective.value

    def spy(self, f):
        try:
            return value(self, f)
        except DegenerateFaceError:
            degenerate.append(f)
            raise

    monkeypatch.setattr(rgd.NormalizedStretchObjective, "value", spy)
    result = parameterize(unit_hull(6, seed=5))
    assert result.start == "conformal"
    assert degenerate
    # no iterate of the run is a degenerate trial: each was rejected
    assert not any(np.array_equal(f, r.mapping) for f in degenerate
                   for r in (result.rgd, result.corrections["after_rgd"]))
    assert result.summary["folds"] == 0 and result.summary["degree"] == 1
    # the run follows one roundoff path through the degenerate trial, so
    # this pin moves with the last bits of the descent's arithmetic
    assert result.summary["sd_over_mean"] == pytest.approx(0.152, abs=1e-3)


def test_the_relative_gradient_floor_does_not_cut_the_descent_short():
    # the default descent stops by its iteration cap here, with its
    # gradient still above rgd.GRAD_RTOL of the first one
    result = parameterize(make_icosphere(3, (1.0, 0.8, 0.6)))
    assert result.rgd.status == "max_iters"
    assert len(result.rgd.records) == ParameterizeConfig().max_iters == 20


def test_an_inconsistently_oriented_face_list_is_rejected():
    surface = make_icosphere(3)
    faces = surface.faces.copy()
    faces[0] = faces[0, ::-1]
    with pytest.raises(MeshTopologyError, match="faces 0 and [0-9]+ both hold the directed side"):
        build_surface(surface.vertices, faces)
    # a wholly reversed face list is consistent
    reversed_faces = build_surface(surface.vertices, surface.faces[:, ::-1])
    assert parameterize(reversed_faces).summary["folds"] == 0


@pytest.mark.parametrize("k", [0, 1])
def test_a_critical_start_stops_at_the_roundoff_floor(k):
    # the radial start of an icosphere is its own vertices, a critical
    # point: the first gradient is roundoff, which only the sqrt(n) term
    # of the gradient test catches (without it the line search is sent a
    # non-descent direction)
    result = parameterize(make_icosphere(k))
    assert result.start == "radial"
    assert result.rgd.status == "grad_converged"
    assert result.rgd.records == []
