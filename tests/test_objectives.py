"""The descent objectives: per-face gradient route, degenerate-face checks,
and one face-geometry pass per accepted iterate, which also gives the
records' fold counts."""

import functools
import logging

import numpy as np
import pytest

import authalic.energy as en
import authalic.fpi as fpi
import authalic.rgd as rgd
import authalic.sphere as sphere
from authalic.diagnostics import fd_gradient_norm_error
from authalic.energy import assemble_laplacian, face_geometry
from authalic.errors import DegenerateFaceError
from authalic.linesearch import phi_derivative_at_zero, search
from authalic.mesh import normalize_area
from authalic.registration import RegistrationObjective
from authalic.rgd import NormalizedStretchObjective, minimize
from authalic.sphere import count_folds, project_to_manifold

from helpers import (bumpy_sphere, conformal_start, image_area_gradient_via_laplacian,
                     inverted_vertex_map)

LANDMARK_ROWS = np.array([3, 40, 77, 120])


@pytest.fixture(scope="module")
def bumpy():
    return normalize_area(bumpy_sphere())


def spherical_start(surface):
    return project_to_manifold(surface.vertices - surface.vertices.mean(axis=0))


def landmark_targets(f):
    return project_to_manifold(f[LANDMARK_ROWS] + np.array([0.1, -0.05, 0.02]))


def laplacian_stretch_terms(surface, f):
    """2 L f, E_stretch and A(f) through the sparse Laplacian, with the
    area gradient from the per-face Laplacian route."""
    lap = assemble_laplacian(surface, face_geometry(surface, f))
    lap_f = lap @ f
    e_s = 0.5 * float(np.sum(f * lap_f))
    area = face_geometry(surface, f).image_area
    return 2.0 * lap_f, e_s, area, image_area_gradient_via_laplacian(surface, f)


def assert_close(got, expected, rel=1e-12):
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= rel * scale


@pytest.mark.parametrize("mesh", ["ellipsoid3", "bumpy"])
def test_normalized_gradient_matches_laplacian_route(mesh, request):
    surface = request.getfixturevalue(mesh)
    f = spherical_start(surface)
    two_lap_f, e_s, area, grad_area = laplacian_stretch_terms(surface, f)
    total = surface.total_area
    expected = (total / area) * two_lap_f - (total * e_s / area**2) * grad_area
    objective = NormalizedStretchObjective(surface)
    value, egrad = objective.value_and_gradient(f)
    assert_close(egrad, expected)
    assert_close(en.euclidean_gradient(surface, f), expected)
    assert value == pytest.approx(total * e_s / area, rel=1e-12)
    assert objective.geometry(f).stretch == pytest.approx(e_s, rel=1e-12)


@pytest.mark.parametrize("mesh", ["ellipsoid3", "bumpy"])
def test_registration_gradient_is_spherical_gradient_plus_pull(mesh, request):
    surface = request.getfixturevalue(mesh)
    f = spherical_start(surface)
    targets = landmark_targets(f)
    lam = 2.0
    geom = face_geometry(surface, f)
    expected = en.spherical_gradient(surface, geom)
    for row, target in zip(LANDMARK_ROWS, targets):
        expected[row] += 2.0 * lam * (f[row] - target)
    objective = RegistrationObjective(surface, LANDMARK_ROWS, targets, lam)
    value, egrad = objective.value_and_gradient(f)
    assert_close(egrad, expected)
    mismatch = lam * float(np.sum((f[LANDMARK_ROWS] - targets) ** 2))
    assert value == pytest.approx(geom.spherical_normalized + mismatch, rel=1e-12)
    assert objective.value(f) == value
    # the whole gradient, pull included, against central differences
    assert fd_gradient_norm_error(objective, f, max_coords=200) < 1e-6


def collapsed_mapping(surface, face=4):
    f = spherical_start(surface)
    _, j, k = surface.faces[face]
    f[k] = f[j]
    return f


def objectives(surface):
    f = spherical_start(surface)
    return [NormalizedStretchObjective(surface),
            RegistrationObjective(surface, LANDMARK_ROWS, landmark_targets(f), 10.0),
            NormalizedStretchObjective(surface, spherical=True)]


def assert_names_a_degenerate_face(surface, f, err):
    assert err.face_index is not None
    assert not face_geometry(surface, f).image_areas[err.face_index] > en.IMAGE_AREA_TOL


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("value_first", [False, True])
def test_value_and_gradient_rejects_collapsed_face(ellipsoid3, which, value_first):
    # the memo checks each map it measures, so the value rejects the
    # collapsed face as the gradient does, in either order: a line-search
    # trial that the value accepts is never refused by the next gradient
    objective = objectives(ellipsoid3)[which]
    f = collapsed_mapping(ellipsoid3)
    calls = [objective.value_and_gradient, objective.value]
    for call in calls[::-1] if value_first else calls:
        with pytest.raises(DegenerateFaceError) as err:
            call(f)
        assert_names_a_degenerate_face(ellipsoid3, f, err.value)


@pytest.mark.parametrize("which", [0, 1])
def test_value_rejects_a_non_finite_total_image_area(ellipsoid3, which):
    # a NaN corner makes the total image area NaN; the memo's check
    # names a face of that corner before any energy is summed, for the
    # chordal value and the registration energy's spherical one alike
    f = spherical_start(ellipsoid3)
    f[5] = np.nan
    with pytest.raises(DegenerateFaceError, match=r"image of face \d+ is degenerate "
                                                  r"\(area nan\)") as err:
        objectives(ellipsoid3)[which].value(f)
    assert 5 in ellipsoid3.faces[err.value.face_index]


def test_spherical_value_rejects_a_non_finite_total_area(ellipsoid3):
    f = spherical_start(ellipsoid3)
    f[5] = np.nan
    with pytest.raises(DegenerateFaceError, match=r"image of face \d+ is degenerate "
                                                  r"\(area nan\)") as err:
        objectives(ellipsoid3)[2].value(f)
    assert 5 in ellipsoid3.faces[err.value.face_index]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_each_measured_map_is_checked_once_where_the_memo_measures_it(ellipsoid3, which,
                                                                       monkeypatch):
    # the value and the gradient of one map share one measurement and one
    # check; a collapsed map raises from the value and is not kept, so
    # the next call measures and checks it again
    calls = {"face_geometry": 0, "check_geometry": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(en, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(en, name, counted)
    objective = objectives(ellipsoid3)[which]
    f = spherical_start(ellipsoid3)
    objective.value(f)
    objective.value_and_gradient(f)
    assert calls == {"face_geometry": 1, "check_geometry": 1}
    collapsed = collapsed_mapping(ellipsoid3)
    for count in (2, 3):
        with pytest.raises(DegenerateFaceError) as err:
            objective.value(collapsed)
        assert_names_a_degenerate_face(ellipsoid3, collapsed, err.value)
        assert calls == {"face_geometry": count, "check_geometry": count}


@pytest.mark.parametrize("which", [0, 1, 2])
def test_a_first_trial_that_collapses_a_face_gives_a_shorter_step(ellipsoid3, which):
    # the unit step carries corner k of face 7 onto corner j: the value
    # rejects that trial as degenerate, and the search halves the step
    # and accepts a shorter one whose faces are all nondegenerate
    objective = objectives(ellipsoid3)[which]
    f = spherical_start(ellipsoid3)
    _, j, k = ellipsoid3.faces[7]
    d = np.zeros_like(f)
    d[k] = f[j] / (f[k] @ f[j]) - f[k]
    value, egrad = objective.value_and_gradient(f)
    dphi0 = phi_derivative_at_zero(f, d, egrad)
    assert dphi0 < 0
    degenerate = []

    def energy(g):
        try:
            return objective.value(g)
        except DegenerateFaceError:
            degenerate.append(g)
            raise

    result = search(f, d, energy=energy, phi0=value, dphi0=dphi0)
    assert len(degenerate) == 1
    assert face_geometry(ellipsoid3, degenerate[0]).image_areas[7] <= en.IMAGE_AREA_TOL
    assert result.ok and 0 < result.alpha <= 0.5
    en.check_geometry(face_geometry(ellipsoid3, result.mapping))


def test_geometry_memo_recomputes_for_a_new_array(ellipsoid3):
    objective = NormalizedStretchObjective(ellipsoid3)
    f = spherical_start(ellipsoid3)
    g = project_to_manifold(f + 0.01)
    for h in (f, g, f):
        assert objective.value(h) == face_geometry(ellipsoid3, h).normalized


ENERGIES = ("image_area", "stretch", "authalic", "normalized", "sd_over_mean")


def test_one_face_geometry_pass_per_accepted_iterate(ellipsoid3, monkeypatch):
    # one geometry per evaluated mapping, each energy summed at most once
    # on it: the accepted trial's serve the record and the next value and
    # gradient
    calls = {"face_geometry": 0}
    summed = {name: [] for name in ENERGIES}
    evals = []
    search = rgd.search
    face_geometry_ = en.face_geometry

    def counted_face_geometry(*args, **kwargs):
        calls["face_geometry"] += 1
        return face_geometry_(*args, **kwargs)

    def counted_energy(name):
        fn = getattr(en.FaceGeometry, name).func

        def wrapper(geom):
            summed[name].append(geom)
            return fn(geom)
        prop = functools.cached_property(wrapper)
        prop.__set_name__(en.FaceGeometry, name)
        return prop

    def counted_search(*args, **kwargs):
        result = search(*args, **kwargs)
        evals.append(result.evals)
        return result

    monkeypatch.setattr(en, "face_geometry", counted_face_geometry)
    for name in ENERGIES:
        monkeypatch.setattr(en.FaceGeometry, name, counted_energy(name))
    monkeypatch.setattr(rgd, "search", counted_search)
    monkeypatch.setattr(rgd, "GRAD_TOL", 0.0)
    result = minimize(NormalizedStretchObjective(ellipsoid3), spherical_start(ellipsoid3),
                      max_iters=10, precondition=None)
    assert len(result.records) == 10
    assert calls["face_geometry"] <= sum(evals) + 1
    for geoms in summed.values():
        assert len({id(g) for g in geoms}) == len(geoms) <= sum(evals) + 1
    # FPI: the start's energies, then one set per iteration
    summed["stretch"].clear()
    warm = fpi.fpi_minimize(ellipsoid3, conformal_start(ellipsoid3),
                            max_iters=4, stop_on_increase=False)
    assert len(summed["stretch"]) == len(warm.records) + 1


def test_records_count_folds_without_a_second_gather(ellipsoid3, monkeypatch):
    calls = [0]

    def counted_folds(*args, **kwargs):
        calls[0] += 1
        return count_folds(*args, **kwargs)

    for module in (sphere, rgd, fpi):
        monkeypatch.setattr(module, "count_folds", counted_folds)
    f0 = conformal_start(ellipsoid3)
    calls[0] = 0
    result = minimize(NormalizedStretchObjective(ellipsoid3), f0, max_iters=5, precondition=None)
    warm = fpi.fpi_minimize(ellipsoid3, f0, max_iters=3)
    assert len(result.records) == 5 and len(warm.records) >= 1
    assert calls[0] == 0


def test_record_folds_match_count_folds(icosphere2, monkeypatch):
    # from a map with inverted faces, every record's fold count (read off
    # the face geometry) equals the determinant count of its mapping
    f0 = inverted_vertex_map(icosphere2)
    iterates = []
    value_and_gradient = NormalizedStretchObjective.value_and_gradient

    def recorded(self, f):
        iterates.append(f)
        return value_and_gradient(self, f)

    monkeypatch.setattr(NormalizedStretchObjective, "value_and_gradient", recorded)
    monkeypatch.setattr(rgd, "GRAD_TOL", 0.0)
    result = minimize(NormalizedStretchObjective(icosphere2), f0, max_iters=15, precondition=None)
    # the gradient is taken at the start and then at each accepted iterate
    # but the last
    seen = [(r.folds, count_folds(icosphere2, f))
            for r, f in zip(result.records, iterates[1:] + [result.mapping])]
    assert len(seen) == 15
    assert all(got == want for got, want in seen), seen
    assert seen[0][1] >= 1


def test_log_every_goes_through_logging(ellipsoid3, caplog, capsys):
    with caplog.at_level(logging.DEBUG, logger="authalic.rgd"):
        minimize(NormalizedStretchObjective(ellipsoid3), spherical_start(ellipsoid3), max_iters=4,
                 precondition=None)
    records = [r for r in caplog.records if r.name == "authalic.rgd"]
    # one DEBUG line per iteration, nothing at INFO or above
    assert [r.levelno for r in records] == [logging.DEBUG] * 4
    assert [r.getMessage().split()[:2] for r in records] == [["iter", str(k)]
                                                           for k in range(1, 5)]
    assert capsys.readouterr().out == ""


def test_one_face_geometry_pass_per_iterate_under_lbfgs(ellipsoid3, monkeypatch):
    # the L-BFGS direction reads the gradient the objective returned and
    # measures no mapping of its own
    precondition = rgd.preconditioner(ellipsoid3, fpi.reference_laplacian(ellipsoid3))
    calls, evals = [], []
    face_geometry_, search = en.face_geometry, rgd.search
    monkeypatch.setattr(en, "face_geometry",
                        lambda *a, **k: calls.append(1) or face_geometry_(*a, **k))

    def counted_search(*args, **kwargs):
        result = search(*args, **kwargs)
        evals.append(result.evals)
        return result

    monkeypatch.setattr(rgd, "search", counted_search)
    result = minimize(NormalizedStretchObjective(ellipsoid3, spherical=True),
                      spherical_start(ellipsoid3), max_iters=10, precondition=precondition)
    assert len(result.records) == 10
    assert len(calls) <= sum(evals) + 1
