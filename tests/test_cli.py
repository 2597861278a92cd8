import dataclasses
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

import authalic.energy as en
from authalic import registration
from authalic.cli import main
from authalic.mesh import load_mesh, make_icosphere, save_mesh
from authalic.pipeline import parameterize
from authalic.sphere import count_folds

from helpers import rotation_matrix


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "ellipsoid.off"
    surf = make_icosphere(2, (1.0, 0.8, 0.6))
    save_mesh(surf.vertices, surf.faces, path)
    return str(path)


@pytest.fixture(scope="module")
def sphere_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "sphere.obj"
    surf = make_icosphere(2)
    save_mesh(surf.vertices, surf.faces, path)
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def strip_elapsed(csv_text):
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


def test_param_outputs(tmp_path, mesh_file):
    out = tmp_path / "run"
    result = run("param", mesh_file, "--max-iters", "20", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert (out / "sphere.obj").exists()
    assert (out / "convergence.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "vertex_ids.txt").exists()
    assert "SD/Mean" in result.output and "folds" in result.output
    assert result.output.rstrip().endswith("degree 1")

    manifest = json.loads((out / "manifest.json").read_text())
    warmup = manifest["params"]["fpi_iterations_run"]
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"
    # one row per iteration run: from the radial start the descent stops
    # by the gradient test after 17 of its 20
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 17 + warmup + 1))

    sphere = load_mesh(out / "sphere.obj")
    assert np.abs(np.linalg.norm(sphere.vertices, axis=1) - 1.0).max() <= 1e-12


def test_param_deterministic_rerun(tmp_path, mesh_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = run("param", mesh_file, "--max-iters", "10", "--seed", "7",
                     "--out", str(out))
        assert result.exit_code == 0
    csv_a = (a / "convergence.csv").read_text()
    csv_b = (b / "convergence.csv").read_text()
    # byte-identical numerical columns; wall-clock column may differ
    assert strip_elapsed(csv_a) == strip_elapsed(csv_b)
    assert (a / "sphere.obj").read_text() == (b / "sphere.obj").read_text()


def test_param_method_is_run_and_recorded(tmp_path, mesh_file):
    runs = {}
    for method in ("lbfgs", "paper"):
        out = tmp_path / method
        result = run("param", mesh_file, "--method", method, "--max-iters", "3",
                     "--out", str(out))
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["method"] == method
        # the warm-up's cap is the method's own, not a parameter
        assert "fpi_iters" not in manifest["params"]
        assert manifest["params"]["max_iters"] == 3
        # each method's first start is fold-free on this ellipsoid
        assert manifest["params"]["start"] == {"lbfgs": "radial", "paper": "conformal"}[method]
        runs[method] = (out / "sphere.obj").read_text()
    assert runs["lbfgs"] != runs["paper"]
    result = CliRunner().invoke(main, ["param", mesh_file, "--method", "newton",
                                       "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2


def test_param_log_flag_and_noise(tmp_path, mesh_file):
    out = tmp_path / "run"
    log = tmp_path / "conv.csv"
    result = run("param", mesh_file, "--max-iters", "2",
                 "--noise-sigma", "1e-3", "--seed", "5",
                 "--log", str(log), "--out", str(out))
    assert result.exit_code == 0
    assert log.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["noise_sigma"] == pytest.approx(1e-3)
    assert manifest["seed"] == 5


def test_param_log_into_a_missing_directory_is_usage_error(tmp_path, mesh_file):
    # the log is written last; this used to write the map and then fail
    # with a traceback and no manifest
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["param", mesh_file, "--out", str(out),
                                       "--log", str(tmp_path / "absent" / "conv.csv")])
    assert result.exit_code == 2
    assert "--log" in result.output
    assert not out.exists()
    # a log inside the output directory, which the run makes, is fine
    result = run("param", mesh_file, "--max-iters", "1",
                 "--out", str(out), "--log", str(out / "conv.csv"))
    assert result.exit_code == 0
    assert (out / "conv.csv").exists()


def test_param_missing_mesh_is_usage_error(tmp_path):
    result = CliRunner().invoke(main, ["param", str(tmp_path / "absent.off")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command, flag", [("param", "--max-iters"),
                                           ("register", "--align-iters")])
def test_negative_iteration_count_is_usage_error(tmp_path, mesh_file, command, flag):
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n")
    inputs = [mesh_file, mesh_file, str(marks)] if command == "register" else [mesh_file]
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [command, *inputs, flag, "-2", "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_param_negative_noise_is_usage_error(tmp_path, mesh_file):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["param", mesh_file, "--noise-sigma", "-1",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, lam", [("--lam", "-10"), ("--lam", "0"), ("--lambda", "0"),
                                       ("--lam", "nan"), ("--lam", "inf")])
def test_nonpositive_lambda_is_usage_error(tmp_path, sphere_file, flag, lam):
    # a weight <= 0 pushes each landmark away from its target; it used to
    # run and report the antipodal landing as a mismatch "reduction".  A
    # non-finite weight used to pass the range test and fail only after
    # both meshes were parameterized
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n41 41\n")
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["register", sphere_file, sphere_file, str(marks),
                                       flag, lam, "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_param_collapsed_map_is_numerical_failure(tmp_path, sphere_file, monkeypatch):
    # a map the summary cannot measure (every vertex on the north pole)
    # must end in an error line, with no sphere, CSV or manifest written
    def collapsed(surface, config):
        result = parameterize(surface, dataclasses.replace(config, max_iters=1))
        return dataclasses.replace(result, mapping=np.tile([0.0, 0.0, 1.0],
                                                           (surface.n_vertices, 1)))

    monkeypatch.setattr("authalic.cli.parameterize", collapsed)
    out = tmp_path / "run"
    result = run("param", sphere_file, "--out", str(out))
    assert result.exit_code == 1
    assert "error: " in result.output
    for name in ("sphere.obj", "vertex_ids.txt", "convergence.csv", "manifest.json"):
        assert not (out / name).exists()


def test_param_bad_mesh_is_numerical_failure(tmp_path):
    path = tmp_path / "open.off"
    path.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    result = CliRunner().invoke(main, ["param", str(path)])
    assert result.exit_code == 1
    assert "error" in result.output


def test_param_rejects_an_inconsistently_oriented_mesh(tmp_path):
    surf = make_icosphere(3)
    faces = surf.faces.copy()
    faces[0] = faces[0, ::-1]
    path = tmp_path / "flipped.off"
    save_mesh(surf.vertices, faces, path)
    out = tmp_path / "run"
    result = run("param", str(path), "--out", str(out))
    assert result.exit_code == 1
    assert "error: inconsistently oriented faces: faces 0 and" in result.output
    assert not (out / "sphere.obj").exists()


@pytest.fixture(scope="module")
def registration_dir(tmp_path_factory, sphere_file):
    base = tmp_path_factory.mktemp("reg")
    landmarks = base / "marks.txt"
    landmarks.write_text("# five pairs\n4 4\n41 41\n78 78\n121 121\n151 151\n")
    out = base / "out"
    result = run("register", sphere_file, sphere_file, str(landmarks),
                 "--max-iters", "10", "--align-iters", "60",
                 "--out", str(out))
    assert result.exit_code == 0, result.output
    return out


def test_register_outputs(registration_dir, sphere_file):
    out = registration_dir
    for name in ("f0.obj", "f1.obj", "h0.obj", "h1.obj",
                 "composed_map.txt", "mismatch.json", "manifest.json"):
        assert (out / name).exists()
    rows = np.loadtxt(out / "composed_map.txt", comments="#")
    assert rows.shape == (162, 5)
    weights = rows[:, 2:5]
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-10
    mismatch = json.loads((out / "mismatch.json").read_text())
    # the same mesh on both sides: the maps share one frame, the rotation
    # of f1's landmarks onto f0's is the identity, and both mismatches
    # are zero up to the arccos roundoff
    assert mismatch["rotation_deg"] == pytest.approx(0.0, abs=1e-5)
    assert mismatch["initial_mean_geodesic"] == pytest.approx(0.0, abs=1e-7)
    assert mismatch["rotated_mean_geodesic"] == pytest.approx(0.0, abs=1e-7)
    surface = load_mesh(sphere_file)
    folds = [count_folds(surface, load_mesh(out / f"{name}.obj").vertices)
             for name in ("h0", "h1")]
    assert mismatch["alignment_folds"] == folds
    assert all(type(n) is int and n >= 0 for n in mismatch["alignment_folds"])
    # one record per alignment iteration, up to the --align-iters cap of 60
    for iters, status in zip(mismatch["alignment_iters"], mismatch["alignment_status"]):
        assert type(iters) is int and 0 < iters <= 60
        assert status != "max_iters" or iters == 60
    params = json.loads((out / "manifest.json").read_text())["params"]
    assert params["method"] == "lbfgs" and params["starts"] == ["radial", "radial"]


def test_register_records_the_rotation_between_two_poses(mesh_file, tmp_path):
    # the target is another ellipsoid turned by 50 degrees; its radial map
    # turns with it, and the report separates the turn from the mismatch
    turned = make_icosphere(2, (0.7, 1.0, 0.8))
    rotation = rotation_matrix([1.0, 2.0, 2.0], np.radians(50.0))
    target = tmp_path / "turned.off"
    save_mesh(turned.vertices @ rotation.T, turned.faces, target)
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n41 41\n78 78\n121 121\n151 151\n")
    out = tmp_path / "out"
    result = run("register", mesh_file, str(target), str(marks), "--out", str(out))
    assert result.exit_code == 0, result.output
    mismatch = json.loads((out / "mismatch.json").read_text())
    f0, f1 = (load_mesh(out / f"{name}.obj").vertices for name in ("f0", "f1"))
    rows = [3, 40, 77, 120, 150]  # the file counts from 1
    assert mismatch["initial_mean_geodesic"] == pytest.approx(
        registration.geodesic_mismatch(f0[rows], f1[rows]), rel=1e-9)
    assert mismatch["rotation_deg"] == pytest.approx(50.0, abs=1.0)
    assert mismatch["rotated_mean_geodesic"] < 0.25 * mismatch["initial_mean_geodesic"]
    # the reduction is measured from the rotated mismatch
    assert mismatch["reduction"] == pytest.approx(
        1.0 - mismatch["final_mean_geodesic"] / mismatch["rotated_mean_geodesic"], rel=1e-12)
    assert mismatch["reduction"] >= 0.9
    assert mismatch["alignment_folds"] == [0, 0]


def test_register_reaches_the_renormalized_midpoints(sphere_file, tmp_path, monkeypatch):
    seen = []
    original = registration.midpoint_targets

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(registration, "midpoint_targets", spy)
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n41 41\n")
    out = tmp_path / "out"
    result = run("register", sphere_file, sphere_file, str(marks),
                 "--max-iters", "1", "--align-iters", "1",
                 "--out", str(out))
    assert result.exit_code == 0, result.output
    assert len(seen) == 1
    assert np.abs(np.linalg.norm(seen[0], axis=1) - 1.0).max() <= 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert "raw_midpoints" not in manifest["params"]


def test_retired_flags_are_usage_errors(mesh_file, sphere_file, tmp_path):
    # the line search and the landmark targets have one route each, and
    # the method fixes its warm-up
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n")
    register = ["register", sphere_file, sphere_file, str(marks)]
    for args in (["param", mesh_file, "--ls", "interp"], [*register, "--raw-midpoints"],
                 ["param", mesh_file, "--fpi-iters", "1"], [*register, "--fpi-iters", "1"]):
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
    assert not (tmp_path / "out").exists()


def test_register_missing_landmarks_usage_error(sphere_file, tmp_path):
    result = CliRunner().invoke(
        main, ["register", sphere_file, sphere_file, str(tmp_path / "none.txt")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command, patched", [("register", "midpoint_targets"),
                                              ("param", "parameterize")])
def test_library_value_error_is_numerical_failure(sphere_file, tmp_path, monkeypatch,
                                                   command, patched):
    def fail(*args, **kwargs):
        raise ValueError("landmark pair is (nearly) antipodal; midpoint undefined")

    # the register case fails inside the library, which cli reaches
    # through the registration module
    module = "registration" if command == "register" else "cli"
    monkeypatch.setattr(f"authalic.{module}.{patched}", fail)
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n")
    inputs = [sphere_file, sphere_file, str(marks)] if command == "register" else [sphere_file]
    result = run(command, *inputs, "--max-iters", "1", "--out", str(tmp_path / "out"))
    assert result.exit_code == 1
    assert "error: landmark pair is (nearly) antipodal" in result.output


def test_morph_frames(registration_dir, tmp_path):
    out = tmp_path / "frames"
    result = run("morph", str(registration_dir), "--frames", "4", "--out", str(out))
    assert result.exit_code == 0, result.output
    frames = sorted(os.listdir(out))
    assert [f for f in frames if f.endswith(".obj")] == [
        "frame_000.obj", "frame_001.obj", "frame_002.obj", "frame_003.obj"]
    manifest = json.loads((registration_dir / "manifest.json").read_text())
    m0 = load_mesh(manifest["inputs"]["mesh0"])
    frame0 = load_mesh(out / "frame_000.obj")
    assert np.abs(frame0.vertices - m0.vertices).max() <= 1e-12
    assert np.array_equal(frame0.faces, m0.faces)


@pytest.mark.parametrize("face_id", ["-1", "999999"])
def test_morph_rejects_a_face_id_out_of_range(registration_dir, tmp_path, face_id):
    regdir = tmp_path / "reg"
    regdir.mkdir()
    (regdir / "manifest.json").write_text((registration_dir / "manifest.json").read_text())
    lines = (registration_dir / "composed_map.txt").read_text().splitlines()
    fields = lines[5].split()
    fields[1] = face_id
    lines[5] = " ".join(fields)
    (regdir / "composed_map.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "frames"
    result = run("morph", str(regdir), "--out", str(out))
    assert result.exit_code == 1
    assert f"error: {regdir / 'composed_map.txt'}: face id {face_id}" in result.output
    assert not any(name.endswith(".obj") for name in os.listdir(out))


def test_morph_single_frame_usage_error(registration_dir):
    result = CliRunner().invoke(main, ["morph", str(registration_dir), "--frames", "1"])
    assert result.exit_code == 2


def test_morph_requires_registration_outputs(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = CliRunner().invoke(main, ["morph", str(empty)])
    assert result.exit_code == 2


def test_check_passes_on_icosphere(sphere_file):
    result = run("check", sphere_file)
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
    assert "all checks passed" in result.output


def test_check_certifies_the_fold_rule(sphere_file, monkeypatch):
    result = run("check", sphere_file)
    assert "fold detector counts a flipped face: 0 -> 1" in result.output
    # a face-geometry fold count that misses the flipped face fails the check
    monkeypatch.setattr(en.FaceGeometry, "folds", property(lambda self: 0))
    result = CliRunner().invoke(main, ["check", sphere_file])
    assert result.exit_code == 1
    assert "[FAIL] fold detector counts a flipped face" in result.output


def test_check_certifies_the_per_face_energy_route(sphere_file, monkeypatch):
    # the Laplacian quadratic form guards the per-face sum: a stretch
    # off by 1e-8 relative fails the check
    stretch = en.FaceGeometry.stretch.func
    monkeypatch.setattr(en.FaceGeometry, "stretch",
                        property(lambda geom: stretch(geom) * (1.0 + 1e-8)))
    result = CliRunner().invoke(main, ["check", sphere_file])
    assert result.exit_code == 1
    assert "[FAIL] stretch energy routes agree" in result.output
    assert "[PASS] stretch gradient routes agree" in result.output


def test_check_certifies_the_per_face_gradient_route(sphere_file, monkeypatch):
    # 2 L f guards the per-face gradient the descent runs: a stretch
    # gradient off by 1e-8 relative fails the check
    stretch_gradient = en.stretch_gradient
    monkeypatch.setattr(en, "stretch_gradient",
                        lambda surface, geom: stretch_gradient(surface, geom) * (1.0 + 1e-8))
    result = CliRunner().invoke(main, ["check", sphere_file])
    assert result.exit_code == 1
    assert "[FAIL] stretch gradient routes agree" in result.output
    assert "[PASS] stretch energy routes agree" in result.output


def test_check_certifies_both_descent_gradients(sphere_file, monkeypatch):
    result = run("check", sphere_file)
    assert "[PASS] chordal gradient matches finite differences" in result.output
    assert "[PASS] spherical gradient matches finite differences" in result.output
    # the default descent's spherical gradient off by 1e-5 relative fails
    # its own line and leaves the chordal one passing
    spherical_gradient = en.spherical_gradient
    monkeypatch.setattr(en, "spherical_gradient",
                        lambda *args: spherical_gradient(*args) * (1.0 + 1e-5))
    result = CliRunner().invoke(main, ["check", sphere_file])
    assert result.exit_code == 1
    assert "[FAIL] spherical gradient matches finite differences" in result.output
    assert "[PASS] chordal gradient matches finite differences" in result.output


def test_check_probe_eigen(sphere_file):
    result = run("check", sphere_file, "--probe-eigen")
    assert result.exit_code == 0, result.output
    assert "eigenvalue probe" in result.output


def test_env_var_override(tmp_path, mesh_file):
    out = tmp_path / "env_run"
    result = CliRunner().invoke(
        main, ["param", mesh_file, "--max-iters", "2", "--out", str(out)],
        env={"AUTHALIC_PARAM_SEED": "9"}, catch_exceptions=False)
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9


@pytest.mark.parametrize("manifest", [None, [], {"inputs": {"mesh0": 3, "mesh1": "m1.off"}}],
                         ids=["param-manifest", "not-an-object", "non-string-mesh"])
def test_morph_requires_a_registration_manifest(registration_dir, mesh_file, tmp_path,
                                                manifest):
    # a param output directory with a stray composed_map.txt: its manifest
    # names one input mesh, not the two a registration reads
    regdir = tmp_path / "param"
    assert run("param", mesh_file, "--max-iters", "1", "--out", str(regdir)).exit_code == 0
    if manifest is not None:
        (regdir / "manifest.json").write_text(json.dumps(manifest) + "\n")
    (regdir / "composed_map.txt").write_text((registration_dir / "composed_map.txt").read_text())
    out = tmp_path / "frames"
    result = run("morph", str(regdir), "--out", str(out))
    assert result.exit_code == 2
    assert "does not contain registration outputs" in result.output
    assert not out.exists()
