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

    manifest = json.loads((out / "manifest.json").read_text())
    warmup = manifest["params"]["fpi_iterations_run"]
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,E_S,E_A,E,sd_over_mean,grad_norm,alpha,folds,elapsed_s"
    assert len(lines) - 1 == 20 + warmup

    sphere = load_mesh(out / "sphere.obj")
    assert np.abs(np.linalg.norm(sphere.vertices, axis=1) - 1.0).max() <= 1e-12


def test_param_bounded_strategy(tmp_path, mesh_file):
    out = tmp_path / "run"
    result = run("param", mesh_file, "--max-iters", "3", "--fpi-iters", "2",
                 "--ls", "bounded", "--out", str(out))
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["ls"] == "bounded"


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


def test_param_log_flag_and_noise(tmp_path, mesh_file):
    out = tmp_path / "run"
    log = tmp_path / "conv.csv"
    result = run("param", mesh_file, "--max-iters", "2", "--fpi-iters", "1",
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
    result = run("param", mesh_file, "--max-iters", "1", "--fpi-iters", "1",
                 "--out", str(out), "--log", str(out / "conv.csv"))
    assert result.exit_code == 0
    assert (out / "conv.csv").exists()


def test_param_missing_mesh_is_usage_error(tmp_path):
    result = CliRunner().invoke(main, ["param", str(tmp_path / "absent.off")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command, flag", [("param", "--max-iters"), ("param", "--fpi-iters"),
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
    result = run("param", sphere_file, "--fpi-iters", "1", "--out", str(out))
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


@pytest.fixture(scope="module")
def registration_dir(tmp_path_factory, sphere_file):
    base = tmp_path_factory.mktemp("reg")
    landmarks = base / "marks.txt"
    landmarks.write_text("# five pairs\n4 4\n41 41\n78 78\n121 121\n151 151\n")
    out = base / "out"
    result = run("register", sphere_file, sphere_file, str(landmarks),
                 "--fpi-iters", "3", "--max-iters", "10", "--align-iters", "60",
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
    assert "final_mean_geodesic" in mismatch
    surface = load_mesh(sphere_file)
    folds = [count_folds(surface, load_mesh(out / f"{name}.obj").vertices)
             for name in ("h0", "h1")]
    assert mismatch["alignment_folds"] == folds
    assert all(type(n) is int and n >= 0 for n in mismatch["alignment_folds"])


@pytest.mark.parametrize("flags, normalize", [([], True), (["--raw-midpoints"], False)],
                         ids=["default", "raw-midpoints"])
def test_register_raw_midpoints_reach_the_targets(sphere_file, tmp_path, monkeypatch,
                                                  flags, normalize):
    seen = []
    original = registration.midpoint_targets

    def spy(*args, **kwargs):
        seen.append(kwargs["normalize"])
        return original(*args, **kwargs)

    monkeypatch.setattr(registration, "midpoint_targets", spy)
    marks = tmp_path / "marks.txt"
    marks.write_text("4 4\n41 41\n")
    out = tmp_path / "out"
    result = run("register", sphere_file, sphere_file, str(marks), *flags,
                 "--fpi-iters", "1", "--max-iters", "1", "--align-iters", "1",
                 "--out", str(out))
    assert result.exit_code == 0, result.output
    assert seen == [normalize]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["raw_midpoints"] is not normalize


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
    result = run(command, *inputs, "--fpi-iters", "1", "--max-iters", "1",
                 "--out", str(tmp_path / "out"))
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
    # the Laplacian quadratic form guards the per-face report: a stretch
    # off by 1e-8 relative fails the check
    report = en.energy_report_per_face

    def skewed(surface, f):
        rep = report(surface, f)
        return dataclasses.replace(rep, stretch=rep.stretch * (1.0 + 1e-8))

    monkeypatch.setattr(en, "energy_report_per_face", skewed)
    result = CliRunner().invoke(main, ["check", sphere_file])
    assert result.exit_code == 1
    assert "[FAIL] stretch energy routes agree" in result.output


def test_check_probe_eigen(sphere_file):
    result = run("check", sphere_file, "--probe-eigen")
    assert result.exit_code == 0, result.output
    assert "eigenvalue probe" in result.output


def test_env_var_override(tmp_path, mesh_file):
    out = tmp_path / "env_run"
    result = CliRunner().invoke(
        main, ["param", mesh_file, "--max-iters", "2", "--fpi-iters", "1",
               "--out", str(out)],
        env={"AUTHALIC_PARAM_SEED": "9"}, catch_exceptions=False)
    assert result.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
