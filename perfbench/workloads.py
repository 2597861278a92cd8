"""The three benchmark workloads and the checks on their outputs.

Each workload has a set-up (mesh generation, ``build_surface``,
``normalize_area``), an operation timed by the runner, and a check of
that operation's outputs against the per-mesh tolerances in
``reference.json``.  All workloads are closed loop: one caller, one
operation at a time.

Seeds.  The shapes are fixed; the seed picks a rotation of every mesh.
The pipeline sees only lengths and areas of its input, so every seed
does the same work and must reach the same quality up to roundoff; this
keeps figures from different seeds comparable, and a frame-dependent
result would show as a spread.  The random parts of the shapes (hull
points, surface noise) are drawn from fixed generator seeds for the same
reason: across draws, the quality of a 130-point hull varies by a factor
of five and that of a noisy ellipsoid by half.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import inputs as gen
from authalic import mesh, pipeline, registration, sphere
from authalic.errors import AuthalicError

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


# ---------------------------------------------------------------------------
# Output quality, computed here rather than by the library under test
# ---------------------------------------------------------------------------

def quality(surface, f: np.ndarray) -> dict:
    """SD/Mean of the face area ratios, area-matched E_A and fold count."""
    p = f[surface.faces]
    image = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    ratios = image / surface.face_areas
    area = image.sum()
    stretch = np.sum(image**2 / surface.face_areas)
    det = np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    return {
        "sd_over_mean": float(ratios.std() / ratios.mean()),
        "authalic": float(surface.total_area / area * stretch - area),
        "folds": int((det < 0).sum()),
    }


@dataclass
class Outcome:
    """One library operation: a parameterization or a registration."""

    name: str
    error: str | None = None
    typed_error: bool = True
    failed_checks: list[str] = field(default_factory=list)
    sd_over_mean: float | None = None
    authalic: float | None = None
    maps: int = 0
    folded_maps: int = 0
    folds: int = 0
    mismatch_ratio: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failed_checks

    @property
    def correct(self) -> bool:
        """A typed AuthalicError is a counted failure, not a wrong output;
        a failed check or any other exception is a wrong output."""
        return not self.failed_checks and (self.error is None or self.typed_error)


def _check_map(out: Outcome, label: str, surface, f, limits: dict) -> dict:
    try:
        sphere.assert_on_sphere(f)
    except ValueError as exc:
        out.failed_checks.append(f"{label}: {exc}")
    q = quality(surface, f)
    for key in ("sd_over_mean", "authalic", "folds"):
        if not q[key] <= limits[key]:
            out.failed_checks.append(f"{label}: {key} {q[key]:.6g} > {limits[key]:.6g}")
    out.maps += 1
    out.folds += q["folds"]
    out.folded_maps += q["folds"] > 0
    return q


def _failure(name: str, exc: Exception) -> Outcome:
    return Outcome(name, error=f"{type(exc).__name__}: {exc}",
                   typed_error=isinstance(exc, AuthalicError))


def _parameterization_outcome(name, surface, result, limits) -> Outcome:
    if isinstance(result, Exception):
        return _failure(name, result)
    out = Outcome(name)
    q = _check_map(out, name, surface, result.mapping, limits)
    out.sd_over_mean, out.authalic = q["sd_over_mean"], q["authalic"]
    return out


def _parameterize(surface):
    """Run the pipeline; a raised exception is returned as the result so
    the runner times the failing call like any other."""
    try:
        return pipeline.parameterize(surface)
    except Exception as exc:  # every failure is counted, none stops the run
        return exc


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class ParamLarge:
    """One ``parameterize`` call on the sub-6 ellipsoid (40,962 vertices)."""

    name = "param-large"

    def __init__(self, subdivisions: int = 6):
        self.subdivisions = subdivisions

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        surface = gen.ellipsoid(self.subdivisions, (1.0, 0.8, 0.6), gen.random_rotation(rng))
        return mesh.normalize_area(surface)

    def run(self, surface):
        return _parameterize(surface)

    def check(self, surface, result) -> list[Outcome]:
        name = f"ellipsoid-{self.subdivisions}"
        return [_parameterization_outcome(name, surface, result,
                                          REFERENCE["param-large"][name]["max"])]


def _corpus(seed: int, scale: int) -> list[tuple[str, object]]:
    """The small-mesh corpus; `scale` lowers every subdivision level and
    hull size (0 is the benchmark, tests use a smaller corpus)."""
    rng = np.random.default_rng(seed)
    rot = lambda: gen.random_rotation(rng)
    fixed = np.random.default_rng
    s3, s4 = 3 - scale, 4 - scale
    hull = lambda n: gen.rotated(gen.unit_hull(n >> (2 * scale), fixed(n)), rot())
    return [
        ("ellipsoid-3", gen.ellipsoid(s3, (1.0, 0.8, 0.6), rot())),
        ("ellipsoid-4", gen.ellipsoid(s4, (1.0, 0.8, 0.6), rot())),
        ("ellipsoid-4-1-1", gen.ellipsoid(s3, (4.0, 1.0, 1.0), rot())),
        ("ellipsoid-10-1-1", gen.ellipsoid(s4, (10.0, 1.0, 1.0), rot())),
        ("bumpy-3", gen.bumpy_sphere(s3, 3.0, rot())),
        ("bumpy-5", gen.bumpy_sphere(s3, 5.0, rot())),
        ("hull-130", hull(130)),
        ("hull-500", hull(500)),
        ("hull-1000", hull(1000)),
        ("star", gen.star_sphere(s3, rot())),
        ("noisy-sphere", gen.rotated(gen.normal_noise(mesh.make_icosphere(s3), 0.02,
                                                      fixed(1)), rot())),
        ("noisy-ellipsoid", gen.rotated(gen.normal_noise(
            mesh.make_icosphere(s3, (1.0, 0.8, 0.6)), 0.02, fixed(2)), rot())),
    ]


class CorpusSmall:
    """One pass over twelve small genus-zero meshes, one at a time."""

    name = "corpus-small"

    def __init__(self, scale: int = 0):
        self.scale = scale
        self.limits = REFERENCE["corpus-small"]

    def setup(self, seed: int):
        return [(name, mesh.normalize_area(s)) for name, s in _corpus(seed, self.scale)]

    def run(self, corpus):
        return [_parameterize(surface) for _, surface in corpus]

    def check(self, corpus, results) -> list[Outcome]:
        return [_parameterization_outcome(name, surface, result, self.limits[name]["max"])
                for (name, surface), result in zip(corpus, results)]


class RegisterPair:
    """``register`` as the command line runs it, on two sub-5 ellipsoids."""

    name = "register-pair"
    landmarks = 8
    lam = 10.0
    align_iters = 200

    def __init__(self, subdivisions: int = 5):
        self.subdivisions = subdivisions
        self.reference = REFERENCE["register-pair"]

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        m0 = gen.ellipsoid(self.subdivisions, (1.0, 0.75, 0.9), gen.random_rotation(rng))
        m1 = gen.ellipsoid(self.subdivisions, (0.7, 1.0, 0.8), gen.random_rotation(rng))
        # fixed landmark ids: which vertices are paired sets how far the
        # maps must warp, so seeded ids would spread every figure
        pairs = gen.landmark_pairs(m0.n_vertices, self.landmarks, np.random.default_rng(0))
        return mesh.normalize_area(m0), mesh.normalize_area(m1), pairs

    def run(self, state):
        m0, m1, pairs = state
        try:
            config = pipeline.ParameterizeConfig()
            f0 = pipeline.parameterize(m0, config).mapping
            f1 = pipeline.parameterize(m1, config).mapping
            targets = registration.midpoint_targets(f0, f1, pairs)
            s0 = mesh.build_surface(f0, m0.faces)
            s1 = mesh.build_surface(f1, m1.faces)
            a0 = registration.solve_alignment(s0, f0, pairs[:, 0], targets, lambdas=self.lam,
                                              iters=self.align_iters)
            a1 = registration.solve_alignment(s1, f1, pairs[:, 1], targets, lambdas=self.lam,
                                              iters=self.align_iters)
            composed = registration.compose_registration(m0, m1, f0, f1,
                                                         a0.mapping, a1.mapping)
        except Exception as exc:  # counted as a failed operation
            return exc
        return f0, f1, a0.mapping, a1.mapping, composed

    def check(self, state, result) -> list[Outcome]:
        m0, m1, pairs = state
        if isinstance(result, Exception):
            return [_failure("register", result)]
        f0, f1, h0, h1, composed = result
        ref = self.reference
        out = Outcome("register")
        q0 = _check_map(out, "f0", m0, f0, ref["f0"]["max"])
        q1 = _check_map(out, "f1", m1, f1, ref["f1"]["max"])
        _check_map(out, "h0", m0, h0, ref["h0"]["max"])
        _check_map(out, "h1", m1, h1, ref["h1"]["max"])
        out.sd_over_mean = max(q0["sd_over_mean"], q1["sd_over_mean"])
        out.authalic = max(q0["authalic"], q1["authalic"])

        before = registration.geodesic_mismatch(f0[pairs[:, 0]], f1[pairs[:, 1]])
        after = registration.geodesic_mismatch(h0[pairs[:, 0]], h1[pairs[:, 1]])
        out.mismatch_ratio = after / before
        if not 1.0 - out.mismatch_ratio >= ref["mismatch_reduction_min"]:
            out.failed_checks.append(f"mismatch reduction {1.0 - out.mismatch_ratio:.4f} "
                                     f"< {ref['mismatch_reduction_min']}")

        w = composed.weights
        faces = composed.face_indices
        if w.shape != (m0.n_vertices, 3) or faces.shape != (m0.n_vertices,):
            out.failed_checks.append("composed map has the wrong shape")
        elif not ((w >= 0).all() and np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)):
            out.failed_checks.append("composed weights are negative or do not sum to 1")
        elif not ((faces >= 0).all() and (faces < m1.n_faces).all()):
            out.failed_checks.append("composed face index out of range")
        return [out]


WORKLOADS = {w.name: w for w in (ParamLarge, CorpusSmall, RegisterPair)}
