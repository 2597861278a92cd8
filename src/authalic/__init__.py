"""Spherical area-preserving parameterization of genus-zero triangle meshes.

The core entry points:

- :func:`authalic.mesh.load_mesh` / :func:`authalic.mesh.make_icosphere`
- :func:`authalic.pipeline.parameterize` -- conformal start, fixed-point
  warm-up, Riemannian gradient descent, fold correction
- :func:`authalic.registration.register` -- landmark-aligned
  registration of two parameterized surfaces, the one entry point:
  both alignments (:func:`~authalic.registration.solve_alignment`), the
  composed map (:func:`~authalic.registration.compose_registration`)
  and the landmark mismatch before and after, as one
  :class:`~authalic.registration.Registration`
- the ``authalic`` command-line tool (param / register / morph / check)
"""

from .energy import (EnergyReport, area_matched_authalic, assemble_laplacian,
                     energy_report_per_face, euclidean_gradient, image_area_gradient)
from .errors import (AuthalicError, DegenerateFaceError, LineSearchError,
                     MeshFormatError, MeshTopologyError, SolveError)
from .fpi import conformal_initial_map, fpi_minimize
from .mesh import (SimplicialSurface, build_surface, load_mesh, make_icosphere,
                   normalize_area, parse_landmarks, perturb_vertices, save_mesh)
from .pipeline import ParameterizeConfig, ParameterizeResult, parameterize
from .registration import (Registration, compose_registration, homotopy_frame,
                           midpoint_targets, register, solve_alignment)
from .rgd import IterationRecord, MinimizeResult, minimize
from .sphere import (PlanarPoints, count_folds, inverse_stereographic, invert_plane,
                     project_tangent, project_to_manifold, retract, stereographic)
from .unfold import assemble_mean_value, correct_bijectivity

__version__ = "0.1.0"
