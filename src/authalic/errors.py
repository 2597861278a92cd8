"""Exception types shared across the package."""


class AuthalicError(Exception):
    """Base class for all errors raised by this package."""


class MeshFormatError(AuthalicError):
    """A mesh or landmark file could not be parsed."""


class MeshTopologyError(AuthalicError):
    """The mesh is not a genus-zero closed triangle surface, or its faces
    are not consistently oriented."""


class DegenerateFaceError(AuthalicError):
    """A face (reference or image) has collapsed below tolerance."""

    def __init__(self, message, face_index=None):
        super().__init__(message)
        self.face_index = face_index


class SolveError(AuthalicError):
    """A linear solve or eigenvalue probe failed its residual contract."""


class LineSearchError(AuthalicError):
    """The line search was called with an invalid (non-descent) direction."""
