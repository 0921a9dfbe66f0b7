"""Exception types shared across the library."""


class VcsfmError(Exception):
    """Base class for all library errors."""


class NonPositiveDepthError(VcsfmError):
    """A point sits at or behind a camera's image plane (z <= 0)."""


class ZeroTranslationError(VcsfmError):
    """Essential matrix requested for a pose with no baseline."""


class DegenerateDenominatorError(VcsfmError):
    """Sampson denominator vanished (point coincides with an epipole)."""


class NotEssentialError(VcsfmError):
    """Matrix does not have the (sigma, sigma, 0) essential spectrum."""


class InvalidCoordinateError(VcsfmError):
    """Surface coordinate does not address a valid face / barycentric point."""


class TopologyMismatchError(VcsfmError):
    """Records do not share the canonical mesh topology."""


class DegenerateSampleError(VcsfmError):
    """Minimal-solver sample is rank-deficient (coincident or collinear points)."""


class InsufficientCorrespondencesError(VcsfmError):
    """Fewer correspondences than the minimal sample size."""


class NoValidHypothesisError(VcsfmError):
    """Every RANSAC sample was degenerate; no model could be scored."""


class AmbiguousCheiralityError(VcsfmError):
    """Two essential-matrix decompositions received near-equal cheirality votes."""


class EmptyInputError(VcsfmError):
    """A metric was asked to summarize an empty collection."""


class ParseError(VcsfmError):
    """Malformed line in a text-format file."""

    def __init__(self, message, path=None, line=None, column=None):
        loc = ""
        if path is not None:
            loc += f"{path}:"
        if line is not None:
            loc += f"{line}:"
        if column is not None:
            loc += f"{column}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line
        self.column = column
