"""Exception types shared across the library."""


class VcsfmError(Exception):
    """Base class for all library errors."""


class ZeroTranslationError(VcsfmError):
    """Essential matrix requested for a pose with no baseline."""


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
