"""Exception types shared across the package."""


class SunlabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SunlabError):
    """A vector or family does not match the ambient dimension."""


class NotSymmetric(SunlabError):
    """The functional family is not closed under negation."""


class Degenerate(SunlabError):
    """The functional family does not positively span the dual."""


class TooLarge(SunlabError):
    """A construction would exceed its budget of functionals or bases."""


class DuplicatePoints(SunlabError):
    """A point cloud operation requires pairwise distinct points."""


class WeightMismatch(SunlabError):
    """Weight vector length differs from the number of functional pairs."""


class EmptyCloud(SunlabError):
    """An operation requires a nonempty point cloud."""


class NotANearestPoint(SunlabError):
    """The supplied candidate is not a nearest point to the query."""


class QueryInCloud(SunlabError):
    """The query point already belongs to the cloud."""


class EndpointNotInCloud(SunlabError):
    """A path endpoint is not a member of the cloud."""


class ParseError(SunlabError):
    """An input file could not be parsed."""
