"""Exception hierarchy shared across the package."""


class QtoricError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QtoricError):
    """A matrix or vector has the wrong shape for the requested operation."""


class ValidationError(QtoricError):
    """A combinatorial structure violates its invariants."""


class NonOrientableError(QtoricError):
    """Orientation propagation hit a parity conflict; carries a certificate.

    The certificate is a pair of facet indices together with their shared
    ridge, forming a propagation cycle with inconsistent parity.
    """

    def __init__(self, facet_a: int, facet_b: int, ridge: frozenset):
        self.facet_a = facet_a
        self.facet_b = facet_b
        self.ridge = ridge
        super().__init__(
            f"non-orientable: facets {facet_a} and {facet_b} disagree "
            f"across ridge {sorted(ridge)}"
        )


class IncoherentOrientationError(ValidationError):
    """Two orientation tuples induce the same orientation on their shared
    ridge; the two tuples and the ridge are the certificate."""

    def __init__(self, cell_a: tuple, cell_b: tuple, ridge: frozenset):
        self.cell_a, self.cell_b, self.ridge = cell_a, cell_b, ridge
        super().__init__(f"incoherent orientation: cells {cell_a} and {cell_b} "
                         f"induce the same orientation on ridge {sorted(ridge)}")


class DegeneracyError(QtoricError):
    """Points are affinely dependent where independence is required."""


class RankError(QtoricError):
    """A point configuration does not span the ambient space."""


class PolarityError(QtoricError):
    """Polar dual requested while the origin is not interior."""


class NonVertexError(QtoricError):
    """A point of a configuration lies on no facet of its convex hull."""


class RealizationInconsistencyError(QtoricError):
    """Geometric facets disagree with the combinatorial prediction."""


class CoverageError(QtoricError):
    """A characteristic map does not cover every facet it must."""


class UnimodularityError(QtoricError):
    """A vertex minor has |det| != 1 where unimodularity is required."""


class NormalizationError(QtoricError):
    """Base-vertex minor is singular; map cannot be normalized."""


class ConeDegeneracyError(QtoricError):
    """Cone generators are linearly dependent."""


class FieldCoverageError(QtoricError):
    """An angle falls outside the supported multiples of pi/4."""


class DocumentError(QtoricError):
    """Base class for document I/O failures."""


class ParseError(DocumentError):
    """Input text is not well-formed."""


class SchemaError(DocumentError):
    """Input parses but violates the document schema; names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
