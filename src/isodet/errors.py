"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of :class:`IsodetError`, so the CLI
can map any library error to a structured diagnostic and exit code 1.
"""


class IsodetError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- fields

class CompositeModulus(IsodetError):
    """The requested modulus is not a prime number."""


class CharTwoUnsupported(IsodetError):
    """Characteristic two is rejected everywhere in this package."""


class ResidueIsSquare(IsodetError):
    """The supplied extension generator is a square, so adjoining its
    square root would not give a quadratic extension."""


# ---------------------------------------------------------------- linalg

class NonSquare(IsodetError):
    """Operation requires a square matrix."""


class OddDimension(IsodetError):
    """Operation requires an even dimension."""


class NotSkewSymmetric(IsodetError):
    """Matrix is not skew-symmetric with zero diagonal."""


class IndexOutOfRange(IsodetError):
    """Row/column selection out of range."""


class SizeMismatch(IsodetError):
    """Row and column selections must have equal size."""


class RankDeficient(IsodetError):
    """Matrix does not have the rank the operation requires."""


class DimensionMismatch(IsodetError):
    """Operand shapes or fields are incompatible."""


# ---------------------------------------------------------------- forms / orbits

class InvalidForm(IsodetError):
    """Gram matrix does not define a form of the requested kind."""


class InvalidParams(IsodetError):
    """Orbit parameters violate the admissibility conditions."""


class StratumUnavailable(IsodetError):
    """The form has no points, or the field no equations, for a stratum."""


class InsufficientWittIndex(StratumUnavailable):
    """The form has too few hyperbolic pairs to populate the stratum."""


class SignUndefinedForForm(IsodetError):
    """No reference maximal isotropic subspace is available over this
    field, so the two-component sign cannot be evaluated."""


class SymmetryMismatch(IsodetError):
    """Right-hand side has the wrong symmetry for the congruence."""


# ---------------------------------------------------------------- equations

class ExceptionalNeedsSign(IsodetError):
    """The two-component stratum needs component generators, not plain
    rank-condition generators."""


class EigenvalueNotInField(StratumUnavailable):
    """The half-form involution eigenvalue is missing; retry over a
    quadratic extension of the base field."""


class WrongKind(IsodetError):
    """Operation is only defined for the other kind of bilinear form."""


class ExponentOutOfRange(IsodetError):
    """A monomial's degree or an exponent does not fit the packed
    monomial representation."""


class ConsistencyCheckFailed(IsodetError):
    """An exact identity that holds by construction came out false; this
    marks a defect in the library, not in its input."""


# ---------------------------------------------------------------- verify

class BudgetExceeded(IsodetError):
    """Enumeration would visit more matrices than the budget allows."""


# ---------------------------------------------------------------- cli

class MalformedInput(IsodetError):
    """An input file cannot be read as the JSON document the command
    expects (not JSON, a missing key, a matrix that is not shaped
    {"rows": [["<entry>", ...], ...]}, a field descriptor that is not
    field_create's parameters, an entry that does not parse)."""
