"""Domain errors.

Infeasibility of a linear system and absence of a coboundary witness are
ordinary return values (``None``), not exceptions; everything here marks
input that violates a documented precondition or invariant.
"""


class CechliftError(Exception):
    """Base class for all domain errors raised by this library."""


class DuplicateVertexInSimplex(CechliftError):
    pass


class InvalidComplex(CechliftError):
    pass


class InvalidCover(CechliftError):
    pass


class NotACycle(CechliftError):
    pass


class NotACocycle(CechliftError):
    pass


class NotNormalized(CechliftError):
    """Factor set does not vanish on the identity row/column."""


class NotACocycle2(CechliftError):
    """Factor set violates the 2-cocycle law; carries a witness triple."""

    def __init__(self, triple):
        super().__init__(f"factor set violates the cocycle law at {triple}")
        self.triple = triple


class GroupMismatch(CechliftError):
    pass


class NotAbelian(CechliftError):
    """A quotient required to be commutative is not."""


class NoProduct(CechliftError):
    """The coefficient groups admit no declared bilinear product."""


class DegreeMismatch(CechliftError):
    pass


class CoverNotGood(CechliftError):
    pass


class CoverNotGoodOnV(CechliftError):
    pass


class NoFundamentalCycle(CechliftError):
    pass


class FormatError(CechliftError):
    """Malformed input file."""
