"""Exception types shared across the package.

Every error that carries a witness stores it on the exception object so
callers (and tests) can inspect the offending element/pair/triple instead
of parsing the message.
"""


class ZerocohomError(Exception):
    """Base class for all errors raised by this package."""


class TableError(ZerocohomError):
    """Malformed multiplication table input (shape, range, names)."""


class DuplicateName(TableError):
    pass


class AssociativityError(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"associativity fails at {witness}")


class ZeroError(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"declared zero is not absorbing, witness {witness}")


class NotAnIdeal(ZerocohomError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"subset is not a two-sided ideal (witness {witness})")


class MissingZero(ZerocohomError):
    pass


class NoZero(MissingZero):
    pass


class NotAGroup(ZerocohomError):
    pass


class DegenerateSandwich(ZerocohomError):
    pass


class NotMonoidWithZero(ZerocohomError):
    pass


class PresentationSyntaxError(ZerocohomError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownGenerator(PresentationSyntaxError):
    pass


class GeneratorIsZero(ZerocohomError):
    def __init__(self, generator):
        self.generator = generator
        super().__init__(f"generator {generator!r} equals zero in the presented semigroup")


class NotAComplex(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"composite map is nonzero on generator {witness}")


class InvalidModule(ZerocohomError):
    def __init__(self, witness=None, message="module axioms violated"):
        self.witness = witness
        super().__init__(f"{message} (witness {witness})")


class InvalidFactorSet(ZerocohomError):
    """A factor set, or the support or weak cocycle of one, that breaks its law."""

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(f"{message} (witness {witness})")


class InvalidLabeling(ZerocohomError):
    pass


class NotIdempotent(ZerocohomError):
    pass


class DegreeMismatch(ZerocohomError):
    pass


class CapExceeded(ZerocohomError):
    """A request for more than a fixed cap allows.

    ``requested`` is the size asked for, or None when it is unbounded
    (for example a brute-force search over infinite coefficients).
    """

    def __init__(self, quantity, requested, cap):
        self.quantity = quantity
        self.requested = requested
        self.cap = cap
        shown = "unbounded" if requested is None else requested
        super().__init__(f"{quantity} {shown} exceeds cap {cap}")


class FunctorialityError(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"functoriality fails at {witness}")


class DivisionUndefined(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"denominator vanishes while numerator does not, at {witness}")


class UncertifiedInput(ZerocohomError):
    pass


class CoefficientMismatch(ZerocohomError):
    """Two objects that must share a coefficient group do not."""

    def __init__(self, left, right):
        self.witness = (left, right)
        super().__init__(f"coefficient groups differ: {left!r} vs {right!r}")


class SemigroupMismatch(ZerocohomError):
    """Two objects that must share a semigroup do not."""

    def __init__(self, left, right):
        self.witness = (left, right)
        super().__init__(f"semigroups differ: {left!r} vs {right!r}")


class ShapeMismatch(ZerocohomError):
    """A matrix or vector whose shape does not fit where it is used."""

    def __init__(self, what, expected, got):
        self.witness = (expected, got)
        super().__init__(f"{what}: expected {expected}, got {got}")


class GroupMismatch(ZerocohomError):
    """Two maps that must meet at one group do not."""

    def __init__(self, left, right):
        self.witness = (left, right)
        super().__init__(f"groups differ where the maps meet: {left!r} vs {right!r}")


class NotInSubgroup(ZerocohomError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"relation column {witness} lies outside the subgroup lattice")


class CertificateError(ZerocohomError):
    """A computed object failed the check that certifies it."""

    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(f"{message} (witness {witness})")


class InvalidFieldOrder(ZerocohomError):
    def __init__(self, q):
        self.q = q
        super().__init__(f"no finite field has q = {q} elements: q must be a prime power >= 2")
