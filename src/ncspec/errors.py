"""The exceptions of all ncspec modules, and the readers of JSON numbers."""


class NCSpecError(Exception):
    """Base class for all domain errors raised by this package."""


# ring / element level

class UnsupportedClass(NCSpecError):
    pass


class InfiniteRing(NCSpecError):
    pass


class ElementOwnershipMismatch(NCSpecError):
    pass


class ArityMismatch(NCSpecError):
    pass


class NotAHomomorphism(NCSpecError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IdentityNotPreserved(NotAHomomorphism):
    pass


class CompositionMismatch(NCSpecError):
    pass


# localization level

class NonMonomialSkewSubset(NCSpecError):
    pass


class NotComparable(NCSpecError):
    pass


class UnverifiableSquare(NCSpecError):
    pass


# poset / space level

class NotAPartialOrder(NCSpecError):
    pass


class NotOpen(NCSpecError):
    pass


class NotJoinPreserving(NCSpecError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotIrreducibleCertificate(NCSpecError):
    pass


class NotACover(NCSpecError):
    pass


class PresheafLawViolation(NCSpecError):
    pass


# commutative bridge level

class NotCommutative(NCSpecError):
    pass


class BaseNotMultiplicative(NCSpecError):
    pass


class NotT0(NCSpecError):
    pass


class NotTComplete(NCSpecError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# gluing / qcoh level

class OreConditionFails(NCSpecError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ClosureBoundExceeded(NCSpecError):
    pass


class CocycleViolation(NCSpecError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAModule(NCSpecError):
    pass


# skew Proj level

class InhomogeneousRelation(NCSpecError):
    pass


class BoxTooSmall(NCSpecError):
    pass


class BoundInconclusive(NCSpecError):
    pass


# cli level

class ParseError(NCSpecError):
    pass


class SchemaViolation(ParseError):
    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path


def parse_int(v, path="") -> int:
    """An exact JSON integer; bools, strings and floats are rejected."""
    if type(v) is not int:
        raise SchemaViolation(f"not an integer: {v!r}", path)
    return v


def parse_rational(v, path=""):
    """The Fraction that v writes: a JSON integer, or a string of an
    integer, a ratio "a/b" or a plain decimal.  A bool, a float, or a
    string in exponent notation (whose value "1e10000000" would take
    seconds to build) is a SchemaViolation at path."""
    import fractions
    try:
        if type(v) is int or isinstance(v, str) and "e" not in v and "E" not in v:
            return fractions.Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaViolation(f"not an exact rational: {v!r}", path)
