"""Exception hierarchy shared by all ncspec modules."""


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
