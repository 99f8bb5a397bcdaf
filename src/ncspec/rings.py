"""Ring descriptors, exact elements, and validated homomorphisms.

The classes here: the zero ring, Z/n, finite products, matrix rings over
Q or a prime field and semisimple algebras; Q[x] lives in `qpoly` and
skew Laurent rings in `skewpoly`, with their hom rules, so a finite call
loads neither.  Every element carries its owner descriptor and a
canonical payload, so equality is structural equality of canonical
forms.  Each descriptor class owns its payloads: arithmetic, documents
and localization (see `Descriptor`), and each hom rule class owns how it
applies and how it is certified (see `Rule`); the module-level functions
check ownership and delegate.  Only code that reads or computes a
rational imports `fractions`, so a call on Z/n, or over F_p with integer
entries, never loads it.
"""

import operator
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import gcd as igcd

from .errors import (
    CompositionMismatch,
    ElementOwnershipMismatch,
    IdentityNotPreserved,
    InfiniteRing,
    NotAHomomorphism,
    ParseError,
    SchemaViolation,
    UnsupportedClass,
    parse_int,
    parse_rational,
)
from .records import FrozenInstanceError, private, record


# ---------------------------------------------------------------------------
# field tags

@record(frozen=True)
class Rationals:
    """The field Q: scalars are Fractions; `order` is None (infinite)."""

    order = None
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    @staticmethod
    def scalar(v):
        import fractions
        return fractions.Fraction(v)

    def inv(self, a):
        return 1 / a

    def __repr__(self):
        return "Q"


# Miller-Rabin on the 13 primes up to 41 is exact below 3317044064679887385961981,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@record(frozen=True)
class PrimeField:
    """The field F_p: scalars are ints in range(p); `order` is p, proved
    prime by Miller-Rabin on `_PRIME_BASES` below `_PRIME_BOUND`."""

    p: int

    def __post_init__(self):
        p = self.p
        if p < 2 or any(p % b == 0 for b in _PRIME_BASES if b < p):
            raise ValueError(f"{p} is not prime")
        if p >= _PRIME_BOUND:
            raise ValueError(f"{p} is past the primality bound {_PRIME_BOUND}")
        d = p - 1
        while d % 2 == 0:
            d //= 2
        for b in _PRIME_BASES:  # a strong probable prime: b^d = 1 or some b^(d 2^r) = -1
            x, e = pow(b, d, p), d
            while e != p - 1 and x not in (1, p - 1):
                x, e = x * x % p, 2 * e
            if b < p and x != p - 1 and e % 2 == 0:
                raise ValueError(f"{p} is not prime")

    @property
    def order(self):
        return self.p

    def scalar(self, v):
        if type(v) is int:
            return v % self.p
        # an exact rational a/b is a * b^-1, when p does not divide b
        import fractions
        v = fractions.Fraction(v)
        if v.denominator % self.p == 0:
            raise ValueError(f"{v} is not in F{self.p}: {self.p} divides its denominator")
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __repr__(self):
        return f"F{self.p}"


# ---------------------------------------------------------------------------
# descriptors

class Descriptor:
    """The payload-level protocol of a ring class.

    A new class implements `canonical(payload)` (normalize a raw payload),
    `from_int(k)`, `add(a, b)`, `neg(a)`, `mul(a, b)`, `is_unit(a)`,
    `inverse(a)` (called on units only) and `is_commutative()`; every
    payload it returns is canonical.  The defaults below fit an infinite
    carrier.  A finite class overrides `cardinality()` and `elements()`
    (every canonical payload once, in a fixed order) and defines
    `generators`: the payloads of an additive generating set, so that a
    hom out of the ring, being additive, is fixed by its images of them.
    `show(a)` renders a payload.  `one` and `zero` are the elements 1 and
    0, built once per descriptor.

    `read(doc, path)` is the payload that a JSON value writes (a bad entry
    is a SchemaViolation at its path), `write(a)` its inverse, `localized(E)`
    loc(R, E) with its insertion rule off the block rings, for E holding a
    non-unit, `lazy_semilattice()` the semilattice of Q[x], and
    `ore_witnesses(E)` the Ore witnesses of skew monomials; the defaults
    refuse.

    A block ring (the zero ring, Z/n, a product of Z/n's, a matrix ring or
    a semisimple algebra) is the product of its `blocks`, and owns the
    protocol every reader of blocks goes through: `block_rings`, the ring
    of each block; `split(a)`, the tuple of a's parts in them, and its
    inverse `join(parts)`, which refuses a wrong part count; `keep(kept)`,
    the canonical product of the kept blocks; and the cell policies
    `cell_order(key)` and `section_ring(kept)`.  The zero ring and Z/n
    define `split` and `join` by CRT, a matrix ring is its one block, and
    a product concatenates its factors' parts.  Every other descriptor has
    no blocks.  The defaults fit a product of cyclic rings, whose `moduli`
    (None for every other descriptor) fix its `local_factors`.  A block
    (Z/p^c, a matrix ring) answers `maps_onto(C)`, `quotient_order(k)`,
    `additive_order(x)`, `kept_by_image(m)` and `kept_by_ideal(parts)`.
    """

    moduli = None

    def cardinality(self):
        return None

    def elements(self):
        raise InfiniteRing(f"{self!r} has an infinite carrier")

    @cached_property
    def local_factors(self):
        """The local factors Z/p^b of a product of cyclic rings, else None.

        One (factor j, prime p, p^b) per prime p of each of its `moduli`
        n_j, with p^b the largest power of p dividing n_j, by factor and
        then by prime.  By CRT the ring is the product of its Z/p^b.  The
        tuple is cached on the descriptor and per moduli tuple
        (`_local_factors`), so a fresh descriptor of known moduli does no
        trial division.
        """
        mods = self.moduli
        return None if mods is None else _local_factors(mods)

    @cached_property
    def blocks(self):
        """The sizes of the blocks of a block ring, of which it is the
        product: p^b per local factor of a product of cyclic rings (none for
        the zero ring), the matrix size per block of a matrix ring or a
        semisimple algebra.  None for every other descriptor."""
        factors = self.local_factors
        return None if factors is None else tuple(q for _j, _p, q in factors)

    @cached_property
    def block_rings(self):
        """The ring of each block: Z/p^b per local factor of a product of
        cyclic rings (a matrix ring or a semisimple algebra gives its matrix
        blocks); None off block rings."""
        factors = self.local_factors
        return None if factors is None else tuple(ModularRing(q) for _j, _p, q in factors)

    def unit_blocks(self, a):
        """The frozenset of the blocks on which the payload a is a unit."""
        return frozenset([s for s, (B, x) in enumerate(zip(self.block_rings, self.split(a)))
                          if B.is_unit(x)])

    def keep(self, kept):
        """The canonical product of the blocks in kept, for a product of
        cyclic rings: the kept local factors of each modulus n_j give one
        factor Z/m_j, and a modulus that keeps none drops out."""
        units = [1] * len(self.moduli)
        for s in kept:
            j, _p, q = self.local_factors[s]
            units[j] *= q
        return canonical_modular_product(units)

    def cell_order(self, key):
        """The sort key of the cell that keeps the blocks in key: the order in
        which the cells' idempotents first occur among the elements.  Per
        modulus, 0 if the cell keeps none of its blocks, else the product of
        its dropped primes, the least element that is a unit exactly there."""
        moduli = {}
        for s, (j, p, _q) in enumerate(self.local_factors):
            kept, dropped = moduli.get(j, (False, 1))
            moduli[j] = (kept or s in key, dropped if s in key else dropped * p)
        return [dropped if kept else 0 for kept, dropped in moduli.values()]

    def section_ring(self, kept):
        """The sections over cells that together keep the blocks in kept:
        the product of those local factors Z/p^c, largest first."""
        return canonical_modular_product(sorted((self.blocks[s] for s in kept), reverse=True))

    @cached_property
    def one(self):
        """The element 1, built once per descriptor."""
        return RingElement(self, self.from_int(1))

    @cached_property
    def zero(self):
        """The element 0, built once per descriptor."""
        return RingElement(self, self.from_int(0))

    def show(self, a):
        return repr(a)

    def read(self, doc, path):
        raise SchemaViolation(f"no element form for {self!r}", path)

    def write(self, a):
        raise ParseError(f"no document form for elements of {self!r}")

    def localized(self, E):
        raise UnsupportedClass(f"cannot localize {self!r}")

    def lazy_semilattice(self):
        raise UnsupportedClass(f"no semilattice construction for {self!r}")

    def ore_witnesses(self, E):
        raise UnsupportedClass(f"need a finite ring or skew monomials, got {self!r}")


@record(frozen=True)
class ZeroRing(Descriptor):
    def canonical(self, payload):
        return 0

    from_int = neg = inverse = write = canonical

    def add(self, a, b):
        return 0

    mul = add

    def is_unit(self, a):
        return True

    def cardinality(self):
        return 1

    def is_commutative(self):
        return True

    def elements(self):
        return [0]

    generators = ()
    moduli = ()
    show = staticmethod(str)

    def read(self, doc, path):
        if parse_int(doc, path) != 0:
            raise SchemaViolation(f"the zero ring has only the element 0, got {doc!r}", path)
        return 0

    def split(self, a):
        return ()

    def join(self, parts):
        () = parts  # the zero ring has no block
        return 0

    def __repr__(self):
        return "0-ring"


@record(frozen=True)
class ModularRing(Descriptor):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be >= 1")

    def canonical(self, payload):
        return int(payload) % self.n

    from_int = canonical

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_unit(self, a):
        return igcd(a, self.n) == 1

    def inverse(self, a):
        return pow(a, -1, self.n)

    def cardinality(self):
        return self.n

    def is_commutative(self):
        return True

    def elements(self):
        return range(self.n)

    @cached_property
    def generators(self):
        return (self.canonical(1),)

    show = staticmethod(str)
    moduli = property(lambda self: (self.n,))

    def read(self, doc, path):
        return self.canonical(parse_int(doc, path))

    def write(self, a):
        return a

    def split(self, a):
        return tuple([a % q for _j, _p, q in self.local_factors])

    def unit_blocks(self, a):
        """a is a unit in Z/p^b iff p does not divide it."""
        return frozenset([s for s, (_j, p, _q) in enumerate(self.local_factors) if a % p])

    def join(self, parts):
        """CRT: part x of local factor Z/q contributes x e_q, where e_q is
        1 mod q and 0 mod n / q (`unit_idempotent`)."""
        return sum(x * e for x, e in zip(parts, self._crt_units, strict=True)) % self.n

    @cached_property
    def _crt_units(self):
        return tuple(unit_idempotent(self.n, self.n // q) for _j, _p, q in self.local_factors)

    # as a block Z/q, q = p^c, whose ideals are the p^e Z/q: x -> x mod m maps
    # it onto Z/m iff m | q, and a quotient keeps Z/m (0 for m = 1) when the
    # image of its unit has additive order m, or m = gcd(q, the ideal's parts)
    def maps_onto(self, C):
        return len(C.moduli or ()) == 1 and self.n % C.moduli[0] == 0

    def quotient_order(self, k):
        return k

    def additive_order(self, x):
        return self.n // igcd(self.n, x)

    def kept_by_image(self, m):
        return m if m > 1 else 0

    def kept_by_ideal(self, parts):
        return self.kept_by_image(igcd(self.n, *parts))

    def __repr__(self):
        return f"Z/{self.n}"


class _Componentwise(Descriptor):
    """A product whose payloads are tuples of payloads of its `factors`."""

    def canonical(self, payload):
        return tuple([f.canonical(p) for f, p in zip(self.factors, payload)])

    def from_int(self, k):
        return tuple([f.from_int(k) for f in self.factors])

    def add(self, a, b):
        return tuple([f.add(x, y) for f, x, y in zip(self.factors, a, b)])

    def neg(self, a):
        return tuple([f.neg(x) for f, x in zip(self.factors, a)])

    def mul(self, a, b):
        return tuple([f.mul(x, y) for f, x, y in zip(self.factors, a, b)])

    def is_unit(self, a):
        return all(f.is_unit(x) for f, x in zip(self.factors, a))

    def inverse(self, a):
        return tuple([f.inverse(x) for f, x in zip(self.factors, a)])

    def cardinality(self):
        total = 1
        for f in self.factors:
            c = f.cardinality()
            if c is None:
                return None
            total *= c
        return total

    def is_commutative(self):
        return all(f.is_commutative() for f in self.factors)

    def elements(self):
        return iproduct(*[f.elements() for f in self.factors])

    @cached_property
    def generators(self):
        """Each factor's generators, padded with zeros in the other factors."""
        zeros = self.from_int(0)
        return tuple(zeros[:i] + (g,) + zeros[i + 1:]
                     for i, f in enumerate(self.factors) for g in f.generators)

    def read(self, doc, path):
        if len(doc) != len(self.factors):
            raise SchemaViolation(
                f"expected {len(self.factors)} coordinates, got {len(doc)}", path)
        return tuple([read_payload(f, d, f"{path}[{i}]")
                      for i, (f, d) in enumerate(zip(self.factors, doc))])

    def write(self, a):
        return [f.write(x) for f, x in zip(self.factors, a)]

    def split(self, a):
        return tuple([x for f, p in zip(self.factors, a) for x in f.split(p)])

    def join(self, parts):
        if len(parts) != len(self.blocks):
            raise ValueError(f"{len(parts)} parts for the {len(self.blocks)} blocks of {self!r}")
        rest = iter(parts)
        return tuple([f.join([next(rest) for _ in f.blocks]) for f in self.factors])


@record(frozen=True)
class ProductRing(_Componentwise):
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("products need at least two factors; use product_ring()")

    @cached_property
    def moduli(self):
        mods = [f.moduli for f in self.factors]
        return tuple(m for (m,) in mods) if all(len(m or ()) == 1 for m in mods) else None

    def show(self, a):
        return "(" + ", ".join(f.show(x) for f, x in zip(self.factors, a)) + ")"

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)


@record(frozen=True)
class MatrixRing(Descriptor):
    base: object
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("matrix size must be >= 1")

    def canonical(self, rows):
        s = self.base.scalar
        return tuple(tuple(s(v) for v in row) for row in rows)

    def from_int(self, k):
        d, z = self.base.scalar(k), self.base.scalar(0)
        return tuple(tuple(d if i == j else z for j in range(self.size))
                     for i in range(self.size))

    def add(self, A, B):
        f = self.base.add
        return tuple([tuple(map(f, ra, rb)) for ra, rb in zip(A, B)])

    def neg(self, A):
        f = self.base.neg
        return tuple([tuple(map(f, row)) for row in A])

    def mul(self, A, B):
        # entries are exact, so one reduction per summed entry is enough
        s, cols = self.base.scalar, list(zip(*B))
        return tuple([tuple([s(sum(map(operator.mul, row, col))) for col in cols])
                      for row in A])

    def is_unit(self, A):
        return mat_inv(self.base, A) is not None

    def inverse(self, A):
        return mat_inv(self.base, A)

    def cardinality(self):
        q = self.base.order
        return None if q is None else q ** (self.size ** 2)

    def is_commutative(self):
        return self.size == 1

    def elements(self):
        q, n = self.base.order, self.size
        if q is None:
            return super().elements()
        return [tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
                for flat in iproduct(range(q), repeat=n * n)]

    @cached_property
    def generators(self):
        """The matrix units, which span M_n(F_p) additively."""
        if self.base.order is None:
            raise InfiniteRing(f"{self!r} has an infinite carrier")
        n, z, o = self.size, self.base.scalar(0), self.base.scalar(1)
        return tuple(tuple(tuple(o if (r, c) == (i, j) else z for c in range(n))
                           for r in range(n))
                     for i in range(n) for j in range(n))

    def read(self, doc, path):
        return matrix_element(self, [[_scalar(self.base, v, f"{path}[{i}][{j}]")
                                      for j, v in enumerate(row)]
                                     for i, row in enumerate(doc)]).payload

    def write(self, A):
        return [[str(v) for v in row] for row in A]

    blocks = cached_property(lambda self: (self.size,))
    block_rings = cached_property(lambda self: (self,))

    def split(self, A):
        return (A,)

    def join(self, parts):
        (A,) = parts
        return A

    def keep(self, kept):
        return self if kept else ZeroRing()

    section_ring = keep
    # larger kept sets first, each size in lexicographic order
    cell_order = staticmethod(lambda key: (-len(key), sorted(key)))

    # as a block, a simple ring: a quotient keeps all of it (its size) or nothing
    def maps_onto(self, C):
        return C == self

    def quotient_order(self, k):
        return self.cardinality()

    def additive_order(self, A):
        return 1 if A == self.zero.payload else self.base.order

    def kept_by_image(self, m):
        return self.size if m > 1 else 0

    def kept_by_ideal(self, parts):
        return 0 if any(A != self.zero.payload for A in parts) else self.size

    def __repr__(self):
        return f"M{self.size}({self.base!r})"


@record(frozen=True)
class SemisimpleAlgebra(_Componentwise):
    base: object
    dims: tuple

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be a nonempty list of positive sizes")

    @cached_property
    def factors(self):
        """The matrix blocks; a payload is the tuple of their payloads."""
        return tuple(MatrixRing(self.base, d) for d in self.dims)

    blocks = cached_property(lambda self: self.dims)
    block_rings = cached_property(lambda self: self.factors)

    def keep(self, kept):
        dims = tuple(self.dims[s] for s in sorted(kept))
        return SemisimpleAlgebra(self.base, dims) if dims else ZeroRing()

    section_ring = keep
    cell_order = staticmethod(MatrixRing.cell_order)

    def elements(self):
        if self.base.order is None:
            return Descriptor.elements(self)
        return super().elements()

    def __repr__(self):
        return " x ".join(f"M{d}({self.base!r})" for d in self.dims)


def product_ring(factors):
    """Normalized product: no empty or single-factor products."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("product of zero factors is rejected")
    if len(factors) == 1:
        return factors[0]
    return ProductRing(factors)


def canonical_modular_product(mods):
    """Canonical descriptor for a product of Z/m factors (drop m = 1)."""
    mods = [m for m in mods if m > 1]
    if not mods:
        return ZeroRing()
    return product_ring(ModularRing(m) for m in mods)


def _scalar(base, v, path):
    """The rational v as a scalar of base, a SchemaViolation at path if it has
    none there; a JSON integer goes to base.scalar as it is, with no Fraction."""
    try:
        return base.scalar(v if type(v) is int else parse_rational(v, path))
    except ValueError as exc:
        raise SchemaViolation(str(exc), path)


def mat_inv(base, A):
    """Inverse matrix, or None if singular."""
    n = len(A)
    M = [list(row) + [base.scalar(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = base.inv(M[col][col])
        M[col] = [base.mul(v, inv) for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [base.add(a, base.neg(base.mul(f, b))) for a, b in zip(M[r], M[col])]
    return tuple(tuple(row[n:]) for row in M)


# ---------------------------------------------------------------------------
# elements

class RingElement:
    """An element: its owner descriptor and a canonical payload.

    A frozen value class written out by hand, with `__slots__`, because
    a session builds elements by the hundred thousand.  It behaves as
    `@record(frozen=True)` with the fields `owner` and `payload` would,
    and `repr` is the owner's rendering of the payload.
    """

    __slots__ = ("owner", "payload")

    def __init__(self, owner, payload):
        _set_owner(self, owner)
        _set_payload(self, payload)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.owner, self.payload) == (other.owner, other.payload)
        return NotImplemented

    def __hash__(self):
        return hash((self.owner, self.payload))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RingElement, (self.owner, self.payload)

    def __add__(self, other):
        return add(self.owner, self, other)

    def __mul__(self, other):
        return mul(self.owner, self, other)

    def __neg__(self):
        return neg(self.owner, self)

    def __sub__(self, other):
        return add(self.owner, self, -other)

    def __repr__(self):
        return element_str(self)


_set_owner = RingElement.owner.__set__
_set_payload = RingElement.payload.__set__


def _check_owner(r, *xs):
    for x in xs:
        if x.owner is not r and x.owner != r:
            raise ElementOwnershipMismatch(f"element of {x.owner!r} used in {r!r}")


def matrix_element(r, rows) -> RingElement:
    rows = r.canonical(rows)
    if len(rows) != r.size or any(len(row) != r.size for row in rows):
        raise ValueError("matrix shape mismatch")
    return RingElement(r, rows)


def element(r, payload) -> RingElement:
    return RingElement(r, r.canonical(payload))


def read_payload(r, doc, path):
    """r.read(doc, path), a doc of the wrong shape a SchemaViolation at path."""
    try:
        return r.read(doc, path)
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaViolation(f"bad element: {exc}", path)


def zero(r) -> RingElement:
    return r.zero


def one(r) -> RingElement:
    return r.one


def from_int(r, k: int) -> RingElement:
    """The image of the integer k under Z -> R."""
    return RingElement(r, r.from_int(k))


def add(r, x: RingElement, y: RingElement) -> RingElement:
    _check_owner(r, x, y)
    return RingElement(r, r.add(x.payload, y.payload))


def neg(r, x: RingElement) -> RingElement:
    _check_owner(r, x)
    return RingElement(r, r.neg(x.payload))


def mul(r, x: RingElement, y: RingElement) -> RingElement:
    _check_owner(r, x, y)
    return RingElement(r, r.mul(x.payload, y.payload))


def is_unit(r, x: RingElement) -> bool:
    """Two-sided invertibility, decided per class."""
    _check_owner(r, x)
    return r.is_unit(x.payload)


def inverse(r, x: RingElement):
    """A two-sided inverse, or None."""
    if not is_unit(r, x):
        return None
    return RingElement(r, r.inverse(x.payload))


def cardinality(r):
    """Number of elements, or None for infinite carriers."""
    return r.cardinality()


def is_finite(r) -> bool:
    return cardinality(r) is not None


def is_zero_ring(r) -> bool:
    return cardinality(r) == 1


def is_commutative(r) -> bool:
    return r.is_commutative()


def enumerate_elements(r):
    """All elements of a finite ring, each exactly once, in a fixed order."""
    return [RingElement(r, p) for p in r.elements()]


def generator_elements(r):
    """The additive generators of a finite ring (`Descriptor.generators`)."""
    return [RingElement(r, p) for p in r.generators]


def element_str(x: RingElement) -> str:
    return x.owner.show(x.payload)


# ---------------------------------------------------------------------------
# rings viewed as products of cyclic rings

def unit_part(n, c):
    """The largest divisor of n prime to c, so that Z/n[1/c] = Z/unit_part(n, c).

    Each pass divides out gcd(m, c), so the loop ends when m shares no
    prime with c.  unit_part(n, 0) is 1.
    """
    m, g = n, igcd(n, c)
    while g > 1:
        m //= g
        g = igcd(m, c)
    return m


def prime_factors(n):
    """The primes dividing n, in increasing order, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            n = unit_part(n, p)
        p += 1
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=4096)
def _local_factors(mods: tuple) -> tuple:
    """`Descriptor.local_factors` of the product of the Z/n for n in mods."""
    return tuple((j, p, n // unit_part(n, p))
                 for j, n in enumerate(mods) for p in prime_factors(n))


@lru_cache(maxsize=4096)
def unit_idempotent(n, c):
    """The idempotent of Z/n that is 1 on the prime-power parts of n prime to c
    and 0 on the others, which is the one idempotent among the powers of c.

    With m = unit_part(n, c), m and k = n / m are coprime, and by CRT
    k * (k^-1 mod m) is 1 mod m and 0 mod k.
    """
    m = unit_part(n, c)
    k = n // m
    return k * pow(k, -1, m) % n


# ---------------------------------------------------------------------------
# block rings: blocks, their units, kernels

def block_idempotent(r, kept) -> RingElement:
    """The central idempotent of a block ring (see `Descriptor.blocks`)
    that is 1 on the blocks in kept and 0 on the others."""
    parts = [B.from_int(int(s in kept)) for s, B in enumerate(r.block_rings)]
    return RingElement(r, r.join(parts))


def block_units(r) -> list:
    """The unit u_s = block_idempotent(r, {s}) of each block s of a block ring."""
    return [block_idempotent(r, {s}) for s in range(len(r.blocks))]


def kernel(*homs):
    """The kernel of the composite homs[0] . homs[1] . ... of validated homs
    between block rings, block by block; None when an end is not one.

    Every two-sided ideal of a block ring is the product of one ideal per
    block (CRT, Wedderburn-Artin): p^e Z/p^a in a local factor Z/p^a, 0 or
    all of a matrix block.  Entry s is the size (as in `blocks`) of what
    the quotient keeps of block s, p^e or the matrix size, and 0 when all
    of block s lies in the kernel.  So the kernel is 0 iff the entries are
    `source.blocks`, and a sum of two kernels keeps the smaller entry.

    With block maps, block s feeds each target block l with
    block_map[l] = s by x -> x mod q_l (or the identity of a matrix
    block), so entry s is the largest such q_l.  Otherwise entry s is read
    off the image t of the unit u_s (`block_units`): k u_s lies in the
    kernel iff k t = 0, so block s answers from the additive order of t,
    the largest order of its parts in the target's blocks.  O(blocks)
    lookups or evaluations."""
    source, target = homs[-1].source, homs[0].target
    if source.blocks is None or target.blocks is None:
        return None
    kept = [0] * len(source.blocks)
    maps = [h.block_map for h in homs]
    if None not in maps:
        for l, q in enumerate(target.blocks):
            s = l
            for bmap in maps:
                s = bmap[s]
            kept[s] = max(kept[s], q)
        return tuple(kept)
    for s, (B, t) in enumerate(zip(source.block_rings, block_units(source))):
        for h in reversed(homs):
            t = h(t)
        orders = [C.additive_order(x) for C, x in zip(target.block_rings, target.split(t.payload))]
        kept[s] = B.kept_by_image(max(orders, default=1))
    return tuple(kept)


# ---------------------------------------------------------------------------
# homomorphism rules

class Rule:
    """How a hom computes: `apply(h, x)` is h(x).

    Every rule's `check(h)` is complete: it raises NotAHomomorphism exactly
    when the rule does not compute a unital ring hom h.source -> h.target,
    so it is the hom's whole certificate (`hom_validate` runs nothing
    else).  A `TableRule`'s check reads its table against the source's
    generators and looks up the images of 1 and 0; every other check looks
    at the descriptors and the rule's data only, never at the elements of
    the source, and each rule's docstring says why it keeps 1 (0 -> 0
    follows from additivity).  A table built by `hom_compose` from
    validated factors is certified as built and never checked.  `table`
    is the lookup table of a TableRule and None for every other rule.
    Every hom with a block map that the library builds is a `BlockRule`,
    an `IdentityRule` or a `ToZeroRule`, and every other finite hom it
    builds is a table; `block_map(h)` is the block map of
    a certified hom h between block rings when the rule alone fixes it (see
    `RingHom.block_map`), else None.  A rule that `keeps_payloads` maps each
    payload to itself in a larger ring, so a hom after it applies the first.
    """

    table = None
    keeps_payloads = False

    def block_map(self, h):
        return None


@record(frozen=True)
class TableRule(Rule):
    pairs: tuple  # sorted tuple of (source payload, target payload)
    table: dict = private()

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.pairs))

    def check(self, h):
        """Every element is a sum of generators, so the table is additive
        iff h(x + g) = h(x) + h(g) for every element x and generator g, and
        then h(xy) and h(x)h(y) are both biadditive, so it is multiplicative
        iff they agree on every pair of generators.  O(|R| k + k^2) lookups
        for k generators, where a check on every pair costs O(|R|^2).  The
        laws leave the image of 1 free (a table may send 1 to 0), so the
        images of 1 and 0 are looked up last (IdentityNotPreserved for 1)."""
        source, target = h.source, h.target
        gens = generator_elements(source)
        try:
            for x in enumerate_elements(source):
                for g in gens:
                    if h(x + g) != h(x) + h(g):
                        raise NotAHomomorphism(
                            f"additivity fails at ({x!r}, {g!r})", witness=(x, g))
            for g in gens:
                for g2 in gens:
                    if h(g * g2) != h(g) * h(g2):
                        raise NotAHomomorphism(
                            f"multiplicativity fails at ({g!r}, {g2!r})", witness=(g, g2))
            if h(source.one) != target.one:
                raise IdentityNotPreserved(f"1 -> {h(source.one)!r}", witness=source.one)
            if h(source.zero) != target.zero:
                raise NotAHomomorphism("0 not preserved", witness=source.zero)
        except KeyError as exc:
            raise NotAHomomorphism(f"the table has no image of {exc}") from None


@record(frozen=True)
class IdentityRule(Rule):
    """R -> R, x -> x: it keeps 1."""

    def apply(self, h, x):
        return RingElement(h.target, x.payload)

    def check(self, h):
        if h.source != h.target:
            raise NotAHomomorphism("identity rule between distinct descriptors")

    def block_map(self, h):
        return tuple(range(len(h.source.blocks)))


@record(frozen=True)
class ToZeroRule(Rule):
    """R -> 0, the collapse: in the zero ring 1 = 0, so it keeps 1."""

    def apply(self, h, x):
        return zero(h.target)

    def check(self, h):
        if not is_zero_ring(h.target):
            raise NotAHomomorphism("collapse rule into a nonzero ring")

    def block_map(self, h):
        return ()


@record(frozen=True)
class BlockRule(Rule):
    """Source block feeds[l] onto target block l, canonically (see
    `RingHom.block_map`): the part of x in block feeds[l] (`split`) is the
    part of h(x) in block l (`join`), which reduces it mod p^c on a local
    factor Z/p^c and keeps it on a matrix block.  A map into a product is a
    hom iff each block is, and a block is one exactly when the target's
    prime power divides the source's (so they share their prime), or both
    are matrix blocks of one size and base; into the zero ring, with no
    feed, it is the collapse.  So the O(blocks) `check` is complete.  It
    keeps 1: each block's 1 goes to the target block's 1, and the 1 of a
    modulus is the CRT sum of the 1s of its local factors.  Feeds index
    the source blocks as Python does, negative ones too.
    """
    feeds: tuple

    def apply(self, h, x):
        parts = h.source.split(x.payload)
        return RingElement(h.target, h.target.join([parts[s] for s in self.feeds]))

    def check(self, h):
        S, T = h.source, h.target
        try:
            fits = S.blocks is not None and len(self.feeds) == len(T.blocks) and all(
                S.block_rings[s].maps_onto(C) for s, C in zip(self.feeds, T.block_rings))
        except (IndexError, TypeError):
            fits = False
        if not fits:
            raise NotAHomomorphism(f"{self} maps no block of {S!r} onto one of {T!r}")

    def block_map(self, h):
        k = len(h.source.blocks)
        return tuple([s % k for s in self.feeds])


class RingHom:
    """A ring homomorphism with a validation certificate.

    A validated hom out of a finite ring is additive, so it is fixed by
    its `images` of the source's additive generators (`generators`: the
    e_i of a product of cyclic rings, the matrix units of each block,
    nothing for the zero ring).  Two validated homs with the same source
    and target are equal iff their images are.  If either side is
    unvalidated they compare by full table, so a validated hom still
    compares correctly with an oracle table.  The hash is always the
    images (equal tables give equal images), so it does not change when
    a hom is validated or its table is filled in.  Homs out of infinite
    rings compare by rule.  Where a hom has a `block_map`, readers compare,
    compose and invert it by lookups on that map.  `validated` is set only
    by `hom_validate` (its rule's check passed) and `hom_compose` (a
    composite of validated homs).  A hom may be shared (`quotient_hom`
    returns one per pair of moduli), so nothing changes a hom after it is
    built but its caches and that flag.
    """

    validated = False

    def __init__(self, source, target, rule):
        self.source = source
        self.target = target
        self.rule = rule
        self._table = rule.table

    def __call__(self, x: RingElement) -> RingElement:
        if x.owner is not self.source and x.owner != self.source:
            raise ElementOwnershipMismatch(f"{x!r} is not in {self.source!r}")
        if self._table is not None:
            return RingElement(self.target, self._table[x.payload])
        return self.rule.apply(self, x)

    # -- canonicalization ---------------------------------------------------

    def as_table(self):
        """Materialize and cache the full table (finite sources only)."""
        if self._table is None:
            if not is_finite(self.source):
                raise InfiniteRing(f"{self.source!r} is infinite")
            self._table = {
                x.payload: self.rule.apply(self, x).payload
                for x in enumerate_elements(self.source)
            }
        return self._table

    @cached_property
    def images(self):
        """The image payloads of the source's generators (finite sources only)."""
        return tuple(self(x).payload for x in generator_elements(self.source))

    @cached_property
    def block_map(self):
        """Entry l is the source block (`Descriptor.blocks`) that feeds
        target block l, or None.  The hom maps that block onto block l
        canonically (x -> x mod q^c, or the identity of a matrix block), so
        it is fixed by this map, and (g . f).block_map[l] =
        f.block_map[g.block_map[l]].  The hom is validated first.  The rule
        gives the map where it fixes it (`Rule.block_map`), over any base
        field, as a `BlockRule` is built from it.  Otherwise the map is read
        off the images of the source's block units (`block_units`): they
        are orthogonal idempotents summing to 1, so block l can only be fed
        by the one s whose unit goes to 1 in it, and the map exists iff the
        `BlockRule` of those feeds passes its check and has the hom's
        images, as an additive map is fixed by the generators.  Between
        products of cyclic rings it always exists: a local factor Z/p^c has
        no idempotent but 0 and 1, so exactly one u_s goes to 1 in it, and
        q_s u_s = 0 makes p^c divide q_s.  Between matrix blocks it exists
        on 1x1 blocks, as F_p has no other automorphism, but a table may
        twist a larger block by an inner automorphism, which no block map
        records, and a hom between kinds of block ring has none.
        """
        source, target = self.source, self.target
        if source.blocks is None or target.blocks is None:
            return None
        bmap = (self if self.validated else hom_validate(self)).rule.block_map(self)
        if bmap is not None:
            return bmap
        images = [target.split(self(u).payload) for u in block_units(source)]
        feeds = tuple(next((s for s, parts in enumerate(images) if parts[l] == B.from_int(1)), 0)
                      for l, B in enumerate(target.block_rings))
        candidate = RingHom(source, target, BlockRule(feeds))
        try:
            hom_validate(candidate)
        except NotAHomomorphism:
            return None
        return feeds if candidate.images == self.images else None

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, RingHom):
            return False
        if (self.source, self.target) != (other.source, other.target):
            return False
        if not is_finite(self.source):
            return self.rule == other.rule
        if self.validated and other.validated:
            return self.images == other.images
        return self.as_table() == other.as_table()

    def __hash__(self):
        if is_finite(self.source):
            return hash((self.source, self.target, self.images))
        return hash((self.source, self.target, self.rule))

    def __repr__(self):
        return f"RingHom({self.source!r} -> {self.target!r}, {self.rule})"


# ---------------------------------------------------------------------------
# construction helpers

def identity_hom(r) -> RingHom:
    return hom_validate(RingHom(r, r, IdentityRule()))


def to_zero_hom(r, z=None) -> RingHom:
    return hom_validate(RingHom(r, z if z is not None else ZeroRing(), ToZeroRule()))


# The bound of each memo of spaces, morphisms and quotient homs; the sizes
# it rests on are given in `sheafspec`.
CACHE_BOUND = 32


def quotient_hom(n: int, m: int) -> RingHom:
    """Z/n -> Z/m, x -> x mod m, for positive ints m dividing n: Z/m keeps
    the local factors of its primes.

    The hom is shared: every call with one (n, m) returns the same
    validated RingHom, from a memo of at most `CACHE_BOUND` (32) pairs
    that `sheafspec.clear_caches()` empties, so its `images` and
    `block_map` are computed once per session.  Its only mutable state is
    caches and the `validated` flag, which is never unset.  The moduli are
    checked before the memo: a bool is not a modulus (True == 1 would
    share the entry of 1), and m = 0 divides no n.
    """
    for k in (n, m):
        if type(k) is not int or k < 1:
            raise NotAHomomorphism(f"a quotient Z/n -> Z/m needs positive int moduli, got {k!r}")
    if n % m:
        raise NotAHomomorphism(f"{m} does not divide {n}")
    return _quotient_hom(n, m)


@lru_cache(maxsize=CACHE_BOUND)
def _quotient_hom(n: int, m: int) -> RingHom:
    source = ModularRing(n)
    feeds = tuple(s for s, (_i, p, _q) in enumerate(source.local_factors) if m % p == 0)
    return hom_validate(RingHom(source, ModularRing(m), BlockRule(feeds)))


def table_hom(source, target, mapping) -> RingHom:
    pairs = tuple(sorted((x.payload, y.payload) for x, y in mapping.items()))
    return RingHom(source, target, TableRule(pairs))


def hom_from_callable(source, target, fn) -> RingHom:
    mapping = {x: fn(x) for x in enumerate_elements(source)}
    return table_hom(source, target, mapping)


# ---------------------------------------------------------------------------
# validation and composition

def hom_validate(h: RingHom) -> RingHom:
    """Certify that h is a ring hom and set its `validated` flag; returns h.

    The certificate is the rule's complete `check(h)` and nothing else
    (see `Rule`): only a `TableRule` evaluates elements, and `apply` never
    runs on a shape its rule was not built for.

    Units need no check of their own: a map that keeps 1 and products
    keeps units, because uv = vu = 1 gives h(u)h(v) = h(v)h(u) = 1.

    Raises NotAHomomorphism (with a witness where there is one) or its
    subclass IdentityNotPreserved.
    """
    if not h.validated:
        h.rule.check(h)
        h.validated = True
    return h


def hom_compose(g: RingHom, f: RingHom) -> RingHom:
    """g after f, validated.

    An identity factor gives the other factor itself, validated, a
    collapse gives the collapse, and two `BlockRule`s, or two validated
    homs with block maps, compose by index into a `BlockRule`.  A
    composite of ring homs is a ring hom, so any other finite composite of
    validated factors is a table certified as built.  A finite composite
    of unvalidated factors is a table, checked by `TableRule.check`.
    """
    if f.target != g.source:
        raise CompositionMismatch(f"{f.target!r} != {g.source!r}")
    if isinstance(f.rule, IdentityRule):
        hom_validate(f)
        return hom_validate(g)
    if isinstance(g.rule, IdentityRule):
        hom_validate(g)
        return hom_validate(f)
    if isinstance(f.rule, ToZeroRule) or isinstance(g.rule, ToZeroRule):
        return to_zero_hom(f.source, g.target)
    if ((isinstance(f.rule, BlockRule) and isinstance(g.rule, BlockRule))
            or (f.validated and g.validated and None not in (f.block_map, g.block_map))):
        feeds = tuple(f.block_map[s] for s in g.block_map)
        return hom_validate(RingHom(f.source, g.target, BlockRule(feeds)))
    if is_finite(f.source):
        comp = hom_from_callable(f.source, g.target, lambda x: g(f(x)))
        if f.validated and g.validated:
            comp.validated = True
            return comp
        return hom_validate(comp)
    if g.rule.keeps_payloads:
        # g keeps payloads: g after f is f's rule into g's target, checked by that rule
        return hom_validate(RingHom(f.source, g.target, f.rule))
    raise UnsupportedClass(f"cannot compose {f.rule!r} with {g.rule!r}")


# ---------------------------------------------------------------------------
# hom enumeration (finite commutative classes)

def all_homs(source, target) -> tuple:
    """Every unital ring homomorphism source -> target, validated, in the
    order of their `images`.

    Supported for the zero ring and finite products of cyclic rings.  Such
    a hom is fixed by its block map (see `RingHom.block_map`), and block
    Z/q of the target may be fed by any block Z/q_s of the source with q
    dividing q_s (then q_s is a power of q's prime), so the homs are the
    `BlockRule`s of the product of those choices.
    """
    if is_zero_ring(target):
        return (to_zero_hom(source, target),)
    if is_zero_ring(source):
        return ()
    if source.moduli is None or target.moduli is None:
        raise UnsupportedClass(
            f"hom enumeration needs products of cyclic rings, got {source!r} -> {target!r}")
    choices = [[s for s, qs in enumerate(source.blocks) if qs % q == 0] for q in target.blocks]
    homs = [hom_validate(RingHom(source, target, BlockRule(feeds)))
            for feeds in iproduct(*choices)]
    return tuple(sorted(homs, key=lambda h: h.images))
