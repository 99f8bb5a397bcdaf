"""Dense univariate polynomials over the rationals, and the ring Q[x].

Coefficients are ascending tuples of Fraction with no trailing zeros, so
structural equality is arithmetic equality.  The zero polynomial is the
empty tuple.  On them sit the descriptors of Q[x] and its localizations
with the rules of their maps, the lazy semilattice of Q[x] and its
symbolic point model.  Only a call on Q[x] or a skew Laurent ring imports
this module, so it imports `fractions` at the top.
"""

from fractions import Fraction
from math import isqrt, lcm

from .errors import NotAHomomorphism, NotIrreducibleCertificate, parse_rational
from .records import record
from .rings import Descriptor, RingElement, Rule, ZeroRing, element, prime_factors

Poly = tuple  # tuple of Fraction, ascending degree


def poly(coeffs) -> Poly:
    """Build a normalized polynomial from an iterable of rational-likes."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


ZERO: Poly = ()
ONE: Poly = (Fraction(1),)  # an int 1 would make `divmod_` and `monic` divide in floats


def deg(p: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(p: Poly, c) -> Poly:
    """p times the rational c; the coefficients of p keep the product exact."""
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def divmod_(p: Poly, q: Poly):
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quot = [0] * max(0, len(p) - len(q) + 1)
    dq, lead = deg(q), q[-1]
    while len(r) - 1 >= dq and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        c = r[-1] / lead
        quot[k] = c
        for i, b in enumerate(q):
            r[i + k] -= c * b
    return poly(quot), poly(r)


def divides(p: Poly, q: Poly) -> bool:
    """p | q in Q[x].  Zero divides only zero."""
    if is_zero(p):
        return is_zero(q)
    return is_zero(divmod_(q, p)[1])


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return ZERO
    return scale(p, 1 / p[-1])


def gcd(p: Poly, q: Poly) -> Poly:
    while not is_zero(q):
        p, q = q, divmod_(p, q)[1]
    return monic(p)


def derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:])


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p; 0 for p = 0.

    Units normalize to 1.  Computed as p / gcd(p, p'), which is exact over Q.
    """
    if is_zero(p):
        return ZERO
    if deg(p) == 0:
        return poly([1])
    g = gcd(p, derivative(p))
    q, r = divmod_(p, g)
    if not is_zero(r):
        raise ArithmeticError(f"gcd(p, p') = {g} leaves the remainder {r} on p = {p}")
    return monic(q)


def _divisors(n: int) -> list:
    """The positive divisors of n != 0, prime by prime: the divisors so far
    and their products with the powers of the next prime that divide n."""
    n, divs = abs(n), [1]
    for p in prime_factors(n):
        divs += [d * p ** e for d in divs for e in range(1, n.bit_length()) if n % p ** e == 0]
    return divs


def is_irreducible_low_degree(p: Poly) -> bool:
    """Irreducibility over Q for degree 1..3: a factor would be linear, so
    p of degree 2 or 3 is irreducible iff it has no rational root.  The
    integer multiple c of a quadratic has one iff its discriminant is a
    square, and a root a/b in lowest terms of a cubic has a dividing c's
    constant term and b its leading coefficient (rational root test)."""
    d = deg(p)
    if d not in (1, 2, 3):
        raise ValueError("only degrees 1..3 are decided here")
    if d == 1 or p[0] == 0:
        return d == 1
    den = lcm(*[c.denominator for c in p])
    c = [int(v * den) for v in p]
    if d == 2:
        disc = c[1] ** 2 - 4 * c[0] * c[2]
        return disc < 0 or isqrt(disc) ** 2 != disc
    return not any(sum(v * (s * a) ** i * b ** (3 - i) for i, v in enumerate(c)) == 0
                   for a in _divisors(c[0]) for b in _divisors(c[-1]) for s in (1, -1))


def to_string(p: Poly) -> str:
    if is_zero(p):
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the ring Q[x] and its localizations

@record(frozen=True)
class UnivariatePolyRing(Descriptor):
    canonical = staticmethod(poly)
    add = staticmethod(add)
    neg = staticmethod(neg)
    mul = staticmethod(mul)
    show = staticmethod(to_string)

    def from_int(self, k):
        return poly([k])

    def is_unit(self, a):
        return deg(a) == 0

    def inverse(self, a):
        return poly([1 / a[0]])

    def is_commutative(self):
        return True

    def read(self, doc, path):
        return poly([parse_rational(v, f"{path}[{i}]") for i, v in enumerate(doc)])

    def write(self, a):
        return [str(c) for c in a]

    def localized(self, E):
        """Q[x][1/g] for g the squarefree part of prod(E), or 0 when prod(E) = 0."""
        f = ONE
        for a in E:
            f = mul(f, a.payload)
        if is_zero(f):
            return ZeroRing(), None
        return LocalizedPolyRing(squarefree_part(f)), PolyInsertRule()

    def lazy_semilattice(self):
        return PidLattice(self)

    def __repr__(self):
        return "Q[x]"


@record(frozen=True)
class LocalizedPolyRing(Descriptor):
    """Q[x] with a squarefree monic denominator inverted (symbolic fraction class)."""

    denominator: tuple  # qpoly, squarefree monic, degree >= 1

    def canonical(self, payload):
        num, den = payload
        return _locpoly_normalize(poly(num), poly(den))

    def from_int(self, k):
        return (poly([k]), ONE)

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return _locpoly_normalize(add(mul(n1, d2), mul(n2, d1)), mul(d1, d2))

    def neg(self, a):
        num, den = a
        return (neg(num), den)

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return _locpoly_normalize(mul(n1, n2), mul(d1, d2))

    def is_unit(self, a):
        num, _den = a
        return not is_zero(num) and divides(squarefree_part(num), self.denominator)

    def inverse(self, a):
        num, den = a
        return self.canonical((den, num))

    def is_commutative(self):
        return True

    def localized(self, E):
        """Q[x][1/g'] for g' the squarefree part of g prod(E), or 0 when prod(E) = 0."""
        sf = self.denominator
        for a in E:
            num, _den = a.payload
            if is_zero(num):
                return ZeroRing(), None
            sf = mul(sf, num)
        return LocalizedPolyRing(squarefree_part(sf)), PolyFracRule()

    def show(self, a):
        num, den = a
        if den == ONE:
            return to_string(num)
        return f"({to_string(num)})/({to_string(den)})"

    def __repr__(self):
        return f"Q[x][1/({to_string(self.denominator)})]"


def _locpoly_normalize(num, den):
    if is_zero(den):
        raise ZeroDivisionError("zero denominator")
    if is_zero(num):
        return (ZERO, ONE)
    g = gcd(num, den)
    num = divmod_(num, g)[0]
    den = divmod_(den, g)[0]
    lead = den[-1]
    return (scale(num, 1 / lead), scale(den, 1 / lead))


@record(frozen=True)
class PolyInsertRule(Rule):
    """Q[x] -> Q[x][1/g], p -> p/1, so 1 -> 1/1."""

    def apply(self, h, x):
        return RingElement(h.target, (x.payload, ONE))

    def check(self, h):
        if not (isinstance(h.source, UnivariatePolyRing)
                and isinstance(h.target, LocalizedPolyRing)):
            raise NotAHomomorphism("insertion rule shape mismatch")


@record(frozen=True)
class PolyFracRule(Rule):
    """Q[x][1/g1] -> Q[x][1/g2] (requires sf(g1) | g2): identity on
    fractions, so 1 -> 1/1."""

    keeps_payloads = True

    def apply(self, h, x):
        return element(h.target, x.payload)

    def check(self, h):
        if not divides(squarefree_part(h.source.denominator), h.target.denominator):
            raise NotAHomomorphism("denominator does not invert in the target cell")


# ---------------------------------------------------------------------------
# the lazy lattice and point model for Q[x]

class PidLattice:
    """Lazy localization semilattice of Q[x].

    A cell is named by the monic squarefree part of the product of its
    subset (1 for the bottom, the zero polynomial for the top); order is
    squarefree divisibility and joins multiply the squarefree parts.
    """

    def __init__(self, ring: UnivariatePolyRing):
        self.ring = ring

    def leq(self, h: RingElement, g: RingElement) -> bool:
        h, g = squarefree_part(h.payload), squarefree_part(g.payload)
        return is_zero(g) or (not is_zero(h) and divides(h, g))


@record(frozen=True)
class PidPoint:
    """A point of the soberification of the Q[x] lattice.

    kind 'generic' is the empty set of primes; 'zero_ideal' is the point
    made of the zero ideal alone; 'prime_set' carries monic irreducibles
    cutting out maximal ideals.
    """

    kind: str                      # 'generic' | 'zero_ideal' | 'prime_set'
    primes: tuple = ()             # monic irreducible polynomials (qpoly tuples)

    def __post_init__(self):
        if self.kind not in ("generic", "zero_ideal", "prime_set"):
            raise NotIrreducibleCertificate(f"no point kind {self.kind!r}")
        if self.kind == "prime_set":
            if not self.primes:
                raise NotIrreducibleCertificate("an empty prime list is the generic point")
            seen = set()
            for p in self.primes:
                if deg(p) < 1 or p[-1] != 1:
                    raise NotIrreducibleCertificate(
                        f"{to_string(p)} is not monic nonconstant")
                if p in seen:
                    raise NotIrreducibleCertificate("duplicate prime listed")
                seen.add(p)
                if deg(p) <= 3 and not is_irreducible_low_degree(p):
                    raise NotIrreducibleCertificate(
                        f"{to_string(p)} factors over Q")


def prime_set_point(polys) -> PidPoint:
    return PidPoint("prime_set", tuple(monic(poly(p)) for p in polys))


def pid_point_in_open(p: PidPoint, f) -> bool:
    """Membership of the point in the basic open named by the polynomial f.

    For f = 0 the basic open is just the generic point; otherwise a point
    is inside iff none of its primes divides f.
    """
    f = poly(f) if not isinstance(f, tuple) else f
    if is_zero(f):
        return p.kind == "generic"
    if p.kind in ("generic", "zero_ideal"):
        return True
    return not any(divides(q, f) for q in p.primes)
