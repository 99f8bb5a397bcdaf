"""Normal-form arithmetic for skew Laurent polynomials.

Variables x_1 < ... < x_n quasi-commute: x_i x_j = lam(i, j) x_j x_i for
i < j, with nonzero rational lam(i, j).  A term is stored as an integer
exponent vector a meaning the ordered word x_1^{a_1} ... x_n^{a_n}; a sum
of terms is a mapping from exponent vectors to nonzero coefficients.

Reordering the concatenation of two ordered words only transposes pairs
(x_i from the left factor, x_j from the right factor) with j < i, so

    x^a * x^b = twist(a, b) * x^(a+b),
    twist(a, b) = prod over j < i of lam(j, i) ** (-a_i * b_j).

Variables are 0-indexed here; lam is a mapping {(i, j): Fraction} for
i < j (0-based).  On these terms sit the descriptor of a skew Laurent ring,
`SkewLaurentRing`, whose payloads are canonical term tuples, and the rule
of its localization maps, `SkewExpandRule`.  Only a call on a skew ring
imports this module, so it imports `fractions` at the top.
"""

from fractions import Fraction
from functools import cached_property

from .errors import (
    NonMonomialSkewSubset,
    NotAHomomorphism,
    SchemaViolation,
    parse_int,
    parse_rational,
)
from .records import record
from .rings import Descriptor, RingElement, Rule, ZeroRing

ExpVec = tuple  # tuple of int, one slot per variable
Terms = dict    # ExpVec -> Fraction, no zero values


def twist(lam: dict, a: ExpVec, b: ExpVec):
    """Scalar picked up when normalizing x^a * x^b: the product over j < i
    of lam[(j, i)] ** (-a_i b_j), accumulated as one integer numerator and
    denominator and reduced once; an int when the denominator is 1."""
    num = den = 1
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(i):
            e = -ai * b[j]
            if e == 0:
                continue
            q = lam[(j, i)]
            if e > 0:
                num *= q.numerator ** e
                den *= q.denominator ** e
            else:
                num *= q.denominator ** -e
                den *= q.numerator ** -e
    return num if den == 1 else Fraction(num, den)


def term_mul(lam: dict, a: ExpVec, ca, b: ExpVec, cb):
    exp = tuple(x + y for x, y in zip(a, b))
    return exp, ca * cb * twist(lam, a, b)


def add(p: Terms, q: Terms) -> Terms:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def neg(p: Terms) -> Terms:
    return {e: -c for e, c in p.items()}


def mul(lam: dict, p: Terms, q: Terms) -> Terms:
    out: Terms = {}
    for a, ca in p.items():
        for b, cb in q.items():
            e, c = term_mul(lam, a, ca, b, cb)
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def monomial(nvars: int, exps, coeff=1) -> Terms:
    c = Fraction(coeff)
    if c == 0:
        return {}
    e = tuple(exps)
    if len(e) != nvars:
        raise ValueError(f"exponent {e} has {len(e)} entries, not {nvars}")
    return {e: c}


def variable(nvars: int, i: int) -> Terms:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}


def total_degree_terms(p: Terms):
    """Set of total degrees present in p."""
    return {sum(e) for e in p}


def is_homogeneous(p: Terms) -> bool:
    return len(total_degree_terms(p)) <= 1


def degree(p: Terms):
    """Total degree of a homogeneous nonzero p."""
    ds = total_degree_terms(p)
    if len(ds) != 1:
        raise ValueError("not homogeneous")
    return ds.pop()


def in_cone(e: ExpVec, inverted: frozenset) -> bool:
    """Exponent vector lies in the cone where only inverted slots may be negative."""
    return all(v >= 0 or i in inverted for i, v in enumerate(e))


def canonical(p: Terms) -> tuple:
    """Hashable canonical form: sorted tuple of (exponents, coefficient)."""
    return tuple(sorted(p.items()))


def from_canonical(items) -> Terms:
    """The terms of a payload: a canonical tuple, or a dict read as its
    items; zero coefficients are dropped."""
    if isinstance(items, dict):
        items = items.items()
    return {tuple(e): Fraction(c) for e, c in items if Fraction(c) != 0}


def to_string(p: Terms) -> str:
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items()):
        vs = [f"x{i + 1}^{v}" if v != 1 else f"x{i + 1}" for i, v in enumerate(e) if v]
        body = "*".join(vs)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the ring, whose methods call the functions above of the same names

@record(frozen=True)
class SkewLaurentRing(Descriptor):
    nvars: int
    lam: tuple  # sorted tuple of ((i, j), Fraction) for 0 <= i < j < nvars
    inverted: frozenset

    def __post_init__(self):
        if self.nvars < 2:
            raise ValueError("skew rings need at least two variables")
        seen = dict(self.lam)
        for i, j in seen:
            if not 0 <= i < j < self.nvars:
                raise ValueError(
                    f"commutation scalar index ({i}, {j}) outside 0 <= i < j < {self.nvars}")
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                v = seen.get((i, j))
                if v is None or Fraction(v) == 0:
                    raise ValueError(f"missing or zero commutation scalar for ({i}, {j})")
        if any(i < 0 or i >= self.nvars for i in self.inverted):
            raise ValueError("inverted index out of range")

    lam_map = cached_property(lambda self: dict(self.lam))  # (i, j) -> scalar, for `mul`

    def canonical(self, payload):
        terms = from_canonical(payload)
        for e in terms:
            if not in_cone(e, self.inverted):
                raise ValueError(f"exponent {e} outside the inverted cone of {self!r}")
        return canonical(terms)

    def from_int(self, k):
        return canonical(monomial(self.nvars, (0,) * self.nvars, k))

    def add(self, a, b):
        return canonical(add(from_canonical(a), from_canonical(b)))

    def neg(self, a):
        return canonical(neg(from_canonical(a)))

    def mul(self, a, b):
        return canonical(mul(self.lam_map, from_canonical(a), from_canonical(b)))

    def is_unit(self, a):
        terms = from_canonical(a)
        if len(terms) != 1:
            return False
        (e, c), = terms.items()
        return c != 0 and all(v == 0 or i in self.inverted for i, v in enumerate(e))

    def inverse(self, a):
        (e, c), = from_canonical(a).items()
        einv = tuple(-v for v in e)
        t = twist(self.lam_map, e, einv)
        return self.canonical({einv: 1 / (c * t)})

    def is_commutative(self):
        return all(v == 1 for _, v in self.lam)

    def show(self, a):
        return to_string(from_canonical(a))

    def read_terms(self, doc, path) -> Terms:
        """The terms that [[exps, coeff], ...] writes, term k read at path[k]."""
        terms = {}
        for k, (exps, coeff) in enumerate(doc):
            at = f"{path}[{k}]"
            if len(exps) != self.nvars:
                raise SchemaViolation(f"exponent vector {exps!r} needs {self.nvars} entries", at)
            terms[tuple(parse_int(e, at) for e in exps)] = parse_rational(coeff, at)
        return terms

    def read(self, doc, path):
        return self.canonical(self.read_terms(doc, path))

    def write(self, a):
        return [[list(e), str(c)] for e, c in a]

    def localized(self, E):
        """This ring with the variables of the monomials in E inverted, or 0 if 0 is in E."""
        inverted = set(self.inverted)
        for a in E:
            terms = from_canonical(a.payload)
            if not terms:
                return ZeroRing(), None
            if len(terms) != 1:
                raise NonMonomialSkewSubset(f"{a!r} is not a scalar multiple of a monomial")
            (e, _c), = terms.items()
            inverted.update(i for i, v in enumerate(e) if v != 0)
        return SkewLaurentRing(self.nvars, self.lam, frozenset(inverted)), SkewExpandRule()

    def __repr__(self):
        inv = "".join(f",x{i + 1}^-1" for i in sorted(self.inverted))
        return f"Q_lam[x1..x{self.nvars}{inv}]"


def skew_ring(nvars, lam_entries, inverted=()) -> SkewLaurentRing:
    """Build a skew Laurent descriptor from {(i, j): scalar} with i < j."""
    lam = tuple(sorted(((i, j), Fraction(v))
                       for (i, j), v in dict(lam_entries).items()))
    return SkewLaurentRing(nvars, lam, frozenset(inverted))


@record(frozen=True)
class SkewExpandRule(Rule):
    """Skew ring into the same ring with a larger inverted cone; it keeps
    payloads, so 1 -> 1."""

    keeps_payloads = True

    def apply(self, h, x):
        return RingElement(h.target, x.payload)

    def check(self, h):
        r, t = h.source, h.target
        if not (isinstance(r, SkewLaurentRing) and isinstance(t, SkewLaurentRing)
                and r.nvars == t.nvars and r.lam == t.lam and r.inverted <= t.inverted):
            raise NotAHomomorphism("cone expansion shape mismatch")
