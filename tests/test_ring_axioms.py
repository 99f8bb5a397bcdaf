"""The ring axioms on seeded random elements of every descriptor class.

Each class owns its payload arithmetic (`rings.Descriptor`), so each is
checked on its own: associativity and commutativity of addition,
associativity of multiplication, both distributive laws, `zero` and `one`
as identities, additive inverses and subtraction, and two-sided inverses
of units.  Q[x] and Q[x][1/g] are also compared with sympy, term by term.
"""

import random
from fractions import Fraction

import pytest

from ncspec import qpoly
from ncspec import rings as rg
from ncspec.rings import (
    LocalizedPolyRing,
    MatrixRing,
    ModularRing,
    PrimeField,
    ProductRing,
    Rationals,
    SemisimpleAlgebra,
    UnivariatePolyRing,
    ZeroRing,
)

F2, F3, Q = PrimeField(2), PrimeField(3), Rationals()
G = qpoly.poly([-1, 0, 1])      # x^2 - 1, squarefree and monic
SKEW = rg.skew_ring(3, {(0, 1): 2, (0, 2): Fraction(-1, 3), (1, 2): 5}, inverted={0, 2})


def fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def scalar(base, rng):
    return fraction(rng) if base.order is None else rng.randrange(base.order)


def poly(rng, degree=3):
    return qpoly.poly([fraction(rng) for _ in range(rng.randint(0, degree + 1))])


def payload(r, rng):
    """A random raw payload of r, canonicalized by `rings.element`."""
    if isinstance(r, ZeroRing):
        return 0
    if isinstance(r, ModularRing):
        return rng.randrange(r.n)
    if isinstance(r, (ProductRing, SemisimpleAlgebra)):
        return tuple(payload(f, rng) for f in r.factors)
    if isinstance(r, MatrixRing):
        return [[scalar(r.base, rng) for _ in range(r.size)] for _ in range(r.size)]
    if isinstance(r, UnivariatePolyRing):
        return poly(rng)
    if isinstance(r, LocalizedPolyRing):
        den = qpoly.ONE
        for _ in range(rng.randint(0, 2)):
            den = qpoly.mul(den, r.denominator)
        return poly(rng), den
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(-2 if i in r.inverted else 0, 2) for i in range(r.nvars))
        terms[e] = terms.get(e, 0) + rng.choice((1, -1)) * rng.randint(1, 5)
    return {e: c for e, c in terms.items() if c}


RINGS = [
    ZeroRing(), ModularRing(12), ProductRing((ModularRing(4), ModularRing(6))),
    MatrixRing(F3, 2), MatrixRing(Q, 2), SemisimpleAlgebra(F2, (1, 2)),
    SemisimpleAlgebra(Q, (2, 1)), UnivariatePolyRing(), LocalizedPolyRing(G), SKEW,
]


def samples(r, seed, count=40):
    rng = random.Random(seed)
    return [rg.element(r, payload(r, rng)) for _ in range(count)]


@pytest.mark.parametrize("r", RINGS, ids=repr)
def test_ring_axioms(r):
    xs = samples(r, 7)
    zero, one = rg.zero(r), rg.one(r)
    units = 0
    for a, b, c in zip(xs, xs[1:] + xs[:1], xs[2:] + xs[:2]):
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
        assert a + zero == a and a * one == a == one * a
        assert a * zero == zero == zero * a
        assert a + (-a) == zero and a - b == a + (-b) and -(-a) == a
        if rg.is_unit(r, a):
            inv = rg.inverse(r, a)
            assert a * inv == one == inv * a
            units += 1
        else:
            assert rg.inverse(r, a) is None
    assert rg.is_unit(r, one) and rg.inverse(r, one) == one
    assert units > 0 or r == UnivariatePolyRing() or r == LocalizedPolyRing(G)


def test_skew_monomials_are_units_and_skew_commute():
    x1, x2, x3 = (rg.element(SKEW, {tuple(int(i == k) for i in range(3)): 1}) for k in range(3))
    for u in (x1, x3, rg.element(SKEW, {(-1, 0, 2): Fraction(3, 2)})):
        inv = rg.inverse(SKEW, u)
        assert u * inv == rg.one(SKEW) == inv * u
    assert not rg.is_unit(SKEW, x2) and not rg.is_unit(SKEW, x1 + x3)
    assert x1 * x2 == rg.element(SKEW, {(0, 0, 0): 2}) * x2 * x1


def as_sympy(sympy, x, p):
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(p))


def test_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    qx = UnivariatePolyRing()
    xs = samples(qx, 11)
    for a, b in zip(xs, xs[1:] + xs[:1]):
        pa, pb = as_sympy(sympy, x, a.payload), as_sympy(sympy, x, b.payload)
        for got, want in ((qpoly.add(a.payload, b.payload), pa + pb),
                          (qpoly.add(a.payload, qpoly.neg(b.payload)), pa - pb),
                          (qpoly.neg(a.payload), -pa),
                          (qpoly.mul(a.payload, b.payload), pa * pb),
                          ((a + b).payload, pa + pb), ((a * b).payload, pa * pb)):
            assert sympy.expand(as_sympy(sympy, x, got) - want) == 0
            assert not got or got[-1] != 0      # no trailing zero coefficient


def test_localized_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    r = LocalizedPolyRing(G)

    def frac(p):
        num, den = p
        return as_sympy(sympy, x, num) / as_sympy(sympy, x, den)

    xs = samples(r, 13)
    for a, b in zip(xs, xs[1:] + xs[:1]):
        for got, want in ((a + b, frac(a.payload) + frac(b.payload)),
                          (-a, -frac(a.payload)),
                          (a * b, frac(a.payload) * frac(b.payload))):
            assert sympy.cancel(frac(got.payload) - want) == 0
            num, den = (as_sympy(sympy, x, p) for p in got.payload)
            assert got.payload[1][-1] == 1 and sympy.degree(sympy.gcd(num, den), x) <= 0
        if rg.is_unit(r, a):
            assert sympy.cancel(frac(rg.inverse(r, a).payload) * frac(a.payload) - 1) == 0
