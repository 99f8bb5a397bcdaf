from fractions import Fraction

import pytest

from conftest import brute_is_unit

from ncspec import qpoly
from ncspec import rings as rg
from ncspec.errors import (
    ElementOwnershipMismatch,
    IdentityNotPreserved,
    InfiniteRing,
    NotAHomomorphism,
)
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
    skew_ring,
)


def test_modular_arithmetic_against_int_oracle():
    z6 = ModularRing(6)
    for a in range(6):
        for b in range(6):
            x, y = rg.element(z6, a), rg.element(z6, b)
            assert (x + y).payload == (a + b) % 6
            assert (x * y).payload == (a * b) % 6
            assert (x == y) is (a == b)
    assert (rg.element(z6, 4) + rg.element(z6, 5)).payload == 3
    # an element of another ring is refused by name, not computed with
    other = rg.element(ModularRing(5), 1)
    for op in (rg.add, rg.mul):
        with pytest.raises(ElementOwnershipMismatch):
            op(z6, rg.element(z6, 4), other)


def test_identity_law_everywhere():
    rings = [ModularRing(6), MatrixRing(PrimeField(2), 2),
             SemisimpleAlgebra(Rationals(), (1, 2)), UnivariatePolyRing(),
             skew_ring(2, {(0, 1): 2}), ZeroRing()]
    for r in rings:
        x = rg.from_int(r, 3)
        assert rg.one(r) * x == x
        assert x * rg.one(r) == x


def test_zero_ring_one_equals_zero():
    z = ZeroRing()
    assert rg.one(z) == rg.zero(z)
    assert rg.is_unit(z, rg.zero(z))


def test_is_unit_matches_gcd_and_brute_inverse():
    for n in (2, 4, 6, 9, 12):
        r = ModularRing(n)
        for x in rg.enumerate_elements(r):
            from math import gcd
            want = gcd(x.payload, n) == 1
            assert rg.is_unit(r, x) == want == brute_is_unit(r, x)


def test_singular_matrix_not_unit():
    m = MatrixRing(Rationals(), 2)
    assert not rg.is_unit(m, rg.matrix_element(m, [[1, 0], [0, 0]]))
    assert rg.is_unit(m, rg.matrix_element(m, [[1, 1], [0, 1]]))


def test_units_closed_under_product_finite():
    for r in [ModularRing(6), ModularRing(8),
              rg.product_ring([ModularRing(2), ModularRing(3)]),
              MatrixRing(PrimeField(2), 2)]:
        units = [x for x in rg.enumerate_elements(r) if rg.is_unit(r, x)]
        for u in units:
            for v in units:
                assert rg.is_unit(r, u * v)


def test_skew_unit_criterion():
    sk = skew_ring(2, {(0, 1): 2}, inverted=[0])
    x_inv = rg.element(sk, {(-1, 0): 1})
    assert rg.is_unit(sk, x_inv)
    y = rg.element(sk, {(0, 1): 1})
    assert not rg.is_unit(sk, y)
    scalar = rg.element(sk, {(0, 0): Fraction(3, 7)})
    assert rg.is_unit(sk, scalar)
    mixed = rg.element(sk, {(0, 0): 1, (0, 1): 1})
    assert not rg.is_unit(sk, mixed)


def test_poly_units_are_nonzero_constants():
    qx = UnivariatePolyRing()
    assert rg.is_unit(qx, rg.element(qx, [Fraction(3, 2)]))
    assert not rg.is_unit(qx, rg.element(qx, [0, 1]))
    assert not rg.is_unit(qx, rg.element(qx, []))


def test_enumerate_cardinalities():
    assert len(rg.enumerate_elements(ModularRing(6))) == 6
    assert len(rg.enumerate_elements(ZeroRing())) == 1
    assert len(rg.enumerate_elements(MatrixRing(PrimeField(2), 2))) == 16
    p = rg.product_ring([ModularRing(2), ModularRing(3)])
    assert len(rg.enumerate_elements(p)) == 6
    seen = set(rg.enumerate_elements(p))
    assert len(seen) == 6
    with pytest.raises(InfiniteRing):
        rg.enumerate_elements(UnivariatePolyRing())
    with pytest.raises(InfiniteRing):
        rg.enumerate_elements(MatrixRing(Rationals(), 2))


def test_hom_validate_canonical_quotient():
    h = rg.quotient_hom(6, 3)
    assert h.validated
    assert h(rg.element(ModularRing(6), 4)).payload == 1


def test_hom_validate_rejects_bad_table():
    z2, z3 = ModularRing(2), ModularRing(3)
    bad = rg.table_hom(z2, z3, {rg.element(z2, 0): rg.element(z3, 0),
                                rg.element(z2, 1): rg.element(z3, 1)})
    with pytest.raises(NotAHomomorphism):
        rg.hom_validate(bad)


def test_hom_validate_rejects_identity_violation():
    z6 = ModularRing(6)
    bad = rg.table_hom(z6, z6, {x: rg.zero(z6) for x in rg.enumerate_elements(z6)})
    with pytest.raises(IdentityNotPreserved):
        rg.hom_validate(bad)


def test_any_ring_to_zero_is_valid():
    for r in [ModularRing(6), MatrixRing(PrimeField(3), 2), UnivariatePolyRing()]:
        h = rg.to_zero_hom(r)
        assert h.validated


def test_units_map_to_units_through_validated_homs():
    z12, z4 = ModularRing(12), ModularRing(4)
    h = rg.quotient_hom(12, 4)
    for u in rg.enumerate_elements(z12):
        if rg.is_unit(z12, u):
            assert rg.is_unit(z4, h(u))


def test_compose_quotients_pointwise():
    h = rg.hom_compose(rg.quotient_hom(6, 3), rg.quotient_hom(12, 6))
    assert h == rg.quotient_hom(12, 3)
    idm = rg.identity_hom(ModularRing(6))
    f = rg.quotient_hom(6, 3)
    assert rg.hom_compose(f, idm) == f


def test_projection_after_diagonal_is_identity():
    z6 = ModularRing(6)
    p = rg.product_ring([z6, z6])
    diag = rg.hom_validate(rg.hom_from_callable(
        z6, p, lambda x: rg.element(p, (x.payload, x.payload))))
    proj = rg.hom_validate(rg.hom_from_callable(
        p, z6, lambda x: rg.element(z6, x.payload[0])))
    assert rg.hom_compose(proj, diag) == rg.identity_hom(z6)


def test_hom_counts_between_all_small_cyclic_rings():
    for m in range(2, 13):
        for n in range(2, 13):
            want = 1 if m % n == 0 else 0
            assert len(rg.all_homs(ModularRing(m), ModularRing(n))) == want


def test_all_homs_counts():
    assert len(rg.all_homs(ModularRing(6), ModularRing(3))) == 1
    assert len(rg.all_homs(ModularRing(2), ModularRing(3))) == 0
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    assert len(rg.all_homs(p22, p22)) == 4
    # crt: exactly one unital hom from the split form onto Z/6
    p23 = rg.product_ring([ModularRing(2), ModularRing(3)])
    assert len(rg.all_homs(p23, ModularRing(6))) == 1
    assert len(rg.all_homs(ModularRing(6), p23)) == 1
    # zero ring: final, never initial for nonzero targets
    assert len(rg.all_homs(ModularRing(6), ZeroRing())) == 1
    assert len(rg.all_homs(ZeroRing(), ModularRing(6))) == 0


def test_all_homs_validated_and_exhaustive_small():
    z4, z2 = ModularRing(4), ModularRing(2)
    homs = rg.all_homs(z4, z2)
    assert len(homs) == 1
    # a hom out of Z/4 is fixed by the image of 1, so cross-check by hand
    table = homs[0].as_table()
    assert table == {0: 0, 1: 1, 2: 0, 3: 1}


def test_product_ring_normalization():
    z2 = ModularRing(2)
    assert rg.product_ring([z2]) == z2
    with pytest.raises(ValueError):
        rg.product_ring([])
    with pytest.raises(ValueError):
        skew_ring(2, {(0, 1): 0})


def test_descriptor_invariants():
    with pytest.raises(ValueError):
        ModularRing(0)
    with pytest.raises(ValueError):
        SemisimpleAlgebra(Rationals(), ())
    with pytest.raises(ValueError):
        PrimeField(4)


def _pin_cases():
    F2, Q = PrimeField(2), Rationals()
    half = Fraction(1, 2)
    a = ((1, 1), (0, 1))
    return [
        # (ring, samples, their element_str, unit, cardinality, commutative,
        #  first and last enumerated payloads or None)
        (ZeroRing(), [0], ["0"], 0, 1, True, (0, 0)),
        (ModularRing(6), [0, 5, 3], ["0", "5", "3"], 5, 6, True, (0, 5)),
        (rg.product_ring([ModularRing(2), ModularRing(3)]), [(1, 2), (0, 0)],
         ["(1, 2)", "(0, 0)"], (1, 2), 6, True, ((0, 0), (1, 2))),
        (MatrixRing(F2, 2), [a], ["((1, 1), (0, 1))"], a, 16, False,
         (((0, 0), (0, 0)), ((1, 1), (1, 1)))),
        (MatrixRing(Q, 2), [((1, half), (0, 3))],
         ["((Fraction(1, 1), Fraction(1, 2)), (Fraction(0, 1), Fraction(3, 1)))"],
         ((1, half), (0, 3)), None, False, None),
        (SemisimpleAlgebra(F2, (1, 2)), [(((1,),), a)], ["(((1,),), ((1, 1), (0, 1)))"],
         (((1,),), a), 32, False,
         ((((0,),), ((0, 0), (0, 0))), (((1,),), ((1, 1), (1, 1))))),
        # a single block shows as a one-tuple, not as a parenthesised block
        (SemisimpleAlgebra(F2, (2,)), [(a,)], ["(((1, 1), (0, 1)),)"], (a,), 16, False,
         ((((0, 0), (0, 0)),), (((1, 1), (1, 1)),))),
        (SemisimpleAlgebra(Q, (1, 2)), [(((half,),), ((1, 0), (2, 1)))],
         ["(((Fraction(1, 2),),), ((Fraction(1, 1), Fraction(0, 1)), "
          "(Fraction(2, 1), Fraction(1, 1))))"],
         (((half,),), ((1, 0), (2, 1))), None, False, None),
        (UnivariatePolyRing(), [[half, -1, 3], [], [0, 1]],
         ["1/2 + -1*x + 3*x^2", "0", "x"], [Fraction(-2, 3)], None, True, None),
        (LocalizedPolyRing(qpoly.poly([-1, 0, 1])),
         [([1, 1], [-1, 0, 1]), ([2], [1]), ([0, 3], [-1, 1])],
         ["(1)/(-1 + x)", "2", "(3*x)/(-1 + x)"], ([-1, 1], [1]), None, True, None),
        (skew_ring(2, {(0, 1): 2}, inverted=(0,)), [{(-1, 2): 3, (1, 0): half}, {}],
         ["3*x1^-1*x2^2 + 1/2*x1", "0"], {(-1, 0): 3}, None, False, None),
    ]


def test_per_class_outputs_pinned():
    for r, samples, shown, unit, card, comm, ends in _pin_cases():
        xs = [rg.element(r, s) for s in samples]
        assert [rg.element_str(x) for x in xs] == shown, r
        for x in xs:
            assert r.canonical(x.payload) == x.payload, r
        u = rg.element(r, unit)
        w = rg.inverse(r, u)
        assert w * u == rg.one(r) and u * w == rg.one(r), r
        assert rg.cardinality(r) == card, r
        assert rg.is_commutative(r) is comm, r
        if ends is None:
            with pytest.raises(InfiniteRing):
                rg.enumerate_elements(r)
        else:
            elems = rg.enumerate_elements(r)
            assert (elems[0].payload, elems[-1].payload) == ends, r
            assert len(elems) == card, r


def test_prime_factors_against_a_sieve():
    for n in range(1, 500):
        want = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        assert rg.prime_factors(n) == want, n
    assert rg.prime_factors(9699690) == [2, 3, 5, 7, 11, 13, 17, 19]
