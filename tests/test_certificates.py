"""Homs certified by construction: rule checks against the exhaustive oracle."""

import sys
import time
from functools import cache
from itertools import product as iproduct

import pytest
from conftest import brute_is_hom, cyclic_coordinates, images_table, small_commutative_rings

from ncspec import qpoly, sheafspec, skewpoly
from ncspec import rings as rg
from ncspec.errors import NotAHomomorphism
from ncspec.rings import (
    BlockRule,
    MatrixRing,
    ModularRing,
    PrimeField,
    RingHom,
    SemisimpleAlgebra,
    ZeroRing,
)

F2, F3 = PrimeField(2), PrimeField(3)
SMALL_SSAS = [SemisimpleAlgebra(F2, d) for d in [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]]
SMALL_SSAS += [SemisimpleAlgebra(F3, d) for d in [(1,), (1, 1)]]
SSA_TARGETS = SMALL_SSAS + [SemisimpleAlgebra(F2, (1, 1, 1, 1)), SemisimpleAlgebra(F3, (2,)),
                            MatrixRing(F2, 1), MatrixRing(F2, 2), ZeroRing(), ModularRing(2)]


def _divisor_or_not(rng, n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return rng.choice(divisors) if rng.random() < 0.6 else rng.randint(1, 13)


def _cyclic_product(moduli):
    if not moduli:
        return ZeroRing()
    return rg.product_ring([ModularRing(m) for m in moduli])


def _units_sum(target, slots):
    """The payload of the sum of the units e_j of a cyclic product target over slots."""
    acc = target.zero
    for j in slots:
        acc = acc + rg.RingElement(target, target.generators[j])
    return acc.payload


def comm_loc_instances(rng, count):
    """Random table homs shaped like a localization insertion, x -> sum_i
    x_i t_i (`images_table`): each (factor index, modulus) of `kept` is
    one factor of the target, whose unit is in t_i.  Kept moduli divide n_i
    or not, and an index out of range leaves its unit nobody's image."""
    rings = small_commutative_rings()
    for _ in range(count):
        source = rng.choice(rings)
        mods = rg.cyclic_moduli(source)
        kept = []
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(-1, len(mods)) if rng.random() < 0.2 else rng.randrange(max(len(mods), 1))
            n = mods[i] if -len(mods) <= i < len(mods) else 12
            kept.append((i, _divisor_or_not(rng, n)))
        target = _cyclic_product([m for _, m in kept])
        images = tuple(_units_sum(target, [j for j, (k, _) in enumerate(kept) if k == i])
                       for i in range(len(mods)))
        yield images_table(source, target, images)


def quotient_instances(rng, count):
    """Random quotient-shaped table homs, x -> x_0 mod m for the first
    coordinate x_0 of x, over the zero ring, cyclic rings and products."""
    rings = small_commutative_rings()
    for _ in range(count):
        source = rng.choice(rings)
        n = rg.cardinality(source)
        m = _divisor_or_not(rng, n)
        target = ModularRing(m) if rng.random() < 0.7 else rng.choice(rings)
        yield rg.hom_from_callable(source, target, lambda x, T=target: rg.from_int(
            T, (cyclic_coordinates(x) or (0,))[0]))


# products of cyclic rings with every shape of local factor: shared
# primes, prime powers, Z/1 factors and the zero ring
CYCLIC_BLOCK_RINGS = small_commutative_rings() + [
    _cyclic_product(m) for m in ((1,), (1, 4), (6, 1), (2, 1, 3), (4, 2), (9, 3))]


def cyclic_block_instances(rng, count):
    """Random BlockRule homs between products of cyclic rings.  The target
    is a product of divisors of source moduli, Z/1 included, or a wrong
    ring.  Each of its local factors is fed by a source local factor of its
    prime and a power it divides, or by a random index: another prime, a
    smaller power, out of range or negative.  Feeds repeat where two target
    factors come from one source factor, and some lists lose, gain or drop
    all their feeds."""
    for _ in range(count):
        source = rng.choice(CYCLIC_BLOCK_RINGS)
        src, mods = source.local_factors, rg.cyclic_moduli(source)
        picks = [rng.choice(mods) for _ in range(rng.randint(1, 3))] if mods else []
        target = _cyclic_product([rng.choice([d for d in range(1, n + 1) if n % d == 0])
                                  for n in picks])
        if rng.random() < 0.25:
            target = rng.choice(CYCLIC_BLOCK_RINGS)
        feeds = []
        for _j, p, q in target.local_factors:
            fitting = [s for s, (_i, ps, qs) in enumerate(src) if ps == p and qs % q == 0]
            feeds.append(rng.choice(fitting) if fitting and rng.random() < 0.8
                         else rng.randint(-len(src) - 1, len(src)))
        tamper = rng.random()
        if tamper < 0.05:
            feeds = []
        elif tamper < 0.1:
            feeds.append(rng.randint(-1, len(src)))
        elif tamper < 0.15:
            feeds = feeds[1:]
        yield RingHom(source, target, BlockRule(tuple(feeds)))


def ssa_proj_instances(rng, count):
    """Random BlockRule homs between semisimple algebras: kept blocks in
    range or not, empty or repeated, and the target the blocks name or a
    wrong one."""
    for _ in range(count):
        source = rng.choice(SMALL_SSAS)
        k = len(source.dims)
        kept = tuple(rng.randint(-1, k) if rng.random() < 0.2 else rng.randrange(k)
                     for _ in range(rng.randint(0, 3)))
        try:
            target = SemisimpleAlgebra(source.base, tuple(source.dims[i] for i in kept))
        except (IndexError, ValueError):
            target = rng.choice(SSA_TARGETS)
        if rng.random() < 0.3:
            target = rng.choice(SSA_TARGETS)
        yield RingHom(source, target, BlockRule(kept))


@pytest.mark.parametrize("instances", [comm_loc_instances, quotient_instances,
                                       cyclic_block_instances, ssa_proj_instances])
def test_rule_checks_agree_with_the_exhaustive_oracle(rng, instances):
    seen = {True: 0, False: 0}
    for h in instances(rng, 400):
        try:
            h.rule.check(h)
            certified = True
        except NotAHomomorphism:
            certified = False
        assert certified == brute_is_hom(h), (h, certified)
        seen[certified] += 1
        # hom_validate trusts the check and never applies a rule it rejects
        try:
            assert rg.hom_validate(RingHom(h.source, h.target, h.rule)).validated == certified
        except NotAHomomorphism:
            assert not certified
    assert min(seen.values()) >= 40, seen


M2F2 = MatrixRing(F2, 2)
TABLE_RINGS = [ModularRing(2), ModularRing(4), ModularRing(6), _cyclic_product((2, 2)),
               _cyclic_product((2, 3)), SemisimpleAlgebra(F2, (1, 2)), M2F2,
               rg.product_ring([ModularRing(2), M2F2])]


def _conjugated(u, x):
    """x with its M2(F2) part (all of x, or its last factor) conjugated by u."""
    ui = rg.inverse(M2F2, u)
    if x.owner == M2F2:
        return u * x * ui
    m = rg.RingElement(M2F2, x.payload[-1])
    return rg.RingElement(x.owner, x.payload[:-1] + ((u * m * ui).payload,))


@cache
def _real_homs(S, T):
    """Ring homs S -> T built by certified rules: identities, block maps,
    the tables of idempotent images out of a product of cyclic rings
    (`images_table`), the inner automorphisms of M2(F2), and the two
    projections of Z/2 x M2(F2)."""
    rules = [rg.IdentityRule()] if S == T else []
    if S.blocks and T.blocks:
        rules += [BlockRule(f) for f in iproduct(range(len(S.blocks)), repeat=len(T.blocks))]
    candidates = [RingHom(S, T, rule) for rule in rules]
    if rg.cyclic_moduli(S) is not None:
        idem = [t for t in T.elements() if T.mul(t, t) == t]
        candidates += [images_table(S, T, ims)
                       for ims in iproduct(idem, repeat=len(S.generators))]
    homs = []
    for h in candidates:
        try:
            homs.append(rg.hom_validate(h))
        except NotAHomomorphism:
            pass
    if S == T and M2F2 in getattr(S, "factors", (S,)):
        for u in rg.enumerate_elements(M2F2):
            if rg.is_unit(M2F2, u):
                homs.append(rg.hom_from_callable(S, T, lambda x, u=u: _conjugated(u, x)))
    if isinstance(S, rg.ProductRing) and T in S.factors and T != S:
        k = S.factors.index(T)
        homs.append(rg.hom_from_callable(S, T, lambda x: rg.RingElement(T, x.payload[k])))
    return homs


def _additive_table(rng, S, T) -> dict:
    """A random additive map S -> T: each generator g goes to a random t
    with ord(g) t = 0, extended along sums of generators.  The additive
    group of S is the direct sum of the cyclic groups of its generators,
    so the extension is well defined."""
    elems = rg.enumerate_elements(T)
    table = {rg.zero(S): rg.zero(T)}
    for g in rg.generator_elements(S):
        order = next(n for n in range(1, rg.cardinality(S) + 1)
                     if rg.from_int(S, n) * g == rg.zero(S))
        t = rng.choice([t for t in elems if rg.from_int(T, order) * t == rg.zero(T)])
        for x, y in list(table.items()):
            for c in range(1, order):
                table[x + rg.from_int(S, c) * g] = y + rg.from_int(T, c) * t
    return table


def table_instances(rng, count):
    """Random table homs between the TABLE_RINGS: real homs, additive maps
    (mostly not multiplicative), and either of them with one image moved,
    with the images moved on a coset of the first generator (which keeps
    h(x + g) = h(x) + h(g) for that g only), with 0 sent to a nonzero
    element, or with 1 sent to 0."""
    for _ in range(count):
        S, T = rng.choice(TABLE_RINGS), rng.choice(TABLE_RINGS)
        homs = _real_homs(S, T)
        if homs and rng.random() < 0.4:
            h = rng.choice(homs)
            table = {x: h(x) for x in rg.enumerate_elements(S)}
        else:
            table = _additive_table(rng, S, T)
        nonzero = [t for t in rg.enumerate_elements(T) if t != rg.zero(T)]
        tamper = rng.random()
        if tamper < 0.2:
            x = rng.choice(list(table))
            table[x] = rng.choice([t for t in rg.enumerate_elements(T) if t != table[x]])
        elif tamper < 0.3:
            g, delta = rg.generator_elements(S)[0], rng.choice(nonzero)
            line = {rg.from_int(S, c) * g for c in range(rg.cardinality(S))}
            y = rng.choice(list(table))
            if y not in line:
                for z in line:
                    table[y + z] = table[y + z] + delta
        elif tamper < 0.4:
            table[rg.zero(S)] = rng.choice(nonzero)
        elif tamper < 0.5:
            table[rg.one(S)] = rg.zero(T)
        yield rg.table_hom(S, T, table)


def test_table_check_agrees_with_the_exhaustive_oracle(rng):
    seen = {True: 0, False: 0}
    for h in table_instances(rng, 300):
        try:
            h.rule.check(h)
            certified = True
        except NotAHomomorphism:
            certified = False
        assert certified == brute_is_hom(h), (h, certified)
        seen[certified] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("table,error", [
    # additive, but h(1, 0) h(0, 1) = (1, 1)(0, 1) is not h(0) = 0
    ({(a, b): (a % 2, (a + b) % 2) for a in range(4) for b in range(2)}, "multiplicativity"),
    # h(1, 0) + h(1, 0) = 0 is not h(2, 0) = (1, 0)
    ({(a, b): (min(a, 1), b) for a in range(4) for b in range(2)}, "additivity"),
])
def test_table_check_names_the_broken_law(table, error):
    S, T = _cyclic_product((4, 2)), _cyclic_product((2, 2))
    h = rg.table_hom(S, T, {rg.RingElement(S, x): rg.RingElement(T, y) for x, y in table.items()})
    assert not brute_is_hom(h)
    with pytest.raises(NotAHomomorphism, match=error):
        rg.hom_validate(h)


def test_a_table_that_misses_an_element_is_no_hom():
    z2 = ModularRing(2)
    h = rg.table_hom(ModularRing(4), z2, {rg.RingElement(ModularRing(4), x): rg.element(z2, x)
                                          for x in range(3)})
    assert not brute_is_hom(h)
    with pytest.raises(NotAHomomorphism, match="no image"):
        rg.hom_validate(h)


def test_identity_table_of_z600_is_checked_on_its_generator():
    z600 = ModularRing(600)
    h = rg.table_hom(z600, z600, {x: x for x in rg.enumerate_elements(z600)})
    start = time.perf_counter()
    assert rg.hom_validate(h) == rg.identity_hom(z600)
    assert time.perf_counter() - start < 0.5   # every pair would take seconds


def test_composite_with_an_unvalidated_non_hom_is_rejected():
    z6 = ModularRing(6)
    square = rg.table_hom(z6, z6, {x: x * x for x in rg.enumerate_elements(z6)})
    assert not square.validated
    ident = rg.identity_hom(z6)
    for g, f in ((ident, square), (square, ident)):
        with pytest.raises(NotAHomomorphism):
            rg.hom_compose(g, f)
    # composites of validated homs are certified as built
    h = rg.hom_compose(rg.quotient_hom(6, 3), rg.quotient_hom(12, 6))
    assert h.validated and h == rg.quotient_hom(12, 3)


@pytest.fixture
def table_checks(monkeypatch):
    """The homs whose table is checked (`TableRule.check`) from here on,
    with every memo of spaces and morphisms cleared."""
    calls = []
    check = rg.TableRule.check

    def counted(rule, h):
        calls.append(h)
        check(rule, h)

    monkeypatch.setattr(rg.TableRule, "check", counted)
    sheafspec.clear_caches()
    return calls


@pytest.mark.parametrize("ring,points", [
    (ModularRing(210), 16),
    (SemisimpleAlgebra(F2, (1, 1, 1, 1, 1)), 32),
])
def test_ncspec_makes_no_pairwise_checks(table_checks, ring, points):
    calls = table_checks
    assert sheafspec.ncspec(ring).point_count() == points
    assert calls == []
    # the counter sees the tables given from outside, which are checked
    z4, z2 = ModularRing(4), ModularRing(2)
    rg.hom_validate(rg.hom_from_callable(z4, z2, lambda x: rg.element(z2, x.payload)))
    assert len(calls) == 1


def test_a_quotient_query_makes_no_pairwise_checks(table_checks):
    # the queries of a warm session: the induced morphism, its check, its
    # primness, and the recovered hom; then every hom between section rings
    theta = rg.quotient_hom(30, 6)
    m = sheafspec.ncspec_morphism(theta)
    assert m.verify()
    assert sheafspec.is_prim_report(m) == {"prim": True, "witness": None}
    assert sheafspec.recover_hom(m) == theta
    rings = tuple(dict.fromkeys(m.target.sheaf.assignment + m.source.sheaf.assignment))
    homs = [h for S in rings for T in rings for h in rg.all_homs(S, T)]
    assert len(homs) > len(rings) and all(h.validated for h in homs)
    assert table_checks == []


@pytest.fixture
def applies_in_validation(monkeypatch):
    """The (rule, hom) of every `apply` of a non-table rule made while
    `hom_validate` runs, from here on, with every memo cleared."""
    calls = []
    validate = rg.hom_validate.__code__
    rules = [c for m in (rg, qpoly, skewpoly) for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, rg.Rule) and "apply" in vars(c)]
    assert rg.TableRule not in rules and len(rules) >= 6

    for cls in rules:
        def counted(rule, h, x, apply=cls.apply):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not validate:
                frame = frame.f_back
            if frame is not None:
                calls.append((rule, h))
            return apply(rule, h, x)

        monkeypatch.setattr(cls, "apply", counted)
    sheafspec.clear_caches()
    return calls


def test_only_a_table_is_evaluated_to_certify_it(applies_in_validation, monkeypatch):
    # every rule but a table keeps 1 and 0 by its check (see `Rule`), so
    # the certificate evaluates no element of the source
    assert sheafspec.ncspec(ModularRing(210)).point_count() == 16
    assert sheafspec.ncspec(SemisimpleAlgebra(F2, (1, 1, 1, 1, 1))).point_count() == 32
    quotients = [rg.quotient_hom(n, m) for n in (12, 30, 210) for m in range(1, n + 1)
                 if n % m == 0]
    assert all(h.validated for h in quotients) and len(quotients) == 30
    assert quotients[-1](rg.element(ModularRing(210), 7)).payload == 7   # not counted
    assert applies_in_validation == []
    # the counter sees an apply made inside hom_validate
    monkeypatch.setattr(rg.IdentityRule, "check", lambda rule, h: h(h.source.one))
    z6 = ModularRing(6)
    rg.hom_validate(RingHom(z6, z6, rg.IdentityRule()))
    assert len(applies_in_validation) == 1
