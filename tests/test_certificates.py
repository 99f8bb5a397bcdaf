"""Homs certified by construction: rule checks against the exhaustive oracle."""

import pytest
from conftest import brute_is_hom, small_commutative_rings

from ncspec import sheafspec
from ncspec import rings as rg
from ncspec.errors import NotAHomomorphism
from ncspec.rings import (
    BlockRule,
    CyclicImagesRule,
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
    """Random CyclicImagesRule homs shaped like a localization insertion:
    each (factor index, modulus) of `kept` is one factor of the target,
    whose unit is the image of e_i.  Kept moduli divide n_i or not, an
    index out of range leaves its unit nobody's image, and the target is
    the one the images name or a wrong one."""
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
        if rng.random() < 0.3:
            target = rng.choice(rings)
        yield RingHom(source, target, CyclicImagesRule(images))


def quotient_instances(rng, count):
    """Random quotient-shaped CyclicImagesRule homs, e_0 -> 1 mod m, over
    cyclic and non-cyclic sources."""
    rings = small_commutative_rings()
    for _ in range(count):
        source = rng.choice(rings)
        n = rg.cardinality(source)
        m = _divisor_or_not(rng, n)
        target = ModularRing(m) if rng.random() < 0.7 else rng.choice(rings)
        yield RingHom(source, target, CyclicImagesRule((1 % m,)))


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
def pairwise_calls(monkeypatch):
    """The homs checked pair by pair from here on, with every hom cache cleared."""
    calls = []
    check_all_pairs = rg._check_all_pairs

    def counted(h):
        calls.append(h)
        check_all_pairs(h)

    monkeypatch.setattr(rg, "_check_all_pairs", counted)
    sheafspec.clear_caches()
    rg.all_homs.cache_clear()
    return calls


@pytest.mark.parametrize("ring,points", [
    (ModularRing(210), 16),
    (SemisimpleAlgebra(F2, (1, 1, 1, 1, 1)), 32),
])
def test_ncspec_makes_no_pairwise_checks(pairwise_calls, ring, points):
    calls = pairwise_calls
    assert sheafspec.ncspec(ring).point_count() == points
    assert calls == []
    # the counter sees the tables that are still checked pairwise
    z4, z2 = ModularRing(4), ModularRing(2)
    rg.hom_validate(rg.hom_from_callable(z4, z2, lambda x: rg.element(z2, x.payload)))
    assert len(calls) == 1


def test_a_quotient_query_makes_no_pairwise_checks(pairwise_calls):
    # the queries of a warm session: the induced morphism, its check, its
    # primness with the pushout probes, and the recovered hom
    theta = rg.quotient_hom(30, 6)
    m = sheafspec.ncspec_morphism(theta)
    assert m.verify()
    report = sheafspec.is_prim_report(m)
    assert report["prim"] and report["probes"] == [
        "0-ring", "Z/30", "Z/15", "Z/10", "Z/6", "Z/5", "Z/3", "Z/2"]
    assert sheafspec.recover_hom(m) == theta
    probes = sheafspec.default_prim_probes(m)
    homs = [h for S in probes for T in probes for h in rg.all_homs(S, T)]
    assert len(homs) > len(probes) and all(h.validated for h in homs)
    assert pairwise_calls == []
