"""Finite homs by generator images, against the table oracles.

A validated hom out of a finite ring is compared, hashed and composed by
its images of an additive generating set; induced maps are descended
through onto insertions; `all_homs` builds block rules.  Each of these
is checked here against full tables, the pairwise check or the
exhaustive `brute_is_hom`.
"""

from collections import defaultdict
from functools import cache
from itertools import combinations

import pytest
from conftest import (
    brute_hom_descend,
    brute_is_hom,
    finite_commutative_grid,
    images_table,
    small_commutative_rings,
    subgroup_closure,
)

from ncspec import rings as rg
from ncspec.errors import NotAHomomorphism, UnsupportedClass
from ncspec.localization import descend_by_block_maps, induced_map, localize
from ncspec.rings import (
    BlockRule,
    MatrixRing,
    ModularRing,
    PrimeField,
    RingHom,
    SemisimpleAlgebra,
    ZeroRing,
)
from ncspec.sheafspec import RingedSpaceMorphism, ncspec, ncspec_morphism

F2, F3 = PrimeField(2), PrimeField(3)
NONCOMMUTATIVE = [MatrixRing(F2, 2), SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F3, (2,))]


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


def oracle_table(h):
    """h as an unvalidated table hom, read off every element by its rule."""
    return rg.table_hom(h.source, h.target,
                        {x: h.rule.apply(h, x) for x in rg.enumerate_elements(h.source)})


@cache
def lattice_rings():
    # every grid ring: each is a block ring, so each has a localization lattice
    return tuple(finite_commutative_grid())


@cache
def small_cyclic():
    return tuple(r for r in finite_commutative_grid()
                 if r.moduli is not None and rg.cardinality(r) <= 24)


@cache
def validated_pool():
    """Validated homs of the grid rings, by (source, target): `all_homs`
    between the small cyclic ones and every restriction map."""
    pool = defaultdict(list)
    for S in small_cyclic():
        for T in small_cyclic():
            for h in rg.all_homs(S, T):
                pool[(S, T)].append(h)
    for r in lattice_rings():
        sheaf = ncspec(r).sheaf
        n = sheaf.lattice.n
        for i in range(n):
            for j in range(n):
                if sheaf.lattice.leq(i, j):
                    h = sheaf.restriction(i, j)
                    pool[(h.source, h.target)].append(h)
    return pool


def test_generators_span_every_finite_ring():
    rings = list(finite_commutative_grid()) + NONCOMMUTATIVE + [cyclic(1, 2)]
    for r in rings:
        gens = rg.generator_elements(r)
        closure = subgroup_closure(rg.zero(r), gens, lambda x, y: x + y)
        assert closure == frozenset(rg.enumerate_elements(r)), r
    assert ModularRing(12).generators == (1,)
    assert ZeroRing().generators == ()
    assert cyclic(2, 3).generators == ((1, 0), (0, 1))
    assert len(SemisimpleAlgebra(F2, (1, 2)).generators) == 1 + 4


def test_image_equality_is_table_equality_on_the_grid():
    compared = 0
    for homs in validated_pool().values():
        assert all(h.validated for h in homs)
        for g, h in combinations(homs, 2):
            same_table = g.as_table() == h.as_table()
            assert (g == h) == same_table, (g, h)
            if same_table:
                assert hash(g) == hash(h)
            compared += 1
        for h in homs:
            # a validated hom against an unvalidated oracle compares by table
            assert h == oracle_table(h)
    assert compared > 1000, compared


def test_a_validated_hom_differs_from_a_changed_table():
    for (S, T), homs in validated_pool().items():
        if rg.cardinality(T) < 2 or rg.cardinality(S) < 2:
            continue
        h = homs[0]
        table = dict(h.as_table())
        x = next(k for k in table if k != rg.zero(S).payload)
        table[x] = next(v for v in T.elements() if v != table[x])
        changed = rg.table_hom(S, T, {rg.RingElement(S, k): rg.RingElement(T, v)
                                      for k, v in table.items()})
        assert h != changed and changed != h


def test_symbolic_composites_match_table_composites_on_grid_lattices():
    triples = 0
    for r in lattice_rings():
        sheaf = ncspec(r).sheaf
        lat = sheaf.lattice
        for i in range(lat.n):
            for j in range(lat.n):
                if not lat.leq(i, j):
                    continue
                f = sheaf.restriction(i, j)
                for k in range(lat.n):
                    if not lat.leq(j, k):
                        continue
                    g = sheaf.restriction(j, k)
                    comp = rg.hom_compose(g, f)
                    table = rg.hom_from_callable(f.source, g.target, lambda x: g(f(x)))
                    assert comp.validated and not table.validated
                    assert comp == table and comp.as_table() == table.as_table()
                    assert comp == sheaf.restriction(i, k)
                    triples += 1
    assert triples > 1500, triples


def test_cross_kind_composite_is_the_brute_table():
    # Z/2 x Z/2 -> M2(F2) onto the diagonal, then conjugation by a unit:
    # neither leg has a block map, so the composite is a certified table
    m2 = MatrixRing(F2, 2)
    f = rg.hom_validate(images_table(cyclic(2, 2), m2, (((1, 0), (0, 0)), ((0, 0), (0, 1)))))
    u = rg.matrix_element(m2, ((1, 1), (0, 1)))
    ui = rg.inverse(m2, u)
    g = rg.hom_validate(rg.hom_from_callable(m2, m2, lambda x: u * x * ui))
    assert f.block_map is None and g.block_map is None
    comp = rg.hom_compose(g, f)
    assert comp.validated and isinstance(comp.rule, rg.TableRule)
    brute = {(a, b): (u * rg.matrix_element(m2, ((a, 0), (0, b))) * ui).payload
             for a in range(2) for b in range(2)}
    assert comp.as_table() == brute and brute_is_hom(comp)


def test_composites_of_idempotent_rules_match_their_tables():
    rings = [cyclic(2, 2), cyclic(2, 3), ModularRing(6), ModularRing(12), cyclic(2, 2, 2),
             ModularRing(2), ZeroRing()]
    # homs into non-commutative targets: orthogonal idempotents of M2(F2)
    m2 = MatrixRing(F2, 2)
    e11, e22 = ((1, 0), (0, 0)), ((0, 0), (0, 1))
    into_m2 = rg.hom_validate(images_table(cyclic(2, 2), m2, (e11, e22)))
    count = 0
    for A in rings:
        for B in rings:
            for C in rings:
                for f in rg.all_homs(A, B):
                    gs = list(rg.all_homs(B, C))
                    if B == into_m2.source:
                        gs.append(into_m2)
                    for g in gs:
                        comp = rg.hom_compose(g, f)
                        assert comp.validated and brute_is_hom(comp)
                        assert comp == rg.hom_from_callable(A, g.target, lambda x: g(f(x)))
                        count += 1
    assert count > 200, count


def test_an_identity_factor_returns_the_other_factor_itself():
    f = rg.quotient_hom(12, 4)
    assert rg.hom_compose(f, rg.identity_hom(ModularRing(12))) is f
    assert rg.hom_compose(rg.identity_hom(ModularRing(4)), f) is f


def test_rule_shortcuts_also_take_unvalidated_factors():
    z12, z4 = ModularRing(12), ModularRing(4)
    f = rg.table_hom(z12, z4, {x: rg.RingElement(z4, x.payload % 4)
                               for x in rg.enumerate_elements(z12)})
    comp = rg.hom_compose(RingHom(z4, z4, rg.IdentityRule()), f)
    assert comp is f and f.validated
    bad = rg.table_hom(z4, z4, {x: x * x for x in rg.enumerate_elements(z4)})
    with pytest.raises(NotAHomomorphism):
        rg.hom_compose(bad, rg.identity_hom(z4))
    collapse = rg.hom_compose(RingHom(z4, ZeroRing(), rg.ToZeroRule()), f)
    assert collapse.validated and collapse == rg.to_zero_hom(z12)
    ssa = SemisimpleAlgebra(F2, (1, 2, 1))
    outer = RingHom(ssa, SemisimpleAlgebra(F2, (2, 1)), rg.BlockRule((1, 2)))
    inner = RingHom(SemisimpleAlgebra(F2, (2, 1)), SemisimpleAlgebra(F2, (1,)), rg.BlockRule((1,)))
    comp = rg.hom_compose(inner, outer)
    assert comp.rule == rg.BlockRule((2,)) and comp.validated
    with pytest.raises(NotAHomomorphism):
        rg.hom_compose(RingHom(SemisimpleAlgebra(F2, (2, 1)), SemisimpleAlgebra(F2, (1,)),
                               rg.BlockRule((5,))), outer)


def test_morphisms_compare_by_hom_equality_of_their_comaps():
    m = ncspec_morphism(rg.quotient_hom(30, 6))
    comap = dict(m.comap)
    j = next(iter(comap))
    comap[j] = oracle_table(comap[j])
    assert not comap[j].validated
    twin = RingedSpaceMorphism(m.source, m.target, m.point_map, comap)
    assert twin == m and hash(twin) == hash(m) and twin.key() == m.key()


def _theta_corpus():
    homs = []
    for S in small_cyclic():
        if rg.cardinality(S) > 12:
            continue
        for T in small_cyclic():
            homs.extend(rg.all_homs(S, T))
    # a document-style table theta on a cyclic product and on an algebra
    ident = {x: x for x in rg.enumerate_elements(cyclic(2, 3))}
    homs.append(rg.hom_validate(rg.table_hom(cyclic(2, 3), cyclic(2, 3), ident)))
    ssa = SemisimpleAlgebra(F2, (1, 1, 1))
    flip = {x: rg.RingElement(ssa, (x.payload[1], x.payload[0], x.payload[2]))
            for x in rg.enumerate_elements(ssa)}
    homs.append(rg.hom_validate(rg.table_hom(ssa, ssa, flip)))
    homs.append(rg.identity_hom(SemisimpleAlgebra(F3, (2,))))
    return homs


def test_descended_induced_maps_pass_the_pairwise_check():
    checked = 0
    for theta in _theta_corpus():
        for cell in ncspec(theta.source).lattice.cells:
            A = cell.representative
            h = induced_map(theta, A)
            assert h.validated
            assert brute_is_hom(h)
            LA = localize(theta.source, A)
            LB = localize(theta.target, tuple(theta(a) for a in A))
            assert (h.source, h.target) == (LA.result, LB.result)
            for x in rg.enumerate_elements(theta.source):
                assert h(LA.insertion(x)) == LB.insertion(theta(x))
            checked += 1
    assert checked > 300, checked


def test_descent_rejects_clashes_and_maps_that_are_not_onto():
    z6, z2 = ModularRing(6), ModularRing(2)

    def descend(alpha, psi):
        return descend_by_block_maps(alpha, psi.block_map, psi.target)

    # the identity of Z/6 is not constant on the fibres of Z/6 -> Z/3
    assert descend(rg.quotient_hom(6, 3), rg.identity_hom(z6)) is None
    with pytest.raises(UnsupportedClass, match="fibres"):
        brute_hom_descend(rg.quotient_hom(6, 3), rg.identity_hom(z6))
    diagonal = rg.hom_validate(rg.hom_from_callable(
        z2, cyclic(2, 2), lambda x: rg.RingElement(cyclic(2, 2), (x.payload, x.payload))))
    assert descend(diagonal, rg.identity_hom(z2)) is None
    with pytest.raises(UnsupportedClass, match="onto"):
        brute_hom_descend(diagonal, rg.identity_hom(z2))
    phi = descend(rg.quotient_hom(12, 6), rg.quotient_hom(12, 3))
    assert phi.validated and phi == rg.quotient_hom(6, 3)


def _idempotent_rule_instances(rng, count):
    """Random tables of idempotent images (`images_table`): images that
    form a real hom, random idempotents, random elements, non-canonical
    payloads and one image too many or too few."""
    sources = small_commutative_rings(12)
    targets = small_commutative_rings(8) + NONCOMMUTATIVE + [SemisimpleAlgebra(F3, (1, 1))]
    for _ in range(count):
        S, T = rng.choice(sources), rng.choice(targets)
        k = len(S.moduli)
        elems = list(T.elements())
        idem = [t for t in elems if T.mul(t, t) == t]
        mode = rng.random()
        homs = rg.all_homs(S, T) if T.moduli is not None else ()
        if mode < 0.35 and homs:
            images = tuple(rng.choice(homs).images)
        elif mode < 0.8:
            images = tuple(rng.choice(idem) for _ in range(k))
        else:
            images = tuple(rng.choice(elems) for _ in range(k))
        if rng.random() < 0.05:
            images = images + (rng.choice(elems),) if rng.random() < 0.5 else images[1:]
        if isinstance(T, ModularRing) and images and rng.random() < 0.1:
            images = (images[0] + T.n,) + images[1:]
        yield images_table(S, T, images)


def _certified(h):
    try:
        h.rule.check(h)
        return True
    except NotAHomomorphism:
        return False


def test_idempotent_rule_check_agrees_with_the_exhaustive_oracle(rng):
    seen = {True: 0, False: 0}
    for h in _idempotent_rule_instances(rng, 600):
        certified = _certified(h)
        assert certified == brute_is_hom(h), h
        seen[certified] += 1
    assert min(seen.values()) >= 60, seen


@pytest.mark.parametrize("source,target,images", [
    # idempotents summing to 1 in characteristic 2, but e_1 e_2 = 0 is sent to 1
    (cyclic(2, 2, 2), ModularRing(2), (1, 1, 1)),
    # orthogonal idempotents that do not sum to 1
    (cyclic(2, 3), ModularRing(6), (3, 0)),
    # the image of 1 in Z/3 is not killed by 3
    (ModularRing(3), ModularRing(2), (1,)),
    # one image too few
    (cyclic(2, 3), ModularRing(6), (3,)),
])
def test_idempotent_rule_rejects_each_broken_law(source, target, images):
    h = images_table(source, target, images)
    assert not brute_is_hom(h)
    with pytest.raises(NotAHomomorphism):
        rg.hom_validate(h)


def test_hash_is_fixed_by_the_images():
    z12, z4, p = ModularRing(12), ModularRing(4), cyclic(2, 3)

    def fresh():
        return [RingHom(z12, z4, BlockRule((0,))),
                rg.table_hom(z12, z4, {x: rg.RingElement(z4, x.payload % 4)
                                       for x in rg.enumerate_elements(z12)}),
                RingHom(p, ModularRing(6), BlockRule((0, 1)))]

    want = [hash(h) for h in fresh()]
    assert want[0] == want[1]
    validated = fresh()
    for h in validated:
        rg.hom_validate(h)
    assert [hash(h) for h in validated] == want
    for h in validated:
        h.as_table()
    assert [hash(h) for h in validated] == want
    tabled = fresh()
    for h in tabled:
        h.as_table()
    assert [hash(h) for h in tabled] == want
