from fractions import Fraction

import pytest

from conftest import (
    brute_idempotent_power,
    brute_localize,
    brute_under_map,
    classic_fraction_localization_size,
    finite_commutative_grid,
    small_commutative_rings,
)

from ncspec import localization, qpoly, sheafspec
from ncspec import rings as rg
from ncspec.errors import (
    ElementOwnershipMismatch,
    NonMonomialSkewSubset,
    NotComparable,
    UnsupportedClass,
    UnverifiableSquare,
)
from ncspec.latspace import build_semilattice
from ncspec.sheafspec import is_prim_report, ncspec_morphism
from ncspec.localization import (
    LocalizationSquare,
    connecting_map,
    induced_map,
    is_pushout,
    localization_square,
    localize,
    subset_leq,
)
from ncspec.qpoly import LocalizedPolyRing, PolyFracRule, PolyInsertRule, UnivariatePolyRing
from ncspec.rings import (
    BlockRule,
    IdentityRule,
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    RingElement,
    RingHom,
    SemisimpleAlgebra,
    ToZeroRule,
    ZeroRing,
)
from ncspec.skewpoly import SkewExpandRule, skew_ring


def E(r, *vals):
    return tuple(rg.element(r, v) for v in vals)


def test_localize_at_one_is_identity():
    z6 = ModularRing(6)
    L = localize(z6, E(z6, 1))
    assert L.result == z6
    assert all(L.insertion(x) == x for x in rg.enumerate_elements(z6))


def test_localize_at_zero_is_zero_ring():
    for r in [ModularRing(6), SemisimpleAlgebra(Rationals(), (1, 2)),
              UnivariatePolyRing()]:
        L = localize(r, (rg.zero(r),))
        assert rg.is_zero_ring(L.result)


def test_matrix_localization_collapses_at_singular():
    m = MatrixRing(Rationals(), 2)
    sing = rg.matrix_element(m, [[1, 0], [0, 0]])
    assert localize(m, (sing,)).result == ZeroRing()
    inv = rg.matrix_element(m, [[1, 2], [3, 4]])
    assert localize(m, (inv,)).result == m


def test_z6_at_two_is_z3():
    z6 = ModularRing(6)
    L = localize(z6, E(z6, 2))
    assert L.result == ModularRing(3)
    # the insertion is reduction, matching multiplication by the idempotent 4
    e = brute_idempotent_power(rg.element(z6, 2))
    assert e.payload == 4
    for x in rg.enumerate_elements(z6):
        assert L.insertion(x).payload == (4 * x.payload) % 6 % 3


def cell_oracle_rings():
    F2, F3 = PrimeField(2), PrimeField(3)
    return ([ModularRing(n) for n in range(1, 61)]
            + [rg.product_ring([ModularRing(2)] * 3),           # F2 x F2 x F2
               SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F3, (1, 1)),
               MatrixRing(F2, 2)])


def test_the_cell_path_matches_a_from_scratch_build_on_every_small_subset():
    # every subset of one or two elements, in one pass after clear_caches(),
    # so later subsets of a cell read the pair that earlier ones built
    sheafspec.clear_caches()
    for r in cell_oracle_rings():
        elems = rg.enumerate_elements(r)
        subsets = [(x,) for x in elems] + [(x, y) for i, x in enumerate(elems) for y in elems[i:]]
        for Es in subsets:
            L, want = localize(r, Es), brute_localize(r, Es)
            got = {"result": L.result, "subset": L.subset, "images": L.insertion.images,
                   "block_map": L.insertion.block_map,
                   "inverse_witnesses": L.inverse_witnesses}
            assert got == want, (r, Es)
            assert L.source == r and L.insertion.validated, (r, Es)
    assert localization._localize_cell.cache_info().hits > 0


def test_foreign_elements_and_non_units_still_raise():
    z6, z3 = ModularRing(6), ModularRing(3)
    with pytest.raises(ElementOwnershipMismatch):
        localize(z6, E(z3, 1))
    with pytest.raises(ElementOwnershipMismatch):
        localize(z6, E(z6, 1) + E(z3, 2))
    # an image that is not a unit of the result fails its witness
    with pytest.raises(UnsupportedClass, match="fails to invert"):
        localization._finish(z6, E(z6, 2), z6, rg.identity_hom(z6))


def cyclic_oracle_rings():
    """The products of cyclic rings of the grid, Z/a x Z/b for a <= b in
    2, 3, 4, 6, 8, 9, 12, and five triple products."""
    mods = (2, 3, 4, 6, 8, 9, 12)
    pairs = [(a, b) for a in mods for b in mods if a <= b]
    triples = [(2, 2, 3), (2, 3, 4), (2, 4, 8), (3, 3, 4), (2, 6, 9)]
    return ([r for r in finite_commutative_grid() if r.moduli is not None]
            + [rg.product_ring([ModularRing(m) for m in ms]) for ms in pairs + triples])


def test_cyclic_localization_and_cells_agree_with_the_orbit_oracle():
    # loc(r, f) = e r with insertion x -> e x, where e is the idempotent in
    # the orbit of f; the cells come in the order their e first occur, and
    # each cell's subset is its e (the one-element ring's cell has none)
    for r in cyclic_oracle_rings():
        lat = build_semilattice(r)
        idem = [c.representative[0].payload if c.representative else rg.zero(r).payload
                for c in lat.cells]
        elems = rg.enumerate_elements(r)
        first = {}
        for f in elems:
            e = brute_idempotent_power(f)
            first.setdefault(e.payload, None)
            assert idem[lat.cell_of_element(f)] == e.payload, (r, f)
            L = localize(r, (f,))
            table = {}
            for x in elems:
                y = L.insertion(x)
                assert table.setdefault((e * x).payload, y) == y, (r, f, x)
            assert len(set(table.values())) == len(table) == rg.cardinality(L.result), (r, f)
        assert idem == list(first), r


def test_inverse_witnesses_hold():
    for r in small_commutative_rings(10):
        if rg.is_zero_ring(r):
            continue
        for f in rg.enumerate_elements(r):
            L = localize(r, (f,))
            for a, w in L.inverse_witnesses:
                img = L.insertion(a)
                assert img * w == rg.one(L.result)
                assert w * img == rg.one(L.result)


def test_classic_fraction_oracle_agrees_on_sizes():
    for n in (4, 6, 8, 9, 12):
        r = ModularRing(n)
        for f in range(n):
            L = localize(r, E(r, f))
            assert rg.cardinality(L.result) == classic_fraction_localization_size(n, f)


def test_subset_leq_examples():
    z6 = ModularRing(6)
    assert subset_leq(z6, E(z6, 2), E(z6, 4))
    assert not subset_leq(z6, E(z6, 2), E(z6, 3))
    for f in range(6):
        assert subset_leq(z6, E(z6, 1), E(z6, f))
        assert subset_leq(z6, E(z6, f), E(z6, 0))


def test_subset_leq_transitive_with_connecting_composition():
    z12 = ModularRing(12)
    A, B, C = E(z12, 1), E(z12, 2), E(z12, 6)
    assert subset_leq(z12, A, B) and subset_leq(z12, B, C)
    assert subset_leq(z12, A, C)
    pBA = connecting_map(z12, A, B)
    pCB = connecting_map(z12, B, C)
    pCA = connecting_map(z12, A, C)
    assert rg.hom_compose(pCB, pBA) == pCA


def test_connecting_map_identity_and_zero():
    z6 = ModularRing(6)
    p = connecting_map(z6, E(z6, 2), E(z6, 2))
    assert all(p(x) == x for x in rg.enumerate_elements(p.source))
    pz = connecting_map(z6, E(z6, 2), E(z6, 0))
    assert pz.target == ZeroRing()
    ins = connecting_map(z6, E(z6, 1), E(z6, 2))
    L = localize(z6, E(z6, 2))
    assert ins == L.insertion


def test_connecting_map_requires_comparability():
    z6 = ModularRing(6)
    with pytest.raises(NotComparable):
        connecting_map(z6, E(z6, 2), E(z6, 3))


def test_induced_map_identity_and_zero_cases():
    z6 = ModularRing(6)
    idm = rg.identity_hom(z6)
    t = induced_map(idm, E(z6, 2))
    assert all(t(x) == x for x in rg.enumerate_elements(t.source))
    tz = induced_map(rg.to_zero_hom(z6), E(z6, 2))
    assert tz.target == ZeroRing()
    theta = rg.quotient_hom(6, 3)
    tA = induced_map(theta, E(z6, 2))
    # under the canonical presentations both sides are Z/3 and the square
    # forces the identity
    assert tA.source == ModularRing(3) and tA.target == ModularRing(3)
    assert all(tA(x) == x for x in rg.enumerate_elements(tA.source))


def test_functor_square_of_composites():
    thetas = [(12, 6), (6, 3)]
    phi = rg.quotient_hom(6, 3)
    theta = rg.quotient_hom(12, 6)
    z12 = ModularRing(12)
    for f in range(12):
        A = E(z12, f)
        lhs = induced_map(rg.hom_compose(phi, theta), A)
        rhs = rg.hom_compose(induced_map(phi, tuple(theta(a) for a in A)),
                             induced_map(theta, A))
        assert lhs == rhs


def test_square_whose_legs_do_not_compose_raises():
    # x -> -x on Q[x] agrees with the identity at 0 and 1, so a comparison
    # at those two points alone would call this square commuting
    class NegateX(rg.Rule):
        def apply(self, h, x):
            return RingElement(h.target, qpoly.poly(
                c if i % 2 == 0 else -c for i, c in enumerate(x.payload)))

    qx = UnivariatePolyRing()
    ins = localize(qx, (rg.element(qx, qpoly.poly([0, 1])),)).insertion
    sq = LocalizationSquare(top=RingHom(qx, qx, NegateX()), left=rg.identity_hom(qx),
                            bottom=ins, right=ins)
    with pytest.raises(UnsupportedClass):
        sq.commutes()


def test_localization_square_commutes_and_pushes_out():
    theta = rg.quotient_hom(6, 3)
    z6 = ModularRing(6)
    sq = localization_square(theta, E(z6, 1), E(z6, 2))
    assert sq.commutes()
    assert is_pushout(sq)


def test_pushout_rejects_wrong_corner():
    theta = rg.quotient_hom(6, 3)
    z6 = ModularRing(6)
    sq = localization_square(theta, E(z6, 1), E(z6, 2))
    bad = LocalizationSquare(
        top=sq.top, left=sq.left,
        bottom=rg.to_zero_hom(sq.bottom.source),
        right=rg.to_zero_hom(sq.right.source))
    assert bad.commutes()
    assert not is_pushout(bad)


def test_pushout_rejects_a_square_with_two_mediating_maps(monkeypatch):
    # Z/2 <- Z/2 x Z/2 -> Z/2 by the first projection, closed by the
    # diagonal into Z/2 x Z/2: both projections out of the corner restrict
    # to the identity, so the corner is not the pushout Z/2
    z2 = ModularRing(2)
    p22 = rg.product_ring([z2, z2])
    first = rg.hom_validate(rg.hom_from_callable(
        p22, z2, lambda x: rg.element(z2, x.payload[0])))
    diag = rg.hom_validate(rg.hom_from_callable(
        z2, p22, lambda x: rg.element(p22, (x.payload, x.payload))))
    sq = LocalizationSquare(top=first, left=first, bottom=diag, right=diag)
    assert sq.commutes()
    verdicts = []
    by_kernels = localization._pushout_by_kernels

    def spy(square):
        verdicts.append(by_kernels(square))
        return verdicts[-1]

    # the kernel rule decides it: the leg opposite the onto left leg is
    # the diagonal, which is not onto
    monkeypatch.setattr(localization, "_pushout_by_kernels", spy)
    assert is_pushout(sq) is False
    assert verdicts == [False]


def test_quotient_squares_of_semisimple_algebras_are_decided_by_kernels():
    F2 = PrimeField(2)
    pair, one_block = SemisimpleAlgebra(F2, (1, 1)), SemisimpleAlgebra(F2, (1,))
    theta = rg.hom_validate(RingHom(SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F2, (2,)),
                                    BlockRule((1,))))
    assert is_prim_report(ncspec_morphism(theta))["prim"]
    # F2 <- F2 x F2 -> F2 by the same projection pushes out to F2, not to 0
    proj = rg.hom_validate(RingHom(pair, one_block, BlockRule((0,))))
    collapse = rg.to_zero_hom(one_block)
    sq = LocalizationSquare(top=proj, left=proj, bottom=collapse, right=collapse)
    assert sq.commutes() and not is_pushout(sq)
    # no leg out of the top-left corner is onto: the kernel rule has no
    # quotient to start from
    diag = rg.hom_validate(rg.hom_from_callable(
        one_block, pair, lambda x: RingElement(pair, (x.payload[0], x.payload[0]))))
    sq = LocalizationSquare(top=diag, left=diag, bottom=proj, right=proj)
    assert sq.commutes()
    with pytest.raises(UnverifiableSquare, match="no leg out of the top-left corner is onto"):
        is_pushout(sq)
    # one onto leg is enough: the pushout of the first projection and the
    # swap of F2 x F2 is F2, reached by the second projection
    swap = rg.hom_validate(RingHom(pair, pair, BlockRule((1, 0))))
    second = rg.hom_validate(RingHom(pair, one_block, BlockRule((1,))))
    sq = LocalizationSquare(top=swap, left=proj, bottom=rg.identity_hom(one_block), right=second)
    assert sq.commutes() and is_pushout(sq)


def test_degenerate_identity_square_is_pushout():
    z6 = ModularRing(6)
    idm = rg.identity_hom(z6)
    sq = LocalizationSquare(top=idm, left=idm, bottom=idm, right=idm)
    assert is_pushout(sq)


def test_square_with_equal_subsets_has_identity_verticals():
    theta = rg.quotient_hom(6, 3)
    z6 = ModularRing(6)
    sq = localization_square(theta, E(z6, 2), E(z6, 2))
    for h in (sq.left, sq.right):
        assert all(h(x) == x for x in rg.enumerate_elements(h.source))
    assert is_pushout(sq)


def test_collapse_square_a1_b0():
    theta = rg.quotient_hom(6, 3)
    z6 = ModularRing(6)
    sq = localization_square(theta, E(z6, 1), E(z6, 0))
    assert sq.bottom.target == ZeroRing()
    assert is_pushout(sq)


def test_epi_property_of_insertions():
    z6 = ModularRing(6)
    for f in range(6):
        L = localize(z6, E(z6, f))
        for T in (ModularRing(2), ModularRing(3), ModularRing(6), ZeroRing()):
            homs = rg.all_homs(L.result, T)
            for g in homs:
                for h in homs:
                    if g != h:
                        assert any(
                            g(L.insertion(x)) != h(L.insertion(x))
                            for x in rg.enumerate_elements(z6))


def test_commutative_product_rule():
    p23 = rg.product_ring([ModularRing(2), ModularRing(3)])
    for r in (ModularRing(12), p23):
        for ea in rg.enumerate_elements(r):
            for eb in rg.enumerate_elements(r):
                L_pair = localize(r, (ea, eb))
                L_prod = localize(r, (ea * eb,))
                assert L_pair.result == L_prod.result
                for x in rg.enumerate_elements(r):
                    assert L_pair.insertion(x) == L_prod.insertion(x)


def test_mixed_finite_products_localize_as_the_oracle():
    # commutative and finite, not a product of cyclic rings, yet a block ring
    F2 = PrimeField(2)
    for other in (MatrixRing(F2, 1), SemisimpleAlgebra(F2, (1,))):
        r = rg.product_ring([ModularRing(2), other])
        assert rg.is_commutative(r) and rg.is_finite(r)
        for x in rg.enumerate_elements(r):
            L = localize(r, (x,))
            got = {"result": L.result, "subset": L.subset, "images": L.insertion.images,
                   "block_map": L.insertion.block_map,
                   "inverse_witnesses": L.inverse_witnesses}
            assert got == brute_localize(r, (x,)), (r, x)


def test_skew_localization_grows_cone():
    sk = skew_ring(2, {(0, 1): 2})
    x = rg.element(sk, {(1, 0): 1})
    L = localize(sk, (x,))
    assert L.result.inverted == frozenset({0})
    w = dict(L.inverse_witnesses)[x]
    assert L.insertion(x) * w == rg.one(L.result)
    xy = rg.element(sk, {(1, 1): 1})
    Lxy = localize(sk, (xy,))
    assert Lxy.result.inverted == frozenset({0, 1})
    with pytest.raises(NonMonomialSkewSubset):
        localize(sk, (rg.element(sk, {(1, 0): 1, (0, 1): 1}),))


def test_poly_localization_squarefree_normal_form():
    qx = UnivariatePolyRing()
    x = rg.element(qx, [0, 1])
    L = localize(qx, (x * x,))
    assert L.result.denominator == (Fraction(0), Fraction(1))
    assert rg.is_unit(L.result, L.insertion(x))
    assert not rg.is_unit(L.result, L.insertion(rg.element(qx, [1, 1])))


def test_universal_property_bruteforce_singletons():
    """The localization is initial among probe homs inverting the subset."""
    probes = [ZeroRing()] + [ModularRing(k) for k in range(2, 13)]
    for r in small_commutative_rings(8):
        if rg.is_zero_ring(r):
            continue
        for f in rg.enumerate_elements(r):
            L = localize(r, (f,))
            for T in probes:
                inverting = [t for t in rg.all_homs(r, T)
                             if rg.is_unit(T, t(f))]
                for theta in inverting:
                    mediators = [
                        lam for lam in rg.all_homs(L.result, T)
                        if all(lam(L.insertion(x)) == theta(x)
                               for x in rg.enumerate_elements(r))]
                    assert len(mediators) == 1


# ---------------------------------------------------------------------------
# connecting maps by re-localization against the brute-force under-map

def _differential_rings():
    F2, F3 = PrimeField(2), PrimeField(3)
    out = [ModularRing(n) for n in range(2, 61)]
    out += [rg.product_ring([ModularRing(m) for m in mods])
            for mods in [(2, 3), (2, 4), (3, 3), (2, 6), (4, 6), (2, 2, 3), (3, 4, 5)]]
    out.append(rg.product_ring([ModularRing(2)] * 3))    # F2 x F2 x F2
    out += [SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F2, (1, 1, 1)),
            SemisimpleAlgebra(F3, (1, 1)), MatrixRing(F2, 2)]
    return out


def _cells(r):
    """One subset per cell of r: idempotent singletons, one per distinct insertion.

    Localizing at x is localizing at an idempotent (its idempotent power in
    the commutative case, a block idempotent in the semisimple one).
    """
    reps = {}
    for x in rg.enumerate_elements(r):
        if x * x == x:
            reps.setdefault(localize(r, (x,)).insertion, (x,))
    return list(reps.values())


def test_connecting_maps_match_the_brute_force_under_map():
    compared = refused = 0
    for r in _differential_rings():
        cells = _cells(r)
        for A in cells:
            for B in cells:
                if not subset_leq(r, A, B):
                    with pytest.raises(NotComparable):
                        connecting_map(r, A, B)
                    refused += 1
                    continue
                p = connecting_map(r, A, B)
                assert p.validated and p == brute_under_map(r, A, B), (r, A, B)
                compared += 1
    assert (compared, refused) == (645, 611)


def _ssa_element(r, *invertible):
    """The element of r that is 1 on the listed blocks and 0 on the others."""
    return rg.element(r, [[[int(b in invertible and i == j) for j in range(d)]
                           for i in range(d)] for b, d in enumerate(r.dims)])


def test_connecting_maps_of_infinite_classes_are_pinned():
    Q = Rationals()
    qx = UnivariatePolyRing()
    x, x1 = rg.element(qx, [0, 1]), rg.element(qx, [1, 1])
    sk = skew_ring(2, {(0, 1): 2})
    u, v = rg.element(sk, {(1, 0): 1}), rg.element(sk, {(0, 1): 1})
    ssa = SemisimpleAlgebra(Q, (1, 1, 2))
    m2 = MatrixRing(Q, 2)
    F = Fraction
    cases = [
        (qx, (), (x,), PolyInsertRule, LocalizedPolyRing((F(0), F(1)))),
        (qx, (x,), (x, x1), PolyFracRule, LocalizedPolyRing((F(0), F(1), F(1)))),
        (qx, (x,), (x * x,), IdentityRule, LocalizedPolyRing((F(0), F(1)))),
        (qx, (x,), (rg.zero(qx),), ToZeroRule, ZeroRing()),
        (sk, (), (u,), SkewExpandRule, skew_ring(2, {(0, 1): 2}, (0,))),
        (sk, (u,), (u, v), SkewExpandRule, skew_ring(2, {(0, 1): 2}, (0, 1))),
        (ssa, (), (_ssa_element(ssa, 1, 2),), BlockRule, SemisimpleAlgebra(Q, (1, 2))),
        (ssa, (_ssa_element(ssa, 1, 2),), (_ssa_element(ssa, 1, 2), _ssa_element(ssa, 0, 2)),
         BlockRule, SemisimpleAlgebra(Q, (2,))),
        (ssa, (_ssa_element(ssa, 1, 2),), (_ssa_element(ssa, 1, 2), _ssa_element(ssa, 0)),
         ToZeroRule, ZeroRing()),
        (m2, (), (rg.matrix_element(m2, [[1, 0], [0, 0]]),), ToZeroRule, ZeroRing()),
        (m2, (), (rg.matrix_element(m2, [[1, 2], [3, 4]]),), IdentityRule, m2),
    ]
    for r, A, B, rule, target in cases:
        p = connecting_map(r, A, B)
        assert type(p.rule) is rule and p.target == target, (r, A, B)
        assert p.source == localize(r, A).result and p.validated
    # kept blocks are positions in the source cell: block 2 sits at position 1
    assert connecting_map(ssa, cases[7][1], cases[7][2]).rule.feeds == (1,)


def test_composites_of_connecting_maps_are_the_direct_maps():
    qx = UnivariatePolyRing()
    x, x1, x2 = (rg.element(qx, [c, 1]) for c in (0, 1, 2))
    sk = skew_ring(3, {(0, 1): 2, (0, 2): 3, (1, 2): Fraction(1, 2)})
    g = [rg.element(sk, {tuple(int(k == i) for k in range(3)): 1}) for i in range(3)]
    ssa = SemisimpleAlgebra(Rationals(), (1, 1, 2))
    s12, s02 = _ssa_element(ssa, 1, 2), _ssa_element(ssa, 0, 2)
    z60 = ModularRing(60)
    chains = [
        (qx, [(), (x,), (x, x1), (x, x1, x2)]),      # PolyInsert, then PolyFrac twice
        (sk, [(), (g[0],), (g[0], g[1]), tuple(g)]),  # SkewExpand three times
        (ssa, [(), (s12,), (s12, s02)]),              # BlockRule twice
        (z60, [(), E(z60, 2), E(z60, 2, 3), E(z60, 2, 3, 5)]),
    ]
    for r, subsets in chains:
        for start in range(len(subsets) - 2):
            composite = connecting_map(r, subsets[start], subsets[start + 1])
            for A, B in zip(subsets[start + 1:], subsets[start + 2:]):
                composite = rg.hom_compose(connecting_map(r, A, B), composite)
            direct = connecting_map(r, subsets[start], subsets[-1])
            # homs out of an infinite ring are equal when their rules are
            assert composite == direct, (r, start)
