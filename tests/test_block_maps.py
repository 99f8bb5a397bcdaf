"""Block maps against the element and composite oracles.

A hom between block rings (`Descriptor.blocks`) that has a block map is
fixed by it, so composites, identities, isomorphisms and square
commutation are lookups.  Here each lookup is compared with
`hom_compose`, element tables, `brute_is_iso` and `brute_commutes` on
semisimple algebras over F2, F3 and Q, on M2(F2) and on the zero ring;
`tests/test_prim_structural.py` does the same on products of cyclic
rings, and `tests/test_law_certificates.py` checks the presheaf laws.
"""

from functools import cache
from itertools import product

from conftest import brute_commutes, brute_is_iso

from ncspec import localization, sheafspec
from ncspec import rings as rg
from ncspec.localization import LocalizationSquare, _hom_is_identity, _hom_is_iso
from ncspec.rings import (
    BlockRule,
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    RingHom,
    SemisimpleAlgebra,
    ZeroRing,
)

F2, F3, Q = PrimeField(2), PrimeField(3), Rationals()
M2 = MatrixRing(F2, 2)
SSA_RINGS = [SemisimpleAlgebra(F2, (1,) * k) for k in (1, 2, 3)] + [
    SemisimpleAlgebra(F3, (1, 2)), SemisimpleAlgebra(Q, (1, 1, 1))]


@cache
def block_homs(r):
    """The identity, the collapse and every block projection out of r, a
    block repeated or left out included (x -> (x_0, x_0) is the diagonal)."""
    homs = [rg.identity_hom(r), rg.to_zero_hom(r)]
    if isinstance(r, SemisimpleAlgebra):
        n = len(r.dims)
        for k in range(1, n + 1):
            for kept in product(range(n), repeat=k):
                target = SemisimpleAlgebra(r.base, tuple(r.dims[i] for i in kept))
                homs.append(rg.hom_validate(RingHom(r, target, BlockRule(kept))))
    return tuple(homs)


def twisted_homs():
    """Validated tables with no block map: the inner automorphism of M2(F2)
    by [[1, 1], [0, 1]] and the swap of F2 x F2 as a semisimple algebra."""
    g = rg.matrix_element(M2, ((1, 1), (0, 1)))
    conj = rg.hom_validate(rg.hom_from_callable(M2, M2, lambda x: g * x * g))
    f22 = SemisimpleAlgebra(F2, (1, 1))
    swap = rg.hom_validate(rg.hom_from_callable(
        f22, f22, lambda x: rg.RingElement(f22, (x.payload[1], x.payload[0]))))
    return [conj, swap]


def finite_homs():
    homs = [h for r in SSA_RINGS[:-1] + [M2, ZeroRing()] for h in block_homs(r)]
    return homs + twisted_homs()


def over_f2(h):
    """The same rule between the same block shapes over F2."""
    def f2(r):
        return SemisimpleAlgebra(F2, r.dims) if isinstance(r, SemisimpleAlgebra) else r
    return rg.hom_validate(RingHom(f2(h.source), f2(h.target), h.rule))


def test_block_maps_come_from_the_rule_and_fix_the_hom():
    for h in finite_homs():
        bmap = h.block_map
        if isinstance(h.rule, rg.TableRule):
            assert bmap is None, h
            continue
        assert bmap == h.rule.block_map(h), h
        blocks = h.source.blocks
        assert [blocks[s] for s in bmap] == list(h.target.blocks), h
    for h in block_homs(SSA_RINGS[-1]):
        assert h.block_map == over_f2(h).block_map, h
    assert rg.identity_hom(rg.UnivariatePolyRing()).block_map is None


def test_composition_by_lookup_is_hom_compose():
    composed = 0
    for r in SSA_RINGS + [M2, ZeroRing()]:
        for f in block_homs(r):
            for g in block_homs(f.target):
                gf = rg.hom_compose(g, f)
                assert gf.block_map == tuple(f.block_map[s] for s in g.block_map), (f, g)
                if rg.is_finite(r):
                    assert gf.as_table() == {x.payload: g(f(x)).payload
                                             for x in rg.enumerate_elements(r)}, (f, g)
                composed += 1
    assert composed > 2000, composed


def test_identity_and_iso_tests_match_the_tables():
    kinds = set()
    for h in finite_homs():
        identity = h.source == h.target and h.as_table() == {x: x for x in h.source.elements()}
        assert _hom_is_identity(h) == identity, h
        assert _hom_is_iso(h) == brute_is_iso(h), h
        kinds.add((identity, brute_is_iso(h), h.block_map is None))
    assert kinds == {(True, True, False), (False, True, False), (False, False, False),
                     (False, True, True)}, kinds
    for h in block_homs(SSA_RINGS[-1]):
        assert _hom_is_iso(h) == brute_is_iso(over_f2(h)), h
        assert _hom_is_identity(h) == _hom_is_identity(over_f2(h)), h


def morphism_squares(r):
    """Every restriction square of the morphism of each block hom out of r."""
    squares = []
    for theta in block_homs(r) + tuple(h for h in twisted_homs() if h.source == r):
        m = sheafspec.ncspec_morphism(theta)
        squares += [sq for _pair, sq in m.restriction_squares(range(m.target.lattice.n))]
    return squares


def test_squares_of_block_projections_commute_as_their_composites():
    seen = {True: 0, False: 0}
    for r in SSA_RINGS + [M2]:
        squares = morphism_squares(r)
        if rg.is_finite(r):
            # every leg swapped for every other block hom between its corners
            legs = ("top", "left", "bottom", "right")
            squares += [LocalizationSquare(**{**{k: getattr(sq, k) for k in legs}, leg: other})
                        for sq in list(squares) for leg in legs
                        for other in block_homs(getattr(sq, leg).source)
                        if other.target == getattr(sq, leg).target and other != getattr(sq, leg)]
        for sq in squares:
            got = sq.commutes()
            assert got == brute_commutes(sq), sq
            seen[got] += 1
    assert seen[True] > 300 and seen[False] > 100, seen


def test_cold_ncspec_composes_no_hom(monkeypatch):
    """The presheaf laws of a cold `ncspec` are checked by lookups: no
    `hom_compose` call anywhere in the build, so none from
    `check_presheaf_laws`."""
    calls = []
    fn = rg.hom_compose
    for module in (rg, localization, sheafspec):
        monkeypatch.setattr(module, "hom_compose", lambda *a: calls.append(a) or fn(*a))
    for r in (ModularRing(30030), SemisimpleAlgebra(F2, (1,) * 5), M2):
        sheafspec.clear_caches()
        assert sheafspec.ncspec(r).point_count() > 1
    assert calls == []
