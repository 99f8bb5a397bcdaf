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
from math import gcd

from conftest import (
    brute_commutes,
    brute_hom_descend,
    brute_ideal,
    brute_is_iso,
    brute_pushout_by_kernels,
)

from ncspec import localization, sheafspec
from ncspec import rings as rg
from ncspec.errors import NCSpecError
from ncspec.localization import (
    LocalizationSquare,
    _hom_is_identity,
    _hom_is_iso,
    _pushout_by_kernels,
)
from ncspec.qpoly import UnivariatePolyRing
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


def table_homs():
    """Validated tables between semisimple algebras: the inner automorphism
    of M2(F2) by g = [[1, 1], [0, 1]], which twists its block and has no
    block map, and the swap of F2 x F2 and the flip of the first two blocks
    of F2^3, whose block maps are read off their tables."""
    g = rg.matrix_element(M2, ((1, 1), (0, 1)))
    conj = rg.hom_validate(rg.hom_from_callable(M2, M2, lambda x: g * x * g))
    f22, f222 = SemisimpleAlgebra(F2, (1, 1)), SemisimpleAlgebra(F2, (1, 1, 1))
    swap = rg.hom_validate(rg.hom_from_callable(
        f22, f22, lambda x: rg.RingElement(f22, (x.payload[1], x.payload[0]))))
    flip = rg.hom_validate(rg.hom_from_callable(
        f222, f222, lambda x: rg.RingElement(f222, (x.payload[1], x.payload[0], x.payload[2]))))
    return [conj, swap, flip]


@cache
def unmapped_homs():
    """Validated homs between block rings without a block map: conjugation
    by g on the M2 block of M2(F2) x F2, the diagonal F2 x F2 -> M2(F2),
    the projection of F2 x F2 (a semisimple algebra) onto Z/2, Z/2 x Z/2
    onto F2 x F2, and Z/6 -> M2(F2) and Z/4 -> M2(F2), x -> x 1, which
    kill Z/3 and 2 Z/4."""
    g = rg.matrix_element(M2, ((1, 1), (0, 1)))
    m2f2, f22 = SemisimpleAlgebra(F2, (2, 1)), SemisimpleAlgebra(F2, (1, 1))
    z2, z22 = ModularRing(2), rg.ProductRing((ModularRing(2), ModularRing(2)))

    def conj(x):
        a, b = x.payload
        return rg.RingElement(m2f2, ((g * rg.RingElement(M2, a) * g).payload, b))

    return (
        rg.hom_validate(rg.hom_from_callable(m2f2, m2f2, conj)),
        rg.hom_validate(rg.hom_from_callable(f22, M2, lambda x: rg.matrix_element(
            M2, ((x.payload[0][0][0], 0), (0, x.payload[1][0][0]))))),
        rg.hom_validate(rg.hom_from_callable(f22, z2, lambda x: rg.element(
            z2, x.payload[0][0][0]))),
        rg.hom_validate(rg.hom_from_callable(z22, f22, lambda x: rg.element(
            f22, tuple(((c,),) for c in x.payload)))),
        rg.hom_validate(rg.hom_from_callable(ModularRing(6), M2, lambda x: rg.from_int(
            M2, x.payload))),
        rg.hom_validate(rg.hom_from_callable(ModularRing(4), M2, lambda x: rg.from_int(
            M2, x.payload))),
    )


SMALL_CYCLIC = [ModularRing(n) for n in (2, 4, 8, 9, 12)] + [
    rg.ProductRing((ModularRing(4), ModularRing(2))), rg.ProductRing((ModularRing(2), ModularRing(6)))]


def finite_homs():
    homs = [h for r in SSA_RINGS[:-1] + [M2, ZeroRing()] for h in block_homs(r)]
    return homs + table_homs() + list(unmapped_homs())


def over_q(h, base=Q):
    """The same rule between the same block shapes over Q, or over base."""
    def q(r):
        return type(r)(base, r.dims if isinstance(r, SemisimpleAlgebra) else r.size)
    return rg.hom_validate(RingHom(q(h.source), q(h.target), h.rule))


def over_f2(h):
    """The same rule between the same block shapes over F2."""
    def f2(r):
        return SemisimpleAlgebra(F2, r.dims) if isinstance(r, SemisimpleAlgebra) else r
    return rg.hom_validate(RingHom(f2(h.source), f2(h.target), h.rule))


def test_block_maps_come_from_the_rule_and_fix_the_hom():
    conj, swap, flip = table_homs()
    unmapped = unmapped_homs() + (conj,)
    for h in finite_homs():
        bmap = h.block_map
        assert (bmap is None) == (h in unmapped), h
        if bmap is None:
            continue
        if not isinstance(h.rule, rg.TableRule):
            assert bmap == h.rule.block_map(h), h
        blocks = h.source.blocks
        assert [blocks[s] for s in bmap] == list(h.target.blocks), h
        assert RingHom(h.source, h.target, BlockRule(bmap)).as_table() == h.as_table(), h
    assert (swap.block_map, flip.block_map) == ((1, 0), (1, 0, 2))
    for h in block_homs(SSA_RINGS[-1]):
        assert h.block_map == over_f2(h).block_map, h
    assert rg.identity_hom(UnivariatePolyRing()).block_map is None


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
                     (False, True, True), (False, False, True)}, kinds
    # over Q also Q x Q -> Q^3, (a, b) -> (a, b, b): injective, not onto
    q2, q3 = SemisimpleAlgebra(Q, (1, 1)), SSA_RINGS[-1]
    repeat = rg.hom_validate(RingHom(q2, q3, BlockRule((0, 1, 1))))
    for h in block_homs(q3) + (repeat,):
        assert _hom_is_iso(h) == brute_is_iso(over_f2(h)), h
        assert _hom_is_identity(h) == _hom_is_identity(over_f2(h)), h


def test_kernels_are_the_element_kernels():
    """`rings.kernel` of every finite hom here and of the homs between
    small grid products of cyclic rings, against the elements that each
    hom sends to 0."""
    homs = finite_homs() + [h for S in SMALL_CYCLIC for T in SMALL_CYCLIC for h in rg.all_homs(S, T)]
    partial = 0
    for h in homs:
        kept = rg.kernel(h)
        assert brute_ideal(h.source, kept) == {x for x in rg.enumerate_elements(h.source)
                                                if h(x) == h.target.zero}, (h, kept)
        partial += any(0 < k < b for k, b in zip(kept, h.source.blocks))
    assert partial >= 8, partial


def morphism_squares(r):
    """Every restriction square of the morphism of each block hom out of r."""
    squares = []
    for theta in block_homs(r) + tuple(h for h in table_homs() + list(unmapped_homs())
                                       if h.source == r):
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


def outcome(fn, *args):
    """("ok", value) or the NCSpecError's class name and message."""
    try:
        return "ok", fn(*args)
    except NCSpecError as exc:
        return type(exc).__name__, str(exc)


def test_quotient_pushouts_by_block_kernels_match_the_element_kernels():
    """Every commuting square of the restriction squares of the block,
    table and unmapped homs out of the finite rings, with every leg swapped
    for every other block hom between its corners, against the ideal
    closure by elements; over Q, the legs' kernels read as over F2."""
    seen = {}
    for r in SSA_RINGS[:-1] + [M2, SemisimpleAlgebra(F2, (2, 1)), ModularRing(6),
                               rg.ProductRing((ModularRing(2),) * 2)]:
        squares = morphism_squares(r)
        legs = ("top", "left", "bottom", "right")
        squares += [LocalizationSquare(**{**{k: getattr(sq, k) for k in legs}, leg: other})
                    for sq in list(squares) for leg in legs
                    for other in block_homs(getattr(sq, leg).source)
                    if other.target == getattr(sq, leg).target and other != getattr(sq, leg)]
        for sq in squares:
            if sq.commutes():
                got = outcome(_pushout_by_kernels, sq)
                assert got == outcome(brute_pushout_by_kernels, sq), sq
                seen[got] = seen.get(got, 0) + 1
    assert set(seen) == {("ok", True), ("ok", False),
                         ("UnsupportedClass", "no leg out of the top-left corner is onto")}, seen
    assert min(seen.values()) > 10, seen
    for sq in morphism_squares(SSA_RINGS[-1]):
        for h in (sq.top, sq.left, sq.bottom, sq.right):
            assert rg.kernel(h) == rg.kernel(over_f2(h)), h


def test_tables_that_are_not_onto_are_prim():
    """The diagonal F2 x F2 -> M2(F2) and Z/6 -> M2(F2), x -> x 1, tables
    with no block map that are not onto: the kernel rule reads each of
    their squares off the images of the generators of the ideal that the
    left leg kills, as the ideal closure by elements does, and both are
    prim."""
    unmapped = 0
    for theta in (unmapped_homs()[1], unmapped_homs()[4]):
        assert theta.block_map is None
        m = sheafspec.ncspec_morphism(theta)
        for _pair, sq in m.restriction_squares(range(m.target.lattice.n)):
            assert outcome(_pushout_by_kernels, sq) == outcome(brute_pushout_by_kernels, sq), sq
            unmapped += sq.top.block_map is None
        assert prim_verdict(theta) == (True, None), theta
    assert unmapped == 10, unmapped


def test_quotients_that_keep_part_of_a_local_factor():
    """Squares of canonical quotients Z/n -> Z/a, Z/n -> Z/b, Z/a -> Z/d
    and Z/b -> Z/d: where Z/n -> Z/b keeps Z/p^e of a local factor Z/p^c,
    0 < e < c, the ideal it kills is generated by p^e u_s, not by the
    block unit u_s.  Each square pushes out iff d = gcd(a, b), as the
    ideal closure by elements finds."""
    partial = 0
    for n in (8, 12, 36):
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for a, b in product(divisors, repeat=2):
            partial += any(0 < k < q for k, q in zip(rg.kernel(rg.quotient_hom(n, b)),
                                                   ModularRing(n).blocks))
            for d in (d for d in divisors if a % d == 0 and b % d == 0):
                sq = LocalizationSquare(top=rg.quotient_hom(n, a), left=rg.quotient_hom(n, b),
                                        bottom=rg.quotient_hom(b, d), right=rg.quotient_hom(a, d))
                got = outcome(_pushout_by_kernels, sq)
                assert got == outcome(brute_pushout_by_kernels, sq) == ("ok", d == gcd(a, b)), sq
    assert partial > 20, partial


def prim_verdict(theta):
    """(prim, witness) of the morphism of theta, or the error's class name."""
    try:
        report = sheafspec.is_prim_report(sheafspec.ncspec_morphism(theta))
    except NCSpecError as exc:
        return type(exc).__name__
    return report["prim"], report["witness"]


def test_prim_over_q_matches_its_f2_twin():
    """Every block projection between small semisimple algebras, and the
    projection Q x M2(Q) -> M2(Q) onto a matrix ring, answers the prim
    check over Q and over F3 as the same rule does over F2: the legs of
    their squares have block maps, so the kernel rule decides them over
    any field.  Each of the 70 homs is prim."""
    shapes = [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]
    pairs = [(SemisimpleAlgebra(F2, a), SemisimpleAlgebra(F2, b), BlockRule(feeds))
             for a, b in product(shapes, repeat=2)
             for feeds in product(range(len(a)), repeat=len(b))]
    pairs.append((SemisimpleAlgebra(F2, (1, 2)), MatrixRing(F2, 2), BlockRule((1,))))
    seen = {}
    for S, T, rule in pairs:
        try:
            h = rg.hom_validate(RingHom(S, T, rule))
        except NCSpecError:
            continue
        got = prim_verdict(h)
        assert prim_verdict(over_q(h)) == prim_verdict(over_q(h, F3)) == got, h
        seen[got] = seen.get(got, 0) + 1
    assert seen == {(True, None): 70}, seen


def test_block_homs_out_of_matrix_blocks_are_prim():
    """Every block hom out of M2(F2), F2 x M2(F2) and M2(F2) x F2 x M2(F2)
    into the semisimple algebra of its feeds (one to three of them), and
    onto M2(F2) itself, is prim, with the diagonals among them."""
    seen = 0
    for S in (M2, SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F2, (2, 1, 2))):
        blocks = S.blocks
        for k in (1, 2, 3):
            for feeds in product(range(len(blocks)), repeat=k):
                T = SemisimpleAlgebra(F2, tuple(blocks[s] for s in feeds))
                for target in [T] + ([M2] if k == 1 and blocks[feeds[0]] == 2 else []):
                    h = rg.hom_validate(RingHom(S, target, BlockRule(feeds)))
                    assert prim_verdict(h) == (True, None), h
                    seen += 1
    assert seen == 4 + 15 + 41, seen


def test_induced_maps_of_unmapped_homs_match_the_table_descent():
    """induced_between against the descent over every element, for the
    table and unmapped homs and every pair of a source and a target cell
    (a pair with no descent among them)."""
    seen = {}
    for theta in table_homs() + list(unmapped_homs()):
        sources = sheafspec.ncspec(theta.source).lattice.cells
        for a in sources:
            for b in sheafspec.ncspec(theta.target).lattice.cells:
                LA, LB = a.localized, b.localized
                got = localization.induced_between(theta, LA, LB)
                want = outcome(brute_hom_descend, LA.insertion,
                               rg.hom_compose(LB.insertion, theta))
                assert want[0] == ("UnsupportedClass" if got is None else "ok"), (theta, a, b)
                if got is not None:
                    assert got.validated and got.as_table() == want[1].as_table()
                seen[want[0]] = seen.get(want[0], 0) + 1
    assert seen["ok"] > 20 and seen["UnsupportedClass"] > 20, seen


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
