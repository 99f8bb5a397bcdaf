"""The prim check by pushout pasting and the per-morphism walk state,
against the full pair walk they replace.

Where every square verdict is exact, `is_prim_report` checks only the
squares out of the minimal cells and falls back to the full walk when one
fails; `conftest.brute_prim_witness`, which builds every square of every
comparable pair from fresh preimages, is the oracle for verdict, witness
and exception type.  `verify` and the prim check share one square per
pair, and each square decides its commutation once.  Every hom the
library builds between block rings carries its block map in its rule;
the readback off the images of the block idempotents is the oracle.
"""

from collections import Counter
from itertools import product

import pytest

from conftest import brute_prim_witness
from test_acceptance import _crafted_negatives
from test_cellwise import mutants
from test_block_maps import block_homs, table_homs, unmapped_homs
from test_prim_structural import _grid_homs, outcome
from test_sheafspec import (
    crafted_swapped_global_comap,
    crafted_z3_to_bottom_point,
    crafted_zero_to_closed_point,
    discontinuous_endomorphisms,
)

from ncspec import localization, sheafspec
from ncspec import rings as rg
from ncspec.errors import PresheafLawViolation
from ncspec.latspace import is_completely_union_irreducible
from ncspec.records import FrozenInstanceError
from ncspec.rings import MatrixRing, ModularRing, PrimeField, SemisimpleAlgebra

z = ModularRing


def induced_morphisms():
    """The morphisms of the grid homs, three quotients, and the tables
    between block rings of `test_block_maps.py`, with or without a block
    map."""
    homs = _grid_homs() + [rg.quotient_hom(n, m) for n, m in ((2310, 210), (36, 6), (72, 12))]
    return [sheafspec.ncspec_morphism(theta)
            for theta in homs + table_homs() + list(unmapped_homs())]


def twisted_comaps():
    """The identity morphisms of M2(F2) and M2(F2) x F2 with their global
    comap twisted by the inner automorphism of g = [[1, 1], [0, 1]] on the
    M2(F2) block, a table with no block map.  Over M2(F2) this is the
    morphism the automorphism induces, so it is prim; over M2(F2) x F2 the
    square out of the bottom into the cell keeping the M2(F2) block fails
    to commute."""
    out = []
    for conj in (table_homs()[0], unmapped_homs()[0]):
        m = sheafspec.ncspec_morphism(rg.identity_hom(conj.source))
        bottom = m.target.lattice.bottom
        out.append(sheafspec.RingedSpaceMorphism(m.source, m.target, m.point_map,
                                                 {**m.comap, bottom: conj}))
    return out


def crafted_morphisms():
    return ([crafted_zero_to_closed_point(), crafted_z3_to_bottom_point(),
             crafted_swapped_global_comap()]
            + discontinuous_endomorphisms() + _crafted_negatives() + twisted_comaps())


def prim_outcome(m):
    """("ok", the witness of `is_prim_report`), or the name and message of
    what it raises."""
    got = outcome(sheafspec.is_prim_report, m)
    if got[0] != "ok":
        return got
    assert set(got[1]) == {"prim", "witness"} and got[1]["prim"] is (got[1]["witness"] is None)
    return "ok", got[1]["witness"]


def kind(result):
    if result[0] != "ok":
        return result[0]
    return "prim" if result[1] is None else result[1]["condition"]


def test_prim_by_pasting_matches_the_full_walk():
    seen = Counter()
    pasted = Counter()
    for m in induced_morphisms() + crafted_morphisms():
        n = m.target.lattice.n
        got = prim_outcome(m)
        assert got == outcome(brute_prim_witness, m, range(n)), m
        seen[kind(got)] += 1
        if got[0] == "ok" and kind(got) != "preimage_not_union_irreducible":
            validated = all(h.validated for h in m.comap.values())
            mapped = all(h.block_map is not None for h in m.comap.values())
            decides = sheafspec._pasting_decides(m, range(n))
            pasted[validated, mapped, decides, kind(got)] += 1
    assert set(seen) == {"prim", "restriction_square_not_pushout",
                         "preimage_not_union_irreducible", "NotOpen"}, seen
    # every walk whose comaps are validated is shortened, on prim and on
    # non-prim morphisms, with and without tables that have no block map
    assert all(decides for validated, _m, decides, _k in pasted if validated), pasted
    assert {(mapped, k) for validated, mapped, _d, k in pasted if validated} == {
        (mapped, k) for mapped in (True, False)
        for k in ("prim", "restriction_square_not_pushout")}, pasted


def test_prim_by_pasting_matches_the_full_walk_on_one_comap_mutants():
    seen = Counter()
    for theta in _grid_homs() + [rg.quotient_hom(2310, 210)]:
        for mm in mutants(sheafspec.ncspec_morphism(theta)):
            got = prim_outcome(mm)
            assert got == outcome(brute_prim_witness, mm, range(mm.target.lattice.n)), theta
            seen[kind(got)] += 1
    # a comap with the ends of another cell makes a square whose legs do
    # not meet; one with the right ends is no longer induced, so not prim
    assert set(seen) == {"restriction_square_not_pushout", "CompositionMismatch"}, seen
    assert seen["restriction_square_not_pushout"] == 12, seen


def enumerated_morphisms(source, target):
    """Every morphism NCSpec(source) -> NCSpec(target) of products of cyclic
    rings whose preimages of basic opens are principal, with every choice
    of comaps between the section rings."""
    X, Y = sheafspec.ncspec(source), sheafspec.ncspec(target)
    out = []
    for images in product(range(Y.space.n), repeat=X.space.n):
        point_map = dict(enumerate(images))
        pre = [frozenset(x for x, y in point_map.items() if y in Y.space.up[j])
               for j in range(Y.lattice.n)]
        if not all(X.space.is_open(U) and is_completely_union_irreducible(X.space, U)
                   for U in pre):
            continue
        choices = [rg.all_homs(Y.sheaf.assignment[j], sheafspec.sections(X, U))
                   for j, U in enumerate(pre)]
        out += [sheafspec.RingedSpaceMorphism(X, Y, point_map, dict(enumerate(comap)))
                for comap in product(*choices)]
    return out


def test_prim_by_pasting_matches_the_full_walk_on_enumerated_morphisms():
    seen = Counter()
    for target in (ModularRing(30), rg.product_ring([z(2), z(6)])):
        for m in enumerated_morphisms(z(6), target):
            got = prim_outcome(m)
            assert got == outcome(brute_prim_witness, m, range(m.target.lattice.n))
            seen[kind(got), sheafspec._pasting_decides(m, range(m.target.lattice.n))] += 1
    assert set(seen) == {("prim", True), ("restriction_square_not_pushout", True)}, seen


def test_enumerated_morphisms_that_pass_are_the_induced_ones():
    """Fullness on every candidate morphism NCSpec(Z/6) -> NCSpec(T): the
    ones that pass `verify` and `is_prim` are exactly the morphisms of the
    homs T -> Z/6, and `recover_hom` gives each hom back."""
    counts = []
    for T in (z(30), rg.product_ring([z(2), z(6)]), z(12), z(6)):
        candidates = enumerated_morphisms(z(6), T)
        passing = {m for m in candidates if m.verify() and sheafspec.is_prim(m)}
        homs = rg.all_homs(T, z(6))
        assert passing == {sheafspec.ncspec_morphism(h) for h in homs}, T
        assert {sheafspec.recover_hom(m) for m in passing} == set(homs), T
        counts.append((len(candidates), len(passing)))
    assert counts == [(16, 1), (72, 2), (4, 1), (4, 1)], counts


def covers(m):
    """The whole space alone, with every principal open, and with the
    union of every two principal opens (a piece with two minimal cells)."""
    Y = m.target.space
    whole, ups = Y.carrier(), sorted(set(Y.up), key=sorted)
    return ([whole], [whole] + ups,
            [whole] + [a | b for a in ups for b in ups if a != b and a | b != whole])


def brute_locality(m, cover):
    """`prim_is_local_check` by the full walk over the whole and each piece."""
    whole = brute_prim_witness(m, range(m.target.lattice.n)) is None
    pieces = all(brute_prim_witness(m, sorted(frozenset(U))) is None for U in cover)
    if whole != pieces:
        raise PresheafLawViolation(
            f"primness must be a local property: {whole} on the whole, {pieces} on the cover")
    return whole


def test_prim_locality_by_pasting_matches_the_full_walk():
    morphisms = [m for m in induced_morphisms() + crafted_morphisms()
                 if m.target.lattice.n <= 8]
    verdicts = Counter()
    for m in morphisms:
        for cover in covers(m):
            for U in cover:
                cells = sorted(frozenset(U))
                assert (outcome(sheafspec._prim_witness, m, cells)
                        == outcome(brute_prim_witness, m, cells)), (m, U)
            got = outcome(sheafspec.prim_is_local_check, m, cover)
            assert got == outcome(brute_locality, m, cover), (m, cover)
            verdicts[got[1] if got[0] == "ok" else got[0]] += 1
    assert verdicts[True] > 50 and verdicts[False] > 3, verdicts
    assert PresheafLawViolation.__name__ not in verdicts, verdicts


def test_warm_quotient_query_builds_decides_and_pulls_back_once_per_cell(monkeypatch):
    def query():
        m = sheafspec.ncspec_morphism(rg.quotient_hom(30, 6))
        return m.verify(), sheafspec.is_prim_report(m)["prim"]

    assert query() == (True, True)
    calls = Counter()
    square = sheafspec.LocalizationSquare
    commutation = vars(localization.LocalizationSquare)["_commutation"]
    commutes = commutation.func
    preimage = sheafspec.RingedSpaceMorphism.preimage_base_open

    def built(**legs):
        calls["squares"] += 1
        return square(**legs)

    def decided(sq):
        calls["commutes"] += 1
        return commutes(sq)

    def pulled_back(m, U):
        calls["preimages"] += 1
        return preimage(m, U)

    monkeypatch.setattr(sheafspec, "LocalizationSquare", built)
    monkeypatch.setattr(commutation, "func", decided)
    monkeypatch.setattr(sheafspec.RingedSpaceMorphism, "preimage_base_open", pulled_back)
    # a fresh build: a memoized morphism keeps its squares and its verdicts
    sheafspec.clear_caches()
    assert query() == (True, True)
    assert calls == Counter(squares=8, commutes=8, preimages=8), calls


def test_verify_stops_at_the_first_bad_comap_before_later_preimages(monkeypatch):
    m = sheafspec.ncspec_morphism(rg.quotient_hom(30, 6))
    first = min(m.comap)
    wrong = next(h for j, h in m.comap.items() if h.source != m.comap[first].source)
    bad = sheafspec.RingedSpaceMorphism(m.source, m.target, m.point_map,
                                        {**m.comap, first: wrong})
    pulled = []
    preimage = sheafspec.RingedSpaceMorphism.preimage_base_open
    monkeypatch.setattr(sheafspec.RingedSpaceMorphism, "preimage_base_open",
                        lambda mm, U: pulled.append(U) or preimage(mm, U))
    assert bad.verify() is False
    assert pulled == [m.target.basic_open(first)]


def test_morphisms_are_frozen_with_read_only_maps():
    m = sheafspec.ncspec_morphism(rg.quotient_hom(6, 3))
    for name in ("source", "target", "point_map", "comap"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, name, None)
    for mapping in (m.point_map, m.comap):
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = None
    # the maps are copies, so changing the dicts it was built from does not reach it
    point_map, comap = dict(m.point_map), dict(m.comap)
    twin = sheafspec.RingedSpaceMorphism(m.source, m.target, point_map, comap)
    comap[next(iter(comap))] = None
    assert twin == m and twin.verify() and sheafspec.is_prim(twin)


def _block_unit(r, s):
    """The idempotent of the block ring r that is 1 on block s and 0 on the others."""
    if r.local_factors is None:
        if isinstance(r, MatrixRing):
            return r.one
        return rg.RingElement(r, tuple(f.from_int(int(k == s)) for k, f in enumerate(r.factors)))
    i, _p, q = r.local_factors[s]
    comps = tuple(rg.unit_idempotent(n, n // q) if k == i else 0
                  for k, n in enumerate(r.moduli))
    return rg.RingElement(r, comps if isinstance(r, rg.ProductRing) else comps[0])


def block_map_off_images(h):
    """Entry l is the one source block whose idempotent h sends to 1 on target block l."""
    images = [h(_block_unit(h.source, s)) for s in range(len(h.source.blocks))]
    bmap = []
    for l in range(len(h.target.blocks)):
        unit = _block_unit(h.target, l)
        (s,) = [s for s, x in enumerate(images) if x * unit == unit]
        bmap.append(s)
    return tuple(bmap)


def test_comaps_keep_the_local_map_their_images_give():
    """Every comap, restriction, cell insertion, `quotient_hom` and
    `all_homs` output between block rings is built from its block map."""
    rings = [ModularRing(2310), rg.product_ring([ModularRing(12), ModularRing(10)]),
             SemisimpleAlgebra(PrimeField(2), (1, 1, 1)), SemisimpleAlgebra(PrimeField(3), (1, 2)),
             MatrixRing(PrimeField(2), 2)]
    homs = _grid_homs() + [rg.quotient_hom(2310, 210)]
    homs += [h for r in rings[2:] for h in block_homs(r)]
    built = list(homs)
    for theta in homs:
        built += sheafspec.ncspec_morphism(theta).comap.values()
    for r in rings:
        sheaf, lat = sheafspec.ncspec(r).sheaf, sheafspec.ncspec(r).lattice
        built += [cell.localized.insertion for cell in lat.cells]
        built += [sheaf.restriction(i, j) for i in range(lat.n) for j in range(lat.n)
                  if lat.leq(i, j)]
    rules = Counter()
    for h in built:
        assert isinstance(h.rule, (rg.BlockRule, rg.IdentityRule, rg.ToZeroRule)), h
        assert h.block_map == block_map_off_images(h), h
        rules[type(h.rule).__name__] += 1
    assert min(rules.values()) > 100 and rules["BlockRule"] > 500, rules
