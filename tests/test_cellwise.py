"""Induced morphisms and the Spec bridge read off local factors and checked
once per cell, against the element paths they replace.

`ncspec_morphism` between products of cyclic rings maps cells by their
keys and reads each comap off local maps; the oracle pushes every cell's
subset through the hom and descends each comap by the table.  `verify`
checks one square per target cell; the oracle checks every comparable
pair.  `spec`, `embed_phi`, `union_of_primes_bijection` and
`spec_exponential_iso` run their checks on one element per cell; the
oracles loop over every element.
"""

from itertools import product
from math import prod

from conftest import (
    brute_based_space,
    brute_distinguished,
    brute_embed_phi,
    brute_ncspec_morphism,
    brute_spec,
    brute_spec_exponential_iso,
    brute_union_of_primes_bijection,
    brute_verify,
)
from test_prim_structural import _grid_homs, outcome

from ncspec import commbridge, latspace, localization, sheafspec
from ncspec import rings as rg
from ncspec.rings import ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


def morphism_homs():
    return _grid_homs() + [rg.quotient_hom(2310, 210)]


def bridge_rings():
    """The zero ring, a product with a factor of modulus 1, products with a
    prime in two factors, F2^k, a commutative semisimple algebra over F3
    and cyclic rings."""
    return [ZeroRing(), rg.ProductRing((ModularRing(1), ModularRing(6))),
            cyclic(6, 10), cyclic(2, 2, 2), cyclic(4, 6),
            SemisimpleAlgebra(PrimeField(2), (1, 1, 1)), SemisimpleAlgebra(PrimeField(3), (1, 1)),
            ModularRing(2), ModularRing(12), ModularRing(30), ModularRing(60), ModularRing(210)]


# ---------------------------------------------------------------------------
# induced morphisms

def test_morphisms_by_local_maps_match_the_element_path():
    for theta in morphism_homs():
        m = sheafspec.ncspec_morphism(theta)
        want = brute_ncspec_morphism(theta)
        assert m.point_map == want.point_map, theta
        assert m.comap.keys() == want.comap.keys()
        for j, h in m.comap.items():
            assert h.validated and h == want.comap[j], (theta, j)
            assert hash(h) == hash(want.comap[j]) and h.as_table() == want.comap[j].as_table()
        assert m == want


def test_morphism_of_a_ring_with_a_factor_of_modulus_one():
    r = rg.ProductRing((ModularRing(1), ModularRing(6)))
    for theta in (rg.identity_hom(r), rg.all_homs(r, ModularRing(3))[0]):
        assert sheafspec.ncspec_morphism(theta) == brute_ncspec_morphism(theta)


def mutants(m):
    """m with one comap replaced: by every other hom between the same rings,
    and by the comap of another cell (wrong endpoints)."""
    out = []
    for j, h in m.comap.items():
        others = [g for g in rg.all_homs(h.source, h.target) if g != h]
        others += [g for k, g in m.comap.items() if k != j and g != h][:1]
        out += [sheafspec.RingedSpaceMorphism(m.source, m.target, m.point_map, {**m.comap, j: g})
                for g in others]
    return out


def test_verify_one_square_per_cell_matches_the_pair_loop():
    seen = {True: 0, False: 0}
    for theta in morphism_homs():
        m = sheafspec.ncspec_morphism(theta)
        for mm in [m] + mutants(m):
            got, want = outcome(mm.verify), outcome(brute_verify, mm)
            assert got[0] == want[0] and (got[0] != "ok" or got[1] == want[1]), (theta, got, want)
            if got[0] == "ok":
                seen[got[1]] += 1
    assert seen[True] > 30 and seen[False] > 200, seen


def test_verify_builds_one_square_per_target_cell(monkeypatch):
    # a fresh build: a memoized morphism keeps its squares and its verdict
    sheafspec.clear_caches()
    m = sheafspec.ncspec_morphism(rg.quotient_hom(30, 6))
    built = []
    square = sheafspec.LocalizationSquare

    def counted(**legs):
        built.append(legs)
        return square(**legs)

    monkeypatch.setattr(sheafspec, "LocalizationSquare", counted)
    assert m.verify()
    assert m.target.lattice.n == 8 and len(built) == 8


def test_warm_quotient_query_descends_localizes_and_locates_nothing(monkeypatch):
    def query():
        theta = rg.quotient_hom(30, 6)
        m = sheafspec.ncspec_morphism(theta)
        return m.verify(), sheafspec.is_prim_report(m)["prim"], sheafspec.recover_hom(m) == theta

    assert query() == (True, True, True)
    calls = []

    def counting(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))

    counting(rg, "hom_from_callable")
    counting(localization, "_localize_cached")
    counting(latspace.LocalizationLattice, "cell_of_subset")
    # warm spaces, a fresh morphism
    sheafspec._induced_morphism.cache_clear()
    assert query() == (True, True, True)
    assert calls == []


# ---------------------------------------------------------------------------
# the Spec bridge

def test_spec_matches_the_element_scan():
    for r in bridge_rings():
        s = commbridge.spec(r)
        primes, elems = brute_spec(r)
        assert s.primes == primes and s.elements == elems, r
        assert all(s.distinguished(f) == brute_distinguished(primes, f) for f in elems), r
        assert s.based_space() == brute_based_space(primes, elems), r


def test_embed_phi_matches_the_element_loops():
    for r in bridge_rings():
        emb = commbridge.embed_phi(r)
        point_map, checks = brute_embed_phi(r)
        assert (emb.point_map, emb.report["checks"]) == (point_map, checks), r
        assert emb.report["status"] == "pass", r


def test_union_of_primes_bijection_matches_the_element_unions():
    for r in bridge_rings():
        rep = commbridge.union_of_primes_bijection(r)
        assert rep == brute_union_of_primes_bijection(r), r
        assert rep["status"] == "pass" and rep["union_count"] == 2 ** commbridge.spec(r).n, r


def test_spec_exponential_iso_matches_the_element_loops():
    for r in bridge_rings():
        iso = commbridge.spec_exponential_iso(r)
        want = brute_spec_exponential_iso(r)
        assert (iso["status"], iso["gamma"]) == (want["status"], want["gamma"]), r
        assert iso["status"] == "pass", r


def test_spec_orders_ties_by_local_factor_as_by_reprs():
    """`spec` sorts primes of equal size by local-factor index; the repr
    sort of their elements (`brute_spec`) is the oracle, on products of
    2-4 cyclic rings, most with ties."""
    rings = ([cyclic(a, b) for a in range(2, 13) for b in range(2, 13)]
             + [cyclic(a, b, c) for a in range(2, 7) for b in range(2, 7) for c in (2, 3, 4, 6)]
             + [cyclic(*mods) for mods in product((2, 3, 4, 6), repeat=4)
                if prod(mods) <= 150])
    ties = 0
    for r in rings:
        sizes = [rg.cardinality(r) // p for _j, p, _q in r.local_factors]
        ties += len(set(sizes)) < len(sizes)
        assert commbridge.spec(r).primes == brute_spec(r)[0], r
    assert ties > 100, ties


def test_bridge_enumerates_no_element(monkeypatch):
    # cyclic(6, 10), cyclic(2, 6, 9) and cyclic(30, 210) have primes of equal size
    rings = (ModularRing(30), ModularRing(2310), cyclic(4, 15), cyclic(6, 10), cyclic(2, 6, 9),
             cyclic(30, 210))
    for r in rings:
        sheafspec.ncspec(r)
    calls = []
    monkeypatch.setattr(rg, "enumerate_elements", lambda r: calls.append(r) or [])
    for r in rings:
        assert [a.payload for a in commbridge.spec(r).idempotents]
        assert commbridge.embed_phi(r).report["status"] == "pass"
        assert commbridge.union_of_primes_bijection(r)["status"] == "pass"
        assert commbridge.spec_exponential_iso(r)["status"] == "pass"
    assert calls == []
