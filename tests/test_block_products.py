"""Products of block rings of different kinds against the exhaustive oracles.

A product's blocks are its factors' blocks, so a product of a cyclic
ring with a matrix ring or a semisimple algebra, or of two matrix rings,
or with a zero factor, has a localization lattice like any block ring.
Each oracle of `conftest` runs on the products it applies to: the
presheaf laws and `localize` at every element on the first six, the
induced morphisms with their `verify` and prim checks on the projections
and the diagonal of Z/2 x M2(F2), and `spec`, `embed` and `exp` on the
commutative ones.  `spec` meets two oracles: the element scan for
primitive idempotents (`brute_spec`) and, on the rings of at most 100
elements, the closure of the principal ideals (`brute_spec_primes`).
"""

import pytest
from conftest import (
    brute_embed_phi,
    brute_localize,
    brute_ncspec_morphism,
    brute_presheaf_laws,
    brute_prim_witness,
    brute_spec,
    brute_spec_exponential_iso,
    brute_spec_primes,
    brute_verify,
)

from ncspec import commbridge, sheafspec
from ncspec import rings as rg
from ncspec.localization import localize
from ncspec.rings import MatrixRing, ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing

F2, F3 = PrimeField(2), PrimeField(3)
Z2, M2F2 = ModularRing(2), MatrixRing(F2, 2)
Z2xM2F2 = rg.product_ring([Z2, M2F2])

PRODUCTS = {
    "Z2xM1F3": rg.product_ring([Z2, MatrixRing(F3, 1)]),
    "Z2xM2F2": Z2xM2F2,
    "0xZ6": rg.product_ring([ZeroRing(), ModularRing(6)]),
    "Z6xSSA-F2-1-2": rg.product_ring([ModularRing(6), SemisimpleAlgebra(F2, (1, 2))]),
    "M2F2xM2F2": rg.product_ring([M2F2, M2F2]),
    "Z4xM1F2": rg.product_ring([ModularRing(4), MatrixRing(F2, 1)]),
    "Z12xSSA-F3-1-1xZ6": rg.product_ring(
        [ModularRing(12), SemisimpleAlgebra(F3, (1, 1)), ModularRing(6)]),
}
SHEAVES = list(PRODUCTS)[:6]
SPECS = ["Z2xM1F3", "0xZ6", "Z4xM1F2", "Z12xSSA-F3-1-1xZ6"]
BRIDGES = ["Z2xM1F3", "0xZ6", "Z4xM1F2"]


def _block_hom(source, target, feeds):
    return rg.hom_validate(rg.RingHom(source, target, rg.BlockRule(feeds)))


MORPHISMS = {
    "Z2xM2F2->Z2": _block_hom(Z2xM2F2, Z2, (0,)),
    "Z2xM2F2->M2F2": _block_hom(Z2xM2F2, M2F2, (1,)),
    "Z2->Z2xM2F2": rg.hom_validate(rg.hom_from_callable(
        Z2, Z2xM2F2, lambda x: rg.from_int(Z2xM2F2, x.payload))),
}


@pytest.mark.parametrize("name", SHEAVES)
def test_presheaf_laws_hold_by_the_triple_loop(name):
    sp = sheafspec.ncspec(PRODUCTS[name])
    assert brute_presheaf_laws(sp.sheaf)
    assert sp.lattice.n == 2 ** len(PRODUCTS[name].blocks)


@pytest.mark.parametrize("name", SHEAVES)
def test_localize_matches_the_oracle_at_every_element(name):
    r = PRODUCTS[name]
    for x in rg.enumerate_elements(r):
        L = localize(r, (x,))
        got = {"result": L.result, "subset": L.subset, "images": L.insertion.images,
               "block_map": L.insertion.block_map, "inverse_witnesses": L.inverse_witnesses}
        assert got == brute_localize(r, (x,)), x


@pytest.mark.parametrize("name", list(MORPHISMS))
def test_induced_morphisms_match_the_oracles(name):
    theta = MORPHISMS[name]
    m = sheafspec.ncspec_morphism(theta)
    assert m == brute_ncspec_morphism(theta)
    assert m.verify() and brute_verify(m)
    report = sheafspec.is_prim_report(m)
    assert report["witness"] == brute_prim_witness(m, range(m.target.lattice.n))
    assert report["prim"] is (report["witness"] is None)


@pytest.mark.parametrize("name", SPECS)
def test_spec_matches_the_oracles(name):
    r = PRODUCTS[name]
    primes = commbridge.spec(r).primes
    assert primes == brute_spec(r)[0]
    if rg.cardinality(r) <= 100:  # the ideal closure takes minutes on 648 elements
        assert primes == tuple(brute_spec_primes(r))


@pytest.mark.parametrize("name", BRIDGES)
def test_embed_and_exp_match_the_element_loops(name):
    r = PRODUCTS[name]
    emb = commbridge.embed_phi(r)
    assert (emb.point_map, emb.report["checks"]) == brute_embed_phi(r)
    assert emb.report["status"] == "pass"
    iso, want = commbridge.spec_exponential_iso(r), brute_spec_exponential_iso(r)
    assert (iso["status"], iso["gamma"]) == (want["status"], want["gamma"])
    assert iso["status"] == "pass"
