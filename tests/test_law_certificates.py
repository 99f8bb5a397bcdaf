"""The law checks by certificate against the loops they replace.

Each library check runs once per comparable (or unordered) pair and rests
on an argument in its docstring: the insertions of a ring sheaf are
epimorphisms, m -> 1 (x) m is onto each stalk of a module sheaf, the
exponential's joins are intersections of signatures, and density needs
only the basic opens.  Here each one is compared with the triple loop or
the scan over all opens in `conftest.py`, on good data and on data made
wrong on purpose.
"""

from itertools import product

import pytest

from conftest import (
    brute_dense_off_point,
    brute_hasse_edges,
    brute_module_presheaf_laws,
    brute_presheaf_laws,
    brute_order_closure,
    brute_t_complete,
    finite_commutative_grid,
    seeded_random,
)

from ncspec import rings as rg
from ncspec.commbridge import (
    BasedSpace,
    ExponentialSpace,
    _check_t_complete_semilattice,
    _dense_off_point,
    embed_phi,
    exponential,
    spec,
)
from ncspec.errors import NotTComplete, PresheafLawViolation
from ncspec.glueqcoh import FiniteModule, GlueDatum, ModuleSheaf, glue, tilde_module
from ncspec.latspace import AlexandrovSpace
from ncspec.rings import MatrixRing, ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing
from ncspec.sheafspec import SheafOnBase, ncspec


F2 = PrimeField(2)


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


def lattice_rings():
    # every grid ring: each is a block ring, so each has a localization lattice
    return finite_commutative_grid()


def certificate_passes(sheaf) -> bool:
    try:
        sheaf.check_presheaf_laws()
    except PresheafLawViolation:
        return False
    return True


# ---------------------------------------------------------------------------
# ring sheaves: one insertion law per comparable pair

def test_presheaf_certificate_agrees_with_the_triple_loop_on_the_grid():
    for r in lattice_rings():
        sheaf = ncspec(r).sheaf
        assert certificate_passes(sheaf) and brute_presheaf_laws(sheaf), r


@pytest.mark.parametrize("k", range(1, 7))
def test_presheaf_certificate_agrees_with_the_triple_loop_on_ssa_f2(k):
    sheaf = ncspec(SemisimpleAlgebra(PrimeField(2), (1,) * k)).sheaf
    assert certificate_passes(sheaf) and brute_presheaf_laws(sheaf)


@pytest.mark.parametrize("r", [SemisimpleAlgebra(PrimeField(3), (1, 2)), MatrixRing(F2, 2),
                               SemisimpleAlgebra(rg.Rationals(), (1, 1, 1))], ids=repr)
def test_presheaf_certificate_agrees_with_the_triple_loop_on_other_block_rings(r):
    sheaf = ncspec(r).sheaf
    assert certificate_passes(sheaf) and brute_presheaf_laws(sheaf)


def block_homs(S, T):
    """The homs S -> T of products of cyclic rings (`all_homs`), or the
    block projections of a semisimple algebra S onto T, a block repeated
    or left out included; over F_p with 1x1 blocks those are all homs."""
    if not isinstance(S, SemisimpleAlgebra):
        return rg.all_homs(S, T)
    if rg.is_zero_ring(T):
        return [rg.to_zero_hom(S, T)]
    return [rg.hom_validate(rg.RingHom(S, T, rg.BlockRule(kept)))
            for kept in product(range(len(S.dims)), repeat=len(T.dims))
            if tuple(S.dims[i] for i in kept) == T.dims]


@pytest.mark.parametrize("r", [cyclic(2, 2, 2), cyclic(2, 6), cyclic(2, 2, 3),
                               SemisimpleAlgebra(F2, (1, 1, 1)),
                               SemisimpleAlgebra(PrimeField(3), (1, 1, 2))], ids=repr)
def test_a_wrong_restriction_fails_the_certificate_whenever_it_fails_the_loop(r):
    # every ring hom R_i -> R_j other than the true restriction, put in its
    # place: the certificate rejects each one (ins_i is onto), and so each
    # one the loop rejects
    sp = ncspec(r)
    lat = sp.lattice
    rejected_by_loop = 0
    for i in range(lat.n):
        for j in lat.space.up[i]:
            true = sp.sheaf.restriction(i, j)
            for h in block_homs(sp.sheaf.assignment[i], sp.sheaf.assignment[j]):
                if h == true:
                    continue
                sheaf = SheafOnBase(lat, sp.sheaf.assignment)
                sheaf._res_cache[(i, j)] = h
                assert not certificate_passes(sheaf), (i, j, h)
                rejected_by_loop += not brute_presheaf_laws(sheaf)
    assert rejected_by_loop


# ---------------------------------------------------------------------------
# module sheaves: one law per comparable pair on the generators of M

MODULES = [(6, (6,)), (6, (2, 3)), (12, (12,)), (12, (4, 6)), (12, (2, 2, 3)),
           (30, (30,)), (30, (10, 15)), (30, (2, 3, 5)), (60, (60,)), (60, (4, 6)),
           (6, ())]


@pytest.mark.parametrize("n, orders", MODULES)
def test_module_certificate_agrees_with_the_triple_loop(n, orders):
    sheaf = tilde_module(ModularRing(n), FiniteModule(ModularRing(n), orders))
    assert brute_module_presheaf_laws(sheaf)


def doubled_at(pair):
    """ModuleSheaf.restriction_map with the map at one pair of cells doubled."""
    restriction_map = ModuleSheaf.restriction_map

    def wrong(self, i, j):
        res = restriction_map(self, i, j)
        if (i, j) != pair:
            return res
        T = self.stalks[j]
        return lambda x: T.add(res(x), res(x))

    return wrong


def test_a_wrong_module_restriction_is_a_presheaf_law_error(monkeypatch):
    z6 = ModularRing(6)
    M = FiniteModule(z6, (6,))
    bottom = ncspec(z6).lattice.bottom
    monkeypatch.setattr(ModuleSheaf, "restriction_map", doubled_at((bottom, bottom)))
    with pytest.raises(PresheafLawViolation):
        tilde_module(z6, M)


@pytest.mark.parametrize("n, orders", [(30, (30,)), (12, (4, 6))])
def test_a_wrong_module_restriction_fails_the_certificate_whenever_it_fails_the_loop(
        monkeypatch, n, orders):
    r = ModularRing(n)
    M = FiniteModule(r, orders)
    good = tilde_module(r, M)
    lat = good.space.lattice
    rejected_by_loop = 0
    for i in range(lat.n):
        for j in lat.space.up[i]:
            res = good.restriction_map(i, j)
            changed = any(res(x) != good.stalks[j].add(res(x), res(x))
                          for x in good.stalks[i].elements())
            with monkeypatch.context() as m:
                m.setattr(ModuleSheaf, "restriction_map", doubled_at((i, j)))
                loop_ok = brute_module_presheaf_laws(ModuleSheaf(good.space, M, good.stalks))
                try:
                    tilde_module(r, M)
                    certificate_ok = True
                except PresheafLawViolation:
                    certificate_ok = False
            # q_i is onto, so any change to a restriction is caught, and so
            # each change the loop rejects
            assert certificate_ok == (not changed), (i, j)
            assert loop_ok or not certificate_ok, (i, j)
            rejected_by_loop += not loop_ok
    assert rejected_by_loop


# ---------------------------------------------------------------------------
# the exponential: signatures closed under intersection

def without_point(E, p):
    """E with point p dropped, its base members recomputed from the signatures."""
    sigs = E.sigs[:p] + E.sigs[p + 1:]
    base = tuple(frozenset(q for q, s in enumerate(sigs) if bi in s)
                 for bi in range(len(E.base)))
    return ExponentialSpace(E.base_space, sigs, E.reps[:p] + E.reps[p + 1:], base)


def closure_passes(E) -> bool:
    try:
        _check_t_complete_semilattice(E)
    except NotTComplete:
        return False
    return True


def random_based_space(rnd, n):
    """A T0 space on n points with a random multiplicative base, or None."""
    carrier = frozenset(range(n))
    base = {carrier}
    for _ in range(rnd.randint(1, 5)):
        base.add(frozenset(x for x in range(n) if rnd.random() < 0.5))
    grown = True
    while grown:
        new = {A & B for A in base for B in base} - base
        base |= new
        grown = bool(new)
    sigs = {frozenset(i for i, B in enumerate(sorted(base, key=sorted)) if x in B)
            for x in range(n)}
    if len(sigs) != n:
        return None
    return BasedSpace(n, tuple(sorted(base, key=lambda B: (len(B), sorted(B)))))


def test_closure_check_agrees_with_the_triple_loop_on_grid_spectra():
    for r in finite_commutative_grid():
        E = exponential(spec(r).based_space())
        assert closure_passes(E) and brute_t_complete(E), r


def test_closure_check_agrees_with_the_triple_loop_on_random_signatures():
    rnd = seeded_random()
    outcomes = set()
    for _ in range(200):
        X = random_based_space(rnd, rnd.randint(1, 5))
        if X is None:
            continue
        E = exponential(X)
        assert brute_t_complete(E)
        # drop one point: the rest may or may not stay closed
        for p in range(E.n):
            if not E.reps[p]:
                continue   # keep the bottom, the class of the empty set
            F = without_point(E, p)
            ok = closure_passes(F)
            assert ok == brute_t_complete(F), (X, p)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_exponential_closure_agrees_with_the_power_set():
    # the closure under intersection with the points' signatures reaches
    # the signature of every subset, and each representative is in its class
    rnd = seeded_random()
    checked = 0
    for _ in range(200):
        X = random_based_space(rnd, rnd.randint(1, 7))
        if X is None:
            continue
        E = exponential(X)
        subsets = (frozenset(x for x in range(X.n) if m >> x & 1) for m in range(2 ** X.n))
        assert set(E.sigs) == {X.signature(A) for A in subsets} and len(set(E.sigs)) == E.n
        assert [X.signature(A) for A in E.reps] == list(E.sigs)
        assert E.reps[E.bottom()] == frozenset()
        checked += 1
    assert checked > 100, checked


# ---------------------------------------------------------------------------
# density off the generic point by basic opens

def random_poset_with_top(rnd, n):
    """up-sets of a random order on 0..n-1 with n-1 above every point."""
    up = [{i, n - 1} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n - 1):
            if rnd.random() < 0.35:
                up[i].add(j)
    for i in reversed(range(n)):
        for j in sorted(up[i]):
            if j != i:
                up[i] |= up[j]
    return AlexandrovSpace(tuple(map(frozenset, up)))


def test_density_by_basic_opens_agrees_with_all_opens_on_random_posets():
    rnd = seeded_random()
    outcomes = set()
    for _ in range(300):
        X = random_poset_with_top(rnd, rnd.randint(1, 7))
        g = X.generic()
        S = frozenset(x for x in range(X.n) if rnd.random() < 0.3)
        got = _dense_off_point(X, g, S)
        assert got == brute_dense_off_point(X.up, g, S), (X.up, S)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_density_check_of_embed_agrees_with_all_opens_on_the_grid():
    for r in lattice_rings():
        emb = embed_phi(r)
        X = emb.space.space
        image = frozenset(emb.point_map.values())
        assert (emb.report["checks"]["dense_in_complement_of_generic"]
                == brute_dense_off_point(X.up, emb.space.generic, image)), r


# ---------------------------------------------------------------------------
# orders without a third point: covering pairs and the glued order

def test_hasse_edges_agree_with_the_scan_over_third_points():
    rnd = seeded_random()
    for _ in range(200):
        X = random_poset_with_top(rnd, rnd.randint(1, 8))
        assert X.hasse_edges() == brute_hasse_edges(X.up), X.up


def glue_data():
    z6, z3, m2, z0 = ModularRing(6), ModularRing(3), MatrixRing(PrimeField(2), 2), ZeroRing()
    three = rg.element(z6, 3)
    id2, id0 = rg.identity_hom(ModularRing(2)), rg.identity_hom(z0)
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    return [
        GlueDatum((m2,) * 3, {p: (rg.zero(m2),) for p in pairs}, {p: id0 for p in pairs}),
        GlueDatum((z6,) * 3, {p: (three,) for p in pairs}, {p: id2 for p in pairs}),
        GlueDatum((z6, z6), {(0, 1): (rg.element(z6, 2),), (1, 0): (rg.element(z6, 2),)},
                  {(0, 1): rg.identity_hom(z3), (1, 0): rg.identity_hom(z3)}),
    ]


@pytest.mark.parametrize("datum", glue_data(), ids=["m2-3chart", "z6-3chart", "z6-2chart"])
def test_glued_order_is_the_closure_of_the_piece_orders(datum):
    gl = glue(datum)
    generated = {(gl.embeddings[a][p], gl.embeddings[a][q])
                 for a, sp in enumerate(gl.pieces)
                 for p in range(sp.space.n) for q in sp.space.up[p]}
    assert gl.space.up == brute_order_closure(gl.space.n, generated)
