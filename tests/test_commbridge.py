import pytest

from conftest import (
    brute_prime_ideals,
    brute_spec_primes,
    finite_commutative_grid,
    python_stdout,
)

from ncspec import rings as rg
from ncspec.commbridge import (
    BasedSpace,
    TCompleteLattice,
    embed_phi,
    exp_factorization,
    exp_functor_map,
    exp_idempotence_check,
    exponential,
    spec,
    spec_exponential_iso,
    spec_functor_map,
    union_of_primes_bijection,
)
from ncspec.errors import (
    BaseNotMultiplicative,
    InfiniteRing,
    NotCommutative,
    NotT0,
    NotTComplete,
)
from ncspec.qpoly import UnivariatePolyRing
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    ZeroRing,
)
from ncspec.sheafspec import ncspec, ncspec_morphism


def ideal_payloads(P):
    return sorted(x.payload for x in P)


def test_spec_of_small_rings():
    s6 = spec(ModularRing(6))
    assert [ideal_payloads(P) for P in s6.primes] == [[0, 3], [0, 2, 4]]
    assert spec(ModularRing(5)).n == 1
    assert spec(ModularRing(4)).n == 1
    assert spec(ModularRing(30)).n == 3
    assert spec(ZeroRing()).n == 0
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    assert spec(p22).n == 2


def test_spec_matches_bruteforce_subset_scan():
    for r in (ModularRing(4), ModularRing(6), ModularRing(8),
              rg.product_ring([ModularRing(2), ModularRing(3)])):
        ours = {P for P in spec(r).primes}
        brute = set(brute_prime_ideals(r))
        assert ours == brute


def test_spec_matches_the_ideal_closure_oracle():
    grid = finite_commutative_grid()
    assert len(grid) == 70
    for r in grid:
        assert spec(r).primes == tuple(brute_spec_primes(r)), r


def test_spec_beyond_the_reach_of_the_ideal_closure():
    s = spec(ModularRing(2310))
    assert sorted(len(P) for P in s.primes) == sorted(2310 // p for p in (2, 3, 5, 7, 11))


def test_spec_rejections():
    with pytest.raises(NotCommutative):
        spec(MatrixRing(PrimeField(2), 2))
    with pytest.raises(InfiniteRing):
        spec(UnivariatePolyRing())


def test_distinguished_base_is_multiplicative():
    s = spec(ModularRing(30))
    X = s.based_space()
    base = set(X.base)
    for B1 in base:
        for B2 in base:
            assert B1 & B2 in base
    assert frozenset(range(s.n)) in base


def test_embed_phi_z6_point_images():
    emb = embed_phi(ModularRing(6))
    assert emb.report["status"] == "pass"
    sp = emb.space
    z6 = ModularRing(6)
    c2 = sp.lattice.cell_of_element(rg.element(z6, 2))
    c3 = sp.lattice.cell_of_element(rg.element(z6, 3))
    # phi((2)) is the closure of the cell of 3, phi((3)) that of the cell of 2
    prime2 = next(i for i, P in enumerate(emb.spectrum.primes)
                  if ideal_payloads(P) == [0, 2, 4])
    prime3 = next(i for i, P in enumerate(emb.spectrum.primes)
                  if ideal_payloads(P) == [0, 3])
    assert emb.point_map[prime2] == c3
    assert emb.point_map[prime3] == c2
    # two of the three non-generic points are hit
    assert len(set(emb.point_map.values())) == 2
    assert sp.generic not in emb.point_map.values()


def test_embed_phi_field_case():
    emb = embed_phi(ModularRing(5))
    assert emb.report["status"] == "pass"
    sp = emb.space
    assert sp.point_count() == 2
    closed = next(i for i in range(sp.space.n) if i != sp.generic)
    assert emb.point_map[0] == closed


def test_embed_phi_checks_for_suite():
    for r in (ModularRing(4), ModularRing(6), ModularRing(12),
              ModularRing(30), ModularRing(5)):
        emb = embed_phi(r)
        assert emb.report["status"] == "pass", (r, emb.report)


def test_embed_naturality_square():
    theta = rg.quotient_hom(6, 3)
    spec_map, sS, sR = spec_functor_map(theta)
    embR = embed_phi(ModularRing(6))
    embS = embed_phi(ModularRing(3))
    m = ncspec_morphism(theta)
    for qi in range(sS.n):
        lhs = embR.point_map[spec_map[qi]]
        rhs = m.point_map[embS.point_map[qi]]
        assert lhs == rhs


def test_union_of_primes_bijection_counts():
    assert union_of_primes_bijection(ModularRing(6))["union_count"] == 4
    assert union_of_primes_bijection(ModularRing(5))["union_count"] == 2
    rep30 = union_of_primes_bijection(ModularRing(30))
    assert rep30["union_count"] == 8 and rep30["status"] == "pass"
    for r in (ModularRing(4), ModularRing(12)):
        assert union_of_primes_bijection(r)["status"] == "pass"


def test_exponential_of_spec_z6():
    X = spec(ModularRing(6)).based_space()
    E = exponential(X)
    assert E.n == 4
    # the embedding x -> [{x}] is injective and dense off the empty class
    emb = E.embedding()
    assert len(set(emb.values())) == X.n
    bottom = E.bottom()
    for bi, img in enumerate(E.base):
        others = img - {bottom}
        if others:
            assert others & set(emb.values())


def test_exponential_one_point_space():
    X = BasedSpace(1, (frozenset({0}), frozenset()))
    E = exponential(X)
    assert E.n == 2


def test_exponential_is_t_complete():
    X = spec(ModularRing(30)).based_space()
    E = exponential(X)   # the construction self-checks the sup axiom
    # joins are classes of unions
    for p in range(E.n):
        for q in range(E.n):
            assert E.join(p, q) == E.class_of(E.reps[p] | E.reps[q])


def test_based_space_rejections():
    with pytest.raises(BaseNotMultiplicative):
        BasedSpace(2, (frozenset({0}), frozenset({1})))
    with pytest.raises(NotT0):
        BasedSpace(2, (frozenset({0, 1}),))


def test_spec_exponential_iso():
    for r in (ModularRing(4), ModularRing(6), ModularRing(12),
              ModularRing(30), ModularRing(5)):
        rep = spec_exponential_iso(r)
        assert rep["status"] == "pass", (r, rep)
        assert rep["exponential_points"] == rep["sober_points"]


def test_exp_iso_naturality():
    theta = rg.quotient_hom(6, 3)
    spec_map, sS, sR = spec_functor_map(theta)
    isoR = spec_exponential_iso(ModularRing(6))
    isoS = spec_exponential_iso(ModularRing(3))
    m = ncspec_morphism(theta)
    functor = exp_functor_map(spec_map, isoS["exponential"], isoR["exponential"])
    for p in range(isoS["exponential"].n):
        lhs = isoR["gamma"][functor[p]]
        rhs = m.point_map[isoS["gamma"][p]]
        assert lhs == rhs


def test_exp_idempotence():
    for r in (ModularRing(6), ModularRing(30), ModularRing(5)):
        assert exp_idempotence_check(spec(r).based_space())
    disc = BasedSpace(2, (frozenset({0, 1}), frozenset({0}),
                          frozenset({1}), frozenset()))
    assert exp_idempotence_check(disc)
    one = BasedSpace(1, (frozenset({0}), frozenset()))
    assert exp_idempotence_check(one)


def test_exp_idempotence_random_spaces(rng):
    made = 0
    while made < 10:
        n = rng.randint(1, 5)
        base = {frozenset(range(n))}
        for _ in range(rng.randint(1, 4)):
            base.add(frozenset(i for i in range(n) if rng.random() < 0.5))
        closed = set(base)
        changed = True
        while changed:
            changed = False
            for a in list(closed):
                for b in list(closed):
                    if a & b not in closed:
                        closed.add(a & b)
                        changed = True
        try:
            X = BasedSpace(n, tuple(sorted(closed, key=lambda B: (len(B), sorted(B)))))
        except NotT0:
            continue
        made += 1
        assert exp_idempotence_check(X)
        # the singleton embedding is injective with image dense away from
        # the class of the empty subset
        E = exponential(X)
        emb = E.embedding()
        assert len(set(emb.values())) == X.n
        bottom = E.bottom()
        for img in E.base:
            others = img - {bottom}
            if others:
                assert others & set(emb.values())


def chain_lattice(k):
    """0 <= 1 <= ... <= k-1 with the principal down-sets as base."""
    leq = tuple(frozenset(range(i, k)) for i in range(k))
    base = tuple(frozenset(range(i + 1)) for i in range(k))
    return TCompleteLattice(k, base, leq)


def test_exp_factorization_examples():
    disc = BasedSpace(2, (frozenset({0, 1}), frozenset({0}),
                          frozenset({1}), frozenset()))
    Y = chain_lattice(3)
    rep = exp_factorization(disc, {0: 0, 1: 1}, Y)
    E = exponential(disc)
    assert rep["map"][E.class_of({0, 1})] == 1
    assert rep["map"][E.bottom()] == 0
    assert rep["unique"] is True


def test_exp_factorization_identity_case():
    disc = BasedSpace(2, (frozenset({0, 1}), frozenset({0}),
                          frozenset({1}), frozenset()))
    E = exponential(disc)
    B1 = E.as_based_space()
    Y = TCompleteLattice(
        E.n, tuple(B1.base),
        tuple(frozenset(q for q in range(E.n) if E.leq(p, q)) for p in range(E.n)))
    rep = exp_factorization(disc, E.embedding(), Y)
    assert rep["map"] == {p: p for p in range(E.n)}
    assert rep["unique"] is True


def test_not_t_complete_is_rejected():
    bad = TCompleteLattice(
        3,
        (frozenset({0, 1, 2}), frozenset({0, 2})),   # not down-closed
        (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})),
    )
    with pytest.raises(NotTComplete) as exc:
        bad.verify()
    assert exc.value.witness is not None


JOIN_WITHOUT_BOUND = """
from ncspec.commbridge import TCompleteLattice
from ncspec.errors import NCSpecError

top = frozenset({0, 1, 2})
Y = TCompleteLattice(3, (top,), (top, frozenset({1}), frozenset({2})))
try:
    Y.join(1, 2)
except NCSpecError as exc:
    print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_join_without_a_least_upper_bound_is_a_typed_error(flags):
    out = python_stdout(flags, JOIN_WITHOUT_BOUND)
    assert out.split() == ["NotTComplete"]
