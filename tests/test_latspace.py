import time
from fractions import Fraction
from functools import cache

import pytest

from conftest import (
    brute_cell_of_subset,
    brute_cyclic_cell_idempotents,
    brute_directed_lower_sets,
    brute_join,
    brute_poset_laws,
    brute_upper_sets,
    cyclic_coordinates,
    finite_commutative_grid,
    python_stdout,
    sympy_squarefree_part,
)

from ncspec import qpoly, sheafspec
from ncspec import rings as rg
from ncspec.errors import (
    ElementOwnershipMismatch,
    NotAPartialOrder,
    NotIrreducibleCertificate,
    NotJoinPreserving,
    NotOpen,
    UnsupportedClass,
)
from ncspec.latspace import (
    AlexandrovSpace,
    LocalizationLattice,
    build_semilattice,
    is_completely_union_irreducible,
    sober_map_from_join_hom,
    soberify,
)
from ncspec.localization import subset_leq
from ncspec.qpoly import (
    PidLattice,
    PidPoint,
    UnivariatePolyRing,
    pid_point_in_open,
    prime_set_point,
)
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    SemisimpleAlgebra,
    ZeroRing,
)

CHAIN3 = AlexandrovSpace(
    (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})))
ANTICHAIN2 = AlexandrovSpace((frozenset({0}), frozenset({1})))
GRID2x3 = AlexandrovSpace(
    (
        frozenset({0, 1, 2, 3, 4, 5}),   # (0,0)
        frozenset({1, 2, 4, 5}),          # (0,1)
        frozenset({2, 5}),                # (0,2)
        frozenset({3, 4, 5}),             # (1,0)
        frozenset({4, 5}),                # (1,1)
        frozenset({5}),                   # (1,2)
    ))


def diamond():
    return build_semilattice(ModularRing(6)).space


@cache
def grid_lattices():
    """The lattice of every grid ring that has one (all but the mixed
    product) and of F2^k for k <= 6."""
    rings = [r for r in finite_commutative_grid()
             if not (isinstance(r, rg.ProductRing) and r.moduli is None)]
    rings += [SemisimpleAlgebra(PrimeField(2), (1,) * k) for k in range(1, 7)]
    assert len(rings) == 75
    return tuple(build_semilattice(r) for r in rings)


def test_large_cyclic_lattice_builds_by_the_closed_form():
    # Z/100000 = Z/32 x Z/3125: its four cells are its four idempotents.  An
    # orbit walk per element did not finish in minutes
    n = 100000
    idems = [c.representative[0].payload for c in build_semilattice(ModularRing(n)).cells]
    assert len(set(idems)) == 4 and all(e * e % n == e for e in idems)


def test_matrix_lattice_two_cells():
    for base in (PrimeField(3), Rationals()):
        lat = build_semilattice(MatrixRing(base, 2))
        assert lat.n == 2
        assert lat.bottom != lat.top


def test_semisimple_lattice_is_subset_lattice():
    for dims in ((1, 1), (1, 2), (1, 1, 1)):
        lat = build_semilattice(SemisimpleAlgebra(Rationals(), dims))
        k = len(dims)
        assert lat.n == 2 ** k
        # order is reverse inclusion of the kept-block sets
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.leq(i, j) == (lat.cells[j].key <= lat.cells[i].key)
                assert lat.cells[lat.join(i, j)].key == (
                    lat.cells[i].key & lat.cells[j].key)


def test_z6_lattice_diamond():
    lat = build_semilattice(ModularRing(6))
    assert lat.n == 4
    z6 = ModularRing(6)
    c2 = lat.cell_of_element(rg.element(z6, 2))
    c3 = lat.cell_of_element(rg.element(z6, 3))
    assert not lat.leq(c2, c3) and not lat.leq(c3, c2)
    assert lat.join(c2, c3) == lat.top
    assert lat.join(lat.bottom, c2) == c2
    assert lat.join(c2, c2) == c2


def test_zero_ring_single_cell():
    assert build_semilattice(ZeroRing()).n == 1
    assert build_semilattice(ModularRing(1)).n == 1


def test_product_ring_lattice_matches_split_form():
    # Z/2 x Z/3 carries the same diamond as Z/6
    p23 = rg.product_ring([ModularRing(2), ModularRing(3)])
    lat = build_semilattice(p23)
    assert lat.n == 4
    mids = [i for i in range(4) if i not in (lat.bottom, lat.top)]
    assert len(mids) == 2
    assert lat.join(mids[0], mids[1]) == lat.top
    assert {rg.cardinality(c.localized.result) for c in lat.cells} == {1, 2, 3, 6}


def test_lattice_join_laws_exhaustive():
    for r in (ModularRing(12), ModularRing(30),
              SemisimpleAlgebra(PrimeField(2), (1, 1))):
        lat = build_semilattice(r)
        for i in range(lat.n):
            assert lat.join(i, i) == i
            for j in range(lat.n):
                assert lat.join(i, j) == lat.join(j, i)
                for k in range(lat.n):
                    assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k))


def test_lattice_order_agrees_with_the_preorder():
    """Cell identity by canonical idempotent matches the double-inversion
    preorder decision on every pair."""
    for n in (6, 12):
        r = ModularRing(n)
        lat = build_semilattice(r)
        for a in rg.enumerate_elements(r):
            for b in rg.enumerate_elements(r):
                ca, cb = lat.cell_of_element(a), lat.cell_of_element(b)
                assert lat.leq(ca, cb) == subset_leq(r, (a,), (b,))
                assert (ca == cb) == (
                    subset_leq(r, (a,), (b,)) and subset_leq(r, (b,), (a,)))


def test_join_is_union_cell():
    z30 = ModularRing(30)
    lat = build_semilattice(z30)
    for a in (2, 3, 5, 6, 10):
        for b in (2, 3, 5, 15):
            ea, eb = rg.element(z30, a), rg.element(z30, b)
            assert lat.join(lat.cell_of_element(ea), lat.cell_of_element(eb)) \
                == lat.cell_of_subset((ea, eb))


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


# products with a Z/1 factor, shared primes and prime powers
CYCLIC_EXTRAS = [cyclic(*ms) for ms in ((1, 6), (6, 1), (1, 1, 4), (4, 9), (2, 6, 9),
                                        (9, 4, 1), (12, 18), (8, 12), (5, 25, 3))]


def test_cyclic_cell_order_is_the_first_occurrence_order():
    # the closed form lists the cells in the order the element scan finds them
    rings = ([ModularRing(n) for n in range(2, 400)] + CYCLIC_EXTRAS
             + [r for r in finite_commutative_grid() if r.moduli is not None])
    for r in rings:
        if rg.cardinality(r) == 1:
            continue
        lat = build_semilattice(r)
        got = [cyclic_coordinates(c.representative[0]) for c in lat.cells]
        assert [tuple(e) for e in got] == brute_cyclic_cell_idempotents(r), r


def random_element(r, rng):
    """A random element; matrix entries over Q are drawn from 0..2."""
    if rg.is_finite(r):
        return rng.choice(rg.enumerate_elements(r))
    return rg.element(r, tuple([[rng.randrange(3) for _ in range(d)] for _ in range(d)]
                               for d in r.dims))


def test_cell_of_subset_agrees_with_the_product_and_fold_oracle(rng):
    f2, q = PrimeField(2), Rationals()
    rings = ([r for r in finite_commutative_grid() if r.moduli is not None]
             + CYCLIC_EXTRAS
             + [SemisimpleAlgebra(f2, dims) for dims in ((1, 2, 1), (2, 2), (1, 1, 1, 1))]
             + [SemisimpleAlgebra(q, dims) for dims in ((1, 2), (2, 1, 1), (1, 1, 1))])
    for r in rings:
        lat = build_semilattice(r)
        for _ in range(40):
            E = [random_element(r, rng) for _ in range(rng.randrange(4))]
            assert lat.cell_of_subset(E) == brute_cell_of_subset(lat, E), (r, E)
    for r in (MatrixRing(f2, 2), MatrixRing(q, 2)):
        lat = build_semilattice(r)
        for E in ((), (rg.one(r),), (rg.zero(r),), (rg.one(r), rg.zero(r))):
            assert lat.cell_of_subset(E) == brute_cell_of_subset(lat, E), (r, E)


def test_cell_of_subset_rejects_a_foreign_element():
    for r in (ModularRing(6), cyclic(2, 3), SemisimpleAlgebra(PrimeField(2), (1, 2))):
        with pytest.raises(ElementOwnershipMismatch):
            build_semilattice(r).cell_of_subset((rg.one(r), rg.one(ModularRing(5))))


def test_cyclic_lattices_enumerate_no_element(monkeypatch):
    calls = []
    for cls in vars(rg).values():
        if isinstance(cls, type) and "elements" in vars(cls):
            def counted(self, elements=vars(cls)["elements"]):
                calls.append(self)
                return elements(self)
            monkeypatch.setattr(cls, "elements", counted)
    sheafspec.clear_caches()
    assert sheafspec.ncspec(ModularRing(510510)).point_count() == 128
    assert build_semilattice(cyclic(6, 10, 9)).n == 32
    assert calls == []


def test_alexandrov_opens_against_bruteforce():
    # the open and the closed set a point generates
    assert CHAIN3.up[1] == frozenset({1, 2})
    assert CHAIN3.down(1) == frozenset({0, 1})
    lat = build_semilattice(ModularRing(6))
    c2 = lat.cell_of_element(rg.element(ModularRing(6), 2))
    assert diamond().up[c2] == frozenset({c2, lat.top})
    for X in (CHAIN3, ANTICHAIN2, diamond()):
        assert set(X.all_open_sets()) == set(brute_upper_sets(X.up))
        # unions and intersections of opens stay open
        opens = X.all_open_sets()
        for U in opens:
            for V in opens:
                assert X.is_open(U | V) and X.is_open(U & V)


def test_completely_union_irreducible_classification():
    D = diamond()
    lat = build_semilattice(ModularRing(6))
    c2 = lat.cell_of_element(rg.element(ModularRing(6), 2))
    c3 = lat.cell_of_element(rg.element(ModularRing(6), 3))
    for x in range(D.n):
        assert is_completely_union_irreducible(D, D.up[x])
    assert not is_completely_union_irreducible(D, D.up[c2] | D.up[c3])
    assert not is_completely_union_irreducible(D, frozenset())
    with pytest.raises(NotOpen):
        is_completely_union_irreducible(D, frozenset({lat.bottom}))


def test_open_sets_stay_inside_the_carrier():
    D = diamond()
    assert not D.is_open(D.carrier() | {-4})
    assert not D.is_open({D.n})
    with pytest.raises(NotOpen):
        is_completely_union_irreducible(D, D.carrier() | {-1})


def test_lookup_join_matches_the_scan_on_every_grid_lattice():
    for lat in grid_lattices():
        up = lat.space.up
        assert brute_poset_laws(up)
        for i in range(lat.n):
            for j in range(lat.n):
                assert lat.join(i, j) == brute_join(up, i, j), (lat.ring, i, j)
    assert brute_join(ANTICHAIN2.up, 0, 1) is None
    with pytest.raises(UnsupportedClass):
        ANTICHAIN2.join(0, 1)


def toggled(up, i, j):
    return up[:i] + (up[i] ^ {j},) + up[i + 1:]


def test_typed_law_checks_match_the_oracle_on_perturbed_orders(rng):
    # every single-entry change of each grid order (a sample of them past
    # 16 cells), including entries outside the carrier: the typed checks
    # reject exactly what the triple loop rejects, and on what stays a
    # poset the lookup join agrees with the scan
    for lat in grid_lattices():
        n, up = lat.n, lat.space.up
        flips = [(i, j) for i in range(n) for j in range(-1, n + 1)]
        if n > 16:
            flips = rng.sample(flips, 8)
        for i, j in flips:
            changed = toggled(up, i, j)
            try:
                X = AlexandrovSpace(changed)
            except NotAPartialOrder:
                assert not brute_poset_laws(changed), (lat.ring, i, j)
                continue
            assert brute_poset_laws(changed), (lat.ring, i, j)
            for a in range(n):
                for b in range(n):
                    want = brute_join(changed, a, b)
                    if want is None:
                        with pytest.raises(UnsupportedClass):
                            X.join(a, b)
                    else:
                        assert X.join(a, b) == want


def test_join_check_rejects_every_changed_order_of_a_grid_lattice():
    # the ring fixes the join of two cells (the cell of the union), and the
    # joins fix the order, so each single-entry change of a grid order must
    # be rejected, although the join check visits each unordered pair once
    for lat in grid_lattices():
        if lat.n > 16:
            continue
        up = lat.space.up
        LocalizationLattice(lat.ring, lat.cells, list(up))
        for i in range(lat.n):
            for j in range(lat.n):
                changed = list(toggled(up, i, j))
                with pytest.raises((NotAPartialOrder, NotJoinPreserving, UnsupportedClass)):
                    LocalizationLattice(lat.ring, lat.cells, changed)


def test_irreducible_closed_sets_match_bruteforce():
    # the irreducible closed sets are the closures down(x), one per point
    small = [lat.space for lat in grid_lattices() if lat.n <= 8]
    for X in [CHAIN3, ANTICHAIN2, diamond(), GRID2x3] + small:
        ours = {X.down(x) for x in range(X.n)}
        brute = set(brute_directed_lower_sets(X.up))
        assert ours == brute
        assert len(ours) == X.n
        assert all(X.down(X.point_of(C)) == C for C in brute)


def test_soberify_counts_and_generic():
    S = soberify(CHAIN3)
    assert S.n == 3 and S.generic() == 2
    S2 = soberify(ANTICHAIN2)
    assert S2.n == 2 and S2.generic() is None
    D = soberify(diamond())
    lat = build_semilattice(ModularRing(6))
    assert D.n == 4
    assert D.down(D.generic()) == frozenset(range(4))
    assert D.generic() == lat.top


def test_soberification_topology_bijection():
    # the open U of the base induces {C irreducible closed : C meets U}; as
    # points (each C by the point it is the closure of) that is U itself, a
    # bijection preserving meets and joins, exhaustively up to six-point
    # carriers
    for X in (CHAIN3, diamond(), GRID2x3):
        S = soberify(X)
        closed = brute_directed_lower_sets(X.up)

        def image(U):
            return frozenset(S.point_of(C) for C in closed if C & U)

        opens = X.all_open_sets()
        images = {U: image(U) for U in opens}
        assert all(images[U] == U and S.is_open(U) for U in opens)
        assert len(set(images.values())) == len(opens)
        for U in opens:
            for V in opens:
                assert images[U] & images[V] == image(U & V)
                assert images[U] | images[V] == image(U | V)


def test_sierpinski_soberification_is_itself():
    X = AlexandrovSpace((frozenset({0, 1}), frozenset({1})))
    S = soberify(X)
    assert S.n == 2
    assert {S.point_of(X.down(x)) for x in range(2)} == {0, 1}


def test_soberify_keeps_the_point_indices():
    for X in [CHAIN3, ANTICHAIN2, GRID2x3] + [lat.space for lat in grid_lattices()]:
        S = soberify(X)
        assert S == X
        assert all(S.point_of(X.down(x)) == x for x in range(X.n))


def test_sober_map_restriction_to_principal_ideal():
    D = diamond()
    lat = build_semilattice(ModularRing(6))
    c2 = lat.cell_of_element(rg.element(ModularRing(6), 2))
    P = AlexandrovSpace((frozenset({0, 1}), frozenset({1})))
    pm = sober_map_from_join_hom(P, D, {0: lat.bottom, 1: c2})
    SD, SP = soberify(D), soberify(P)
    for ci in range(SD.n):
        pre = frozenset(x for x in range(2) if {0: lat.bottom, 1: c2}[x] in SD.down(ci))
        assert SP.down(pm[ci]) == pre


def test_join_breaking_map_rejected():
    vee = AlexandrovSpace(
        (frozenset({0, 2}), frozenset({1, 2}), frozenset({2})))
    with pytest.raises(NotJoinPreserving):
        sober_map_from_join_hom(vee, vee, {0: 0, 1: 0, 2: 2})
    # identity is fine
    pm = sober_map_from_join_hom(vee, vee, {0: 0, 1: 1, 2: 2})
    assert pm == {0: 0, 1: 1, 2: 2}


def test_pid_lattice_order_is_squarefree_divisibility(rng):
    qx = UnivariatePolyRing()
    lat = build_semilattice(qx)
    assert isinstance(lat, PidLattice)
    for _ in range(25):
        h = rg.element(qx, [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        g = rg.element(qx, [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        want = None
        sh, sg = qpoly.squarefree_part(h.payload), qpoly.squarefree_part(g.payload)
        if qpoly.is_zero(g.payload):
            want = True
        elif qpoly.is_zero(h.payload):
            want = False
        else:
            want = qpoly.divides(sh, sg)
        assert lat.leq(h, g) == want
        # the general preorder decision through localization agrees
        assert subset_leq(qx, (h,), (g,)) == want


def test_pid_squarefree_against_sympy(rng):
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        ours = qpoly.squarefree_part(qpoly.poly(coeffs))
        theirs = sympy_squarefree_part(coeffs)
        assert ours == theirs


def test_pid_points_and_opens():
    gen, zi = PidPoint("generic"), PidPoint("zero_ideal")
    pm = prime_set_point([[-1, 1]])          # the maximal ideal at x - 1
    assert pid_point_in_open(gen, [])        # the open named by 0
    assert not pid_point_in_open(zi, [])
    assert not pid_point_in_open(pm, [])
    assert pid_point_in_open(zi, [0, 1])     # x avoids the zero ideal
    assert pid_point_in_open(gen, [0, 1])
    assert not pid_point_in_open(pm, [-1, 0, 1])   # x-1 divides x^2-1
    assert pid_point_in_open(pm, [1, 1])     # x+1 misses x-1


def test_pid_point_certificates():
    with pytest.raises(NotIrreducibleCertificate):
        prime_set_point([[-1, 0, 1]])    # x^2 - 1 splits
    with pytest.raises(NotIrreducibleCertificate):
        prime_set_point([[0, 1], [0, 1]])
    # degree > 3 entries are accepted as asserted
    prime_set_point([[1, 0, 0, 0, 1]])
    # degree <= 3 irreducibles pass the check
    prime_set_point([[1, 0, 1], [2, 0, 0, 1]])
    # cubics, with the verdicts of the rational root test that scanned
    # every integer up to the constant term
    for coeffs, irreducible in CUBICS:
        assert qpoly.is_irreducible_low_degree(qpoly.poly(coeffs)) is irreducible, coeffs
    # a quadratic is decided by its discriminant and a cubic's divisors come
    # from its primes, so the time does not grow with the constant
    start = time.perf_counter()
    prime_set_point([[10**12 + 1, 0, 1], [10**12 + 1, 0, 0, 1]])
    for reducible in ([-10**12, 0, 1], [-10**12, 0, 0, 1]):
        with pytest.raises(NotIrreducibleCertificate):
            prime_set_point([reducible])
    assert time.perf_counter() - start < 1


# (coefficients, irreducible over Q)
CUBICS = [([-2, 0, 0, 1], True), ([1, 0, 0, 1], False), ([-6, 11, -6, 1], False),
          ([1, -3, 0, 2], False), ([3, 0, 0, 4], True), ([Fraction(1, 2), 1, 0, 3], True),
          ([-12, 0, 0, 18], True), ([5, 7, 0, 1], True)]


# Each former assert of latspace, as a typed error that survives python -O:
# up-sets outside the carrier, the three order laws, an unbounded lattice,
# a join that is not the union cell, and malformed Q[x] points.
LATSPACE_CHECKS = """
from ncspec import latspace, qpoly
from ncspec import rings as rg
from ncspec.errors import NCSpecError


def error_name(fn, *args):
    try:
        fn(*args)
    except NCSpecError as exc:
        return type(exc).__name__
    return None


def space(*up):
    return latspace.AlexandrovSpace(tuple(map(frozenset, up)))


lat = latspace.build_semilattice(rg.ModularRing(6))
two, three = [i for i in range(lat.n) if i not in (lat.bottom, lat.top)]
cells = [lat.cells[i] for i in (lat.bottom, two, three, lat.top)]


def lattice(cells, up):
    return latspace.LocalizationLattice(lat.ring, cells, [frozenset(U) for U in up])


print(error_name(space, {0, 5}), error_name(space, {1}, {1}),
      error_name(space, {0, 1}, {1, 2}, {2}), error_name(space, {0, 1}, {0, 1}),
      error_name(lattice, cells[1:3], [{0}, {1}]),
      error_name(lattice, cells, [{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}]),
      error_name(qpoly.PidPoint, "bogus"), error_name(qpoly.prime_set_point, []))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_order_and_point_checks_are_typed_errors(flags):
    out = python_stdout(flags, LATSPACE_CHECKS)
    assert out.split() == ["NotAPartialOrder"] * 5 + [
        "NotJoinPreserving", "NotIrreducibleCertificate", "NotIrreducibleCertificate"]


def test_two_builds_of_one_ring_are_equal_spaces():
    rings = (ModularRing(6), SemisimpleAlgebra(PrimeField(2), (1, 1)), MatrixRing(PrimeField(2), 2))
    for r in rings:
        sheafspec.clear_caches()
        first = sheafspec.ncspec(r)
        sheafspec.clear_caches()
        again = sheafspec.ncspec(r)
        assert again is not first and again.lattice is not first.lattice, r
        assert again == first and again.lattice == first.lattice, r
        assert hash(again.lattice) == hash(first.lattice), r
    lattices = [sheafspec.ncspec(r).lattice for r in rings]
    assert all(a != b for i, a in enumerate(lattices) for b in lattices[i + 1:])
    assert sheafspec.ncspec(rings[0]) != sheafspec.ncspec(rings[1])
