"""Induced morphisms and prim checks by local-factor maps and block
kernels, against the exhaustive paths they replace.

`descend_by_block_maps` between products of cyclic rings reads the
descended map off the block maps; the table descent over every element
is the oracle.
`all_homs` lists the homs by their block maps; the search over the
target's idempotents is the oracle.  The square walk reads each right
leg off the minimal cells of the preimages; the restriction that
recomputes the section rings of both opens is the oracle.  Squares
commute by the block maps of their legs and push out by the kernel rule;
composites, element tables, the ideal closure by elements and, on
products of cyclic rings, the probe loop over every hom into every local
factor of the corners are the oracles.
"""

from collections import Counter
from functools import cache

from conftest import (
    brute_all_homs,
    brute_commutes,
    brute_hom_descend,
    brute_is_iso,
    brute_is_pushout,
    brute_prim_witness,
    brute_pushout_by_probes,
    brute_sections_restriction,
    cyclic_coordinates,
    finite_commutative_grid,
    local_probes,
)
from test_acceptance import _crafted_negatives
from test_block_maps import M2, SSA_RINGS, morphism_squares

from ncspec import glueqcoh, localization, sheafspec
from ncspec import rings as rg
from ncspec.errors import NCSpecError
from ncspec.localization import LocalizationSquare, is_pushout, localize
from ncspec.qpoly import UnivariatePolyRing
from ncspec.rings import MatrixRing, ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing

F2 = PrimeField(2)


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


@cache
def cyclic_grid():
    return tuple(r for r in finite_commutative_grid() if rg.cyclic_moduli(r) is not None)


def outcome(fn, *args):
    """("ok", value) or the NCSpecError's class name and message."""
    try:
        return "ok", fn(*args)
    except NCSpecError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# descent by local maps

@cache
def structural_descents():
    """(alpha, psi) pairs of products of cyclic rings with alpha onto: every
    grid insertion against every insertion of the same ring (a restriction
    when the cells compare, a clash when they do not), and every quotient
    of Z/n, n <= 60, against every hom out of Z/n into a small cyclic ring."""
    cases = []
    for r in cyclic_grid():
        cells = sheafspec.ncspec(r).lattice.cells
        cases += [(a.localized.insertion, b.localized.insertion) for a in cells for b in cells]
    targets = [T for T in cyclic_grid() if rg.cardinality(T) <= 12]
    for n in range(2, 61):
        for m in range(1, n + 1):
            if n % m == 0:
                alpha = rg.quotient_hom(n, m) if m > 1 else rg.to_zero_hom(ModularRing(n))
                cases += [(alpha, psi) for T in targets for psi in rg.all_homs(ModularRing(n), T)]
    return tuple(cases)


def table_descents():
    """The not-onto diagonal of `test_hom_images`, which has no descent, and
    the onto CRT map Z/2 x Z/3 -> Z/6, whose target generator is no image
    of a generator."""
    z2 = ModularRing(2)
    diagonal = rg.hom_validate(rg.hom_from_callable(
        z2, cyclic(2, 2), lambda x: rg.RingElement(cyclic(2, 2), (x.payload, x.payload))))
    crt = rg.all_homs(cyclic(2, 3), ModularRing(6))[0]
    return [(diagonal, rg.identity_hom(z2)), (crt, rg.identity_hom(cyclic(2, 3)))]


def local_descent(alpha, psi):
    return localization.descend_by_block_maps(alpha, psi.block_map, psi.target)


def test_descent_by_local_maps_matches_the_table_descent():
    seen = {"ok": 0, "UnsupportedClass": 0}
    for alpha, psi in structural_descents() + tuple(table_descents()):
        phi = local_descent(alpha, psi)
        want = outcome(brute_hom_descend, alpha, psi)
        assert want[0] == ("UnsupportedClass" if phi is None else "ok"), (alpha, psi, want)
        if phi is not None:
            assert phi.validated and phi == want[1]
            assert phi.as_table() == want[1].as_table()
        seen[want[0]] += 1
    assert seen["ok"] > 1000 and seen["UnsupportedClass"] > 1000, seen


def test_descent_by_local_maps_enumerates_nothing(monkeypatch):
    cases = structural_descents()
    calls = []
    monkeypatch.setattr(rg, "enumerate_elements", lambda r: calls.append(r) or [])
    for alpha, psi in cases:
        local_descent(alpha, psi)
    assert calls == []


def test_ore_chart_enumerates_once_per_chart_cell(monkeypatch):
    z = ModularRing(2310)
    E = (rg.element(z, 2),)
    sheafspec.ncspec(z)
    sheafspec.ncspec(localize(z, E).result)
    calls = []
    for cls in vars(rg).values():
        if isinstance(cls, type) and "elements" in vars(cls):
            def counted(self, elements=vars(cls)["elements"]):
                calls.append(self)
                return elements(self)
            monkeypatch.setattr(cls, "elements", counted)
    table = rg.hom_from_callable
    monkeypatch.setattr(rg, "hom_from_callable", lambda *a: calls.append(a) or table(*a))
    report = glueqcoh.ore_chart_iso(z, E).report
    assert report["status"] == "pass" and report["open_points"] == 16
    # the section isos are read off block maps: no element, no table
    assert calls == []


# ---------------------------------------------------------------------------
# all_homs by block maps

def test_all_homs_match_the_enumeration_oracle_in_order():
    count = 0
    for S in cyclic_grid():
        for T in cyclic_grid():
            if rg.cardinality(S) > 24 and rg.cardinality(T) > 24:
                continue
            got = list(rg.all_homs(S, T))
            want = brute_all_homs(S, T)
            assert [h.images for h in got] == [h.images for h in want], (S, T)
            count += len(got)
    assert count > 500, count


# ---------------------------------------------------------------------------
# squares by local-factor maps

def _grid_homs():
    """Every hom between grid products of cyclic rings of at most 8
    elements (but not both of 8) and the quotients of Z/30 and Z/60."""
    small = [r for r in cyclic_grid() if rg.cardinality(r) <= 8]
    homs = [h for S in small for T in small if rg.cardinality(S) * rg.cardinality(T) < 64
            for h in rg.all_homs(S, T)]
    return homs + [rg.quotient_hom(n, m) for n in (30, 60) for m in range(2, n) if n % m == 0]


def _squares(m):
    return [sq for _pair, sq in m.restriction_squares(range(m.target.lattice.n))]


def _two_mediating_square(n):
    """Z/n <- Z/n x Z/n -> Z/n by the first projection, closed by the
    diagonal into Z/n x Z/n: both projections out of the corner restrict to
    the identity, so the corner is not the pushout Z/n.  The leg opposite
    the onto left leg is the diagonal, which is not onto, so the kernel
    rule refutes the square."""
    zn, pnn = ModularRing(n), cyclic(n, n)
    first = rg.hom_validate(rg.hom_from_callable(
        pnn, zn, lambda x: rg.element(zn, x.payload[0])))
    diag = rg.hom_validate(rg.hom_from_callable(
        zn, pnn, lambda x: rg.element(pnn, (x.payload, x.payload))))
    return LocalizationSquare(top=first, left=first, bottom=diag, right=diag)


z = ModularRing


@cache
def pushout_cases():
    """Every restriction square of the grid morphisms and of the three
    crafted non-prim morphisms of `test_acceptance.py`; the same squares
    with one leg swapped for another hom between its corners (most of
    these fail to commute); the two-mediating squares over Z/2, Z/3 and
    Z/6; a square out of Q[x]; and every restriction square of the
    morphisms of the block, table and unmapped homs out of the finite
    semisimple algebras and M2(F2) of `test_block_maps.py`, whose corners
    are not products of cyclic rings."""
    squares = {}
    for m in [sheafspec.ncspec_morphism(h) for h in _grid_homs()] + _crafted_negatives():
        squares.update(dict.fromkeys(_squares(m)))
    for sq in list(squares):
        for leg in ("top", "left", "bottom", "right"):
            h = getattr(sq, leg)
            for other in rg.all_homs(h.source, h.target):
                if other != h:
                    legs = {name: getattr(sq, name) for name in ("top", "left", "bottom", "right")}
                    squares.setdefault(LocalizationSquare(**{**legs, leg: other}))
    for n in (2, 3, 6):
        squares.setdefault(_two_mediating_square(n))
    # Q[x] onto the zero ring: the zero mid corners force the zero ring
    collapse, zero = rg.to_zero_hom(UnivariatePolyRing()), rg.identity_hom(ZeroRing())
    squares.setdefault(LocalizationSquare(top=collapse, left=collapse, bottom=zero, right=zero))
    for r in SSA_RINGS[:-1] + [M2]:
        squares.update(dict.fromkeys(morphism_squares(r)))
    return tuple(squares)


def test_pushouts_by_local_maps_match_the_probe_loop():
    """`is_pushout` against the element oracle on every case, and on the
    squares of products of cyclic rings against the probe loop over the
    local factors of the corners too."""
    seen = Counter()
    for sq in pushout_cases():
        got = outcome(is_pushout, sq)
        assert got == outcome(brute_is_pushout, sq), sq
        if got[0] == "ok" and all(rg.cyclic_moduli(c) is not None for c in sq.corners):
            assert got[1] == (brute_commutes(sq)
                              and brute_pushout_by_probes(sq, local_probes(sq))), sq
            seen["probe loop"] += 1
        seen[got if got[0] == "ok" else got[0]] += 1
    assert sum(seen.values()) - seen["probe loop"] >= 700 and seen["probe loop"] >= 600, seen
    assert set(seen) == {("ok", True), ("ok", False), "probe loop"}, seen


def test_squares_commute_by_local_maps_as_by_composites():
    seen = Counter()
    for sq in pushout_cases():
        got = sq.commutes()
        assert got == brute_commutes(sq), sq
        seen[got] += 1
    assert seen[True] > 400 and seen[False] > 100, seen


def test_pushouts_by_local_maps_refuse_what_the_probe_loop_refuses():
    for n in (2, 3, 6):
        sq = _two_mediating_square(n)
        assert outcome(is_pushout, sq) == outcome(brute_is_pushout, sq) == ("ok", False), n
        assert brute_pushout_by_probes(sq, local_probes(sq)) is False
    for bad in _crafted_negatives():
        witness = sheafspec.is_prim_report(bad)["witness"]
        assert witness is not None
        assert witness == brute_prim_witness(bad, range(bad.target.lattice.n))


def test_local_maps_compose_and_decide_isos_as_element_tables():
    """Every hom between grid products of cyclic rings, but not both of
    more than 24 elements; composites of those between rings of at most
    12 elements."""
    homs = [h for S in cyclic_grid() for T in cyclic_grid()
            if rg.cardinality(S) <= 24 or rg.cardinality(T) <= 24 for h in rg.all_homs(S, T)]
    small = [h for h in homs if rg.cardinality(h.source) <= 12 and rg.cardinality(h.target) <= 12]
    by_source = {}
    for h in small:
        by_source.setdefault(h.source, []).append(h)
    for h in homs:
        # each target local factor Z/q is x mod q on the factor that feeds it
        src, tgt = h.source.local_factors, h.target.local_factors
        for x in rg.enumerate_elements(h.source):
            xs, ys = cyclic_coordinates(x), cyclic_coordinates(h(x))
            assert all(ys[j] % q == xs[src[s][0]] % q
                       for s, (j, _p, q) in zip(h.block_map, tgt)), (h, x)
    composed = kinds = 0
    iso_kinds = set()
    for f in small:
        for g in by_source.get(f.target, ()):
            gf = rg.hom_compose(g, f)
            assert gf.block_map == tuple(f.block_map[k] for k in g.block_map), (f, g)
            composed += 1
    for f in homs:
        identity = f.source == f.target and f.as_table() == {
            x: x for x in f.source.elements()}
        assert localization._hom_is_identity(f) == identity, f
        kinds += identity
        assert localization._hom_is_iso(f) == brute_is_iso(f), f
        iso_kinds.add(brute_is_iso(f))
    assert composed > 1000 and kinds > 20 and iso_kinds == {True, False}, (composed, kinds)


def test_cold_prim_check_enumerates_no_element(monkeypatch):
    """The kernel rule reads the block maps of the legs, over products of
    cyclic rings and over semisimple algebras alike."""
    F2 = PrimeField(2)
    diagonal = rg.hom_validate(rg.RingHom(SemisimpleAlgebra(F2, (1, 2)),
                                          SemisimpleAlgebra(F2, (1, 2, 2)), rg.BlockRule((0, 1, 1))))
    sheafspec._induced_morphism.cache_clear()
    morphisms = [sheafspec.ncspec_morphism(theta)
                 for theta in (rg.quotient_hom(2310, 210), diagonal)]
    calls = []
    monkeypatch.setattr(rg, "enumerate_elements", lambda r: calls.append(r) or [])
    assert all(sheafspec.is_prim_report(m)["prim"] for m in morphisms)
    assert calls == []


def test_warm_prim_check_builds_no_hom(monkeypatch):
    m = sheafspec.ncspec_morphism(rg.quotient_hom(2310, 210))
    assert sheafspec.is_prim_report(m)["prim"]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("all_homs", "hom_compose", "identity_hom"):
        fn = getattr(rg, name)
        for module in (rg, localization, sheafspec):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for cls in vars(rg).values():
        if isinstance(cls, type) and "elements" in vars(cls):
            monkeypatch.setattr(cls, "elements", counted("elements", vars(cls)["elements"]))
    assert sheafspec.is_prim_report(m)["prim"]
    assert calls == Counter(), calls


# ---------------------------------------------------------------------------
# right legs of the square walk

def test_right_legs_from_minima_match_the_recomputed_restriction():
    kinds = set()
    for r in (ModularRing(30), cyclic(2, 6), SemisimpleAlgebra(F2, (1, 2)), MatrixRing(F2, 2),
              ZeroRing()):
        sp = sheafspec.ncspec(r)
        mins = {U: sp.space.minimal_elements(U) for U in sp.all_opens()}
        for U in mins:
            for V in mins:
                got = outcome(sheafspec._restriction_at_minima, sp, U, mins[U], V, mins[V])
                want = outcome(brute_sections_restriction, sp, U, V)
                assert got == want, (r, U, V)
                kinds.add(got[0])
    assert kinds == {"ok", "NotComparable", "UnsupportedClass"}, kinds
