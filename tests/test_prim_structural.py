"""Induced morphisms and prim checks by generators and local probes,
against the exhaustive paths they replace.

`hom_descend` between products of cyclic rings reads the descended map
off the generators; the table descent over every element is the oracle.
`all_homs` lists the target's idempotents by CRT; the enumeration of the
target is the oracle.  The square walk reads each right leg off the
minimal cells of the preimages; the restriction that recomputes the
section rings of both opens is the oracle.  `is_pushout` skips the probes that the others
decide (the zero ring, and products whose local factors are all probes);
the same check over every probe is the oracle.
"""

from functools import cache
from unittest import mock

from conftest import (
    brute_all_homs,
    brute_hom_descend,
    brute_prim_witness,
    brute_sections_restriction,
    finite_commutative_grid,
)
from test_acceptance import _crafted_negatives

from ncspec import glueqcoh, localization, sheafspec
from ncspec import rings as rg
from ncspec.errors import NCSpecError
from ncspec.localization import LocalizationSquare, is_pushout, localize
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
# descent by generators

@cache
def structural_descents():
    """(alpha, psi) pairs that descend by generators: every grid insertion
    against every insertion of the same ring (a restriction when the cells
    compare, a clash when they do not), and every quotient of Z/n,
    n <= 60, against every hom out of Z/n into a small cyclic ring."""
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
    """The not-onto diagonal of `test_hom_images`, and an onto map whose
    target generator is no image of a generator: both take the table."""
    z2 = ModularRing(2)
    diagonal = rg.hom_validate(rg.hom_from_callable(
        z2, cyclic(2, 2), lambda x: rg.RingElement(cyclic(2, 2), (x.payload, x.payload))))
    crt = rg.all_homs(cyclic(2, 3), ModularRing(6))[0]
    return [(diagonal, rg.identity_hom(z2)), (crt, rg.identity_hom(cyclic(2, 3)))]


def test_descent_by_generators_matches_the_table_descent():
    seen = {"ok": 0, "UnsupportedClass": 0}
    for alpha, psi in structural_descents() + tuple(table_descents()):
        got = outcome(rg.hom_descend, alpha, psi)
        want = outcome(brute_hom_descend, alpha, psi)
        assert got[0] == want[0], (alpha, psi, got, want)
        if got[0] == "ok":
            phi = got[1]
            assert phi.validated and phi == want[1]
            assert phi.as_table() == want[1].as_table()
        else:
            assert got == want
        seen[got[0]] += 1
    assert seen["ok"] > 1000 and seen["UnsupportedClass"] > 1000, seen


def test_descent_by_generators_enumerates_nothing(monkeypatch):
    cases = structural_descents()
    calls = []
    monkeypatch.setattr(rg, "enumerate_elements", lambda r: calls.append(r) or [])
    for alpha, psi in cases:
        outcome(rg.hom_descend, alpha, psi)
    assert calls == []


def test_ore_chart_enumerates_once_per_chart_cell(monkeypatch):
    z = ModularRing(2310)
    E = (rg.element(z, 2),)
    sheafspec.ncspec(z)
    sheafspec.ncspec(localize(z, E).result)
    calls, inside = [], []
    for cls in vars(rg).values():
        if isinstance(cls, type) and "elements" in vars(cls):
            def counted(self, elements=vars(cls)["elements"]):
                calls.append((self, bool(inside)))
                return elements(self)
            monkeypatch.setattr(cls, "elements", counted)
    descend = rg.hom_descend

    def watched(alpha, psi):
        inside.append(True)
        try:
            return descend(alpha, psi)
        finally:
            inside.pop()

    monkeypatch.setattr(rg, "hom_descend", watched)
    report = glueqcoh.ore_chart_iso(z, E).report
    assert report["status"] == "pass" and report["open_points"] == 16
    # the section-iso check enumerates each chart cell once; descent nothing
    assert len(calls) == report["open_points"]
    assert not any(in_descent for _ring, in_descent in calls)


# ---------------------------------------------------------------------------
# all_homs by CRT idempotents

def test_idempotents_by_crt_match_the_enumeration():
    for r in cyclic_grid():
        want = [t for t in rg.enumerate_elements(r) if t * t == t]
        assert rg.cyclic_idempotents(r) == want, r


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
# pushouts on local probes

def all_probes_outcome(sq, probes):
    """is_pushout with every probe checked: the oracle of the skipping."""
    with mock.patch.object(localization, "_essential_probes", tuple):
        return outcome(is_pushout, sq, probes)


def _grid_morphisms():
    """Induced morphisms of every hom between grid rings of at most 8
    elements (but not both of 8) and of the quotients of Z/30 and Z/60."""
    small = [r for r in cyclic_grid() if rg.cardinality(r) <= 8]
    homs = [h for S in small for T in small if rg.cardinality(S) * rg.cardinality(T) < 64
            for h in rg.all_homs(S, T)]
    homs += [rg.quotient_hom(n, m) for n in (30, 60) for m in range(2, n) if n % m == 0]
    return [sheafspec.ncspec_morphism(h) for h in homs]


def _squares(m):
    Y = m.target
    pre = {j: m.preimage_base_open(Y.basic_open(j)) for j in range(Y.lattice.n)}
    return [sq for _pair, sq in m.restriction_squares(pre)]


def _two_mediating_square(n):
    """Z/n <- Z/n x Z/n -> Z/n by the first projection, closed by the
    diagonal into Z/n x Z/n: both projections out of the corner restrict to
    the identity, so the corner is not the pushout Z/n.  The diagonal is
    not onto, so the kernels cannot decide the square."""
    zn, pnn = ModularRing(n), cyclic(n, n)
    first = rg.hom_validate(rg.hom_from_callable(
        pnn, zn, lambda x: rg.element(zn, x.payload[0])))
    diag = rg.hom_validate(rg.hom_from_callable(
        zn, pnn, lambda x: rg.element(pnn, (x.payload, x.payload))))
    return LocalizationSquare(top=first, left=first, bottom=diag, right=diag)


CUSTOM_PROBES = [
    (ModularRing(6), ZeroRing()),                    # Z/6 without its factors
    (ModularRing(6), ModularRing(2)),                # Z/6 without Z/3
    (ZeroRing(),),                                   # the zero ring only
    (ModularRing(12), ModularRing(4), ModularRing(3), cyclic(2, 2), ModularRing(2)),
    (ModularRing(6), SemisimpleAlgebra(F2, (1, 2)), ModularRing(2), ModularRing(3)),
    (SemisimpleAlgebra(F2, (1, 1)), ModularRing(6), ModularRing(2), ModularRing(3)),
]


def test_pushouts_on_local_probes_match_every_probe():
    squares = {}
    for m in _grid_morphisms():
        for sq in _squares(m):
            squares.setdefault(sq, sheafspec.default_prim_probes(m))
    verdicts = set()
    for sq, probes in squares.items():
        for ps in (probes, *CUSTOM_PROBES):
            got = outcome(is_pushout, sq, ps)
            assert got == all_probes_outcome(sq, ps), (sq, ps)
            verdicts.add(got[0] if got[0] != "ok" else got)
    assert len(squares) > 200, len(squares)
    assert verdicts == {("ok", True), "UnverifiableSquare"}, verdicts


def test_pushouts_on_local_probes_refuse_what_every_probe_refuses():
    for n in (2, 6):
        sq = _two_mediating_square(n)
        for ps in (localization.default_probes(sq), *CUSTOM_PROBES):
            assert outcome(is_pushout, sq, ps) == all_probes_outcome(sq, ps), (n, ps)
        assert is_pushout(sq) is False
    # Z/6 refutes the square over Z/6 before the semisimple probe raises
    # and leaves it to the kernels, which cannot decide it
    mixed = (ModularRing(6), SemisimpleAlgebra(F2, (1, 2)), ModularRing(2), ModularRing(3))
    assert is_pushout(_two_mediating_square(6), mixed) is False
    for bad in _crafted_negatives():
        probes = sheafspec.default_prim_probes(bad)
        witness = sheafspec.is_prim_report(bad, probes)["witness"]
        assert witness is not None
        cells = range(bad.target.lattice.n)
        assert witness == brute_prim_witness(bad, cells, probes)
        for sq in _squares(bad):
            for ps in (probes, *CUSTOM_PROBES):
                assert outcome(is_pushout, sq, ps) == all_probes_outcome(sq, ps), (bad, ps)


def test_essential_probes_skip_only_decided_probes():
    z = ModularRing
    probes = (z(30), z(6), z(2), z(3), z(5), ZeroRing(), z(4), z(12), cyclic(2, 2), z(1))
    assert localization._essential_probes(probes) == (z(2), z(3), z(5), z(4))
    # a product missing a factor stays, and so does one beside a probe
    # that is not a product of cyclic rings
    assert localization._essential_probes((z(6), z(2))) == (z(6), z(2))
    ssa = SemisimpleAlgebra(F2, (1, 2))
    assert localization._essential_probes((z(6), ssa, z(2), z(3), ZeroRing())) == \
        (z(6), ssa, z(2), z(3))
    assert localization._essential_probes((ZeroRing(),)) == ()


def test_probes_are_reduced_once_per_probe_list():
    m = sheafspec.ncspec_morphism(rg.quotient_hom(210, 42))
    localization._essential_probes.cache_clear()
    assert sheafspec.is_prim_report(m)["prim"]
    info = localization._essential_probes.cache_info()
    assert info.misses == 1 and info.hits > 10, info


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
