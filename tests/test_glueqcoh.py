from fractions import Fraction
from math import gcd

import pytest

from ncspec import rings as rg
from ncspec.errors import (
    CocycleViolation,
    NotAHomomorphism,
    NotAModule,
    OreConditionFails,
    UnsupportedClass,
)
from ncspec.glueqcoh import (
    FiniteModule,
    GlueDatum,
    ModuleHom,
    OreCertificate,
    QcohDatum,
    certify_ore,
    free_module,
    glue,
    global_sections_module,
    module_homs,
    ore_chart_iso,
    qcoh_cocycle_check,
    qcoh_roundtrip,
    tensor_induced,
    tensor_module,
    tensor_restriction,
    tensor_sequence_report,
    tilde_module,
)
from ncspec.localization import localize
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    RingElement,
    ZeroRing,
    skew_ring,
)
from ncspec.sheafspec import ncspec


Z6 = ModularRing(6)
Z4 = ModularRing(4)


def e6(k):
    return rg.element(Z6, k)


# --- Ore certification ------------------------------------------------------

def test_commutative_ore_witnesses_are_trivial():
    cert = certify_ore(Z6, (e6(2),), 4)
    for (a, s, r2, s2) in cert.witnesses:
        assert a * s2 == s * r2
    assert not cert.degenerate


def test_skew_monomial_certificate_structural():
    sk = skew_ring(2, {(0, 1): 2})
    x = rg.element(sk, {(1, 0): 1})
    cert = certify_ore(sk, (x,), 3)
    assert cert.structural
    for (a, s, r2, s2) in cert.witnesses:
        assert a * s2 == s * r2
    # the motivating pair: y against x needs the inverse scalar
    y = rg.element(sk, {(0, 1): 1})
    found = [w for w in cert.witnesses if w[0] == y]
    assert found
    _, s, r2, s2 = found[0]
    assert y * s2 == s * r2
    assert r2.payload == (((0, 1), Fraction(1, 2)),)


def test_nilpotent_subset_gives_degenerate_certificate():
    m2 = MatrixRing(PrimeField(2), 2)
    e12 = rg.matrix_element(m2, [[0, 1], [0, 0]])
    cert = certify_ore(m2, (e12,), 4)
    assert cert.degenerate


def test_non_monomial_skew_subset_fails():
    sk = skew_ring(2, {(0, 1): 2})
    bad = rg.element(sk, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(OreConditionFails):
        certify_ore(sk, (bad,), 3)


# --- modules and base change ------------------------------------------------

def test_tensor_structural_formula_oracle():
    """loc (x) module agrees with the gcd closed form for cyclic pieces."""
    for n in (4, 6, 12):
        r = ModularRing(n)
        for orders in ((), (2,), (n,), (2, 2) if n % 2 == 0 else (n,)):
            if any(n % d for d in orders):
                continue
            M = FiniteModule(r, orders)
            for f in rg.enumerate_elements(r):
                L = localize(r, (f,))
                T = tensor_module(L.insertion, M)
                if rg.is_zero_ring(L.result):
                    assert T.size() == 1
                    continue
                m = L.result.n if isinstance(L.result, ModularRing) else None
                if m is not None:
                    want = 1
                    for d in orders:
                        want *= gcd(m, d)
                    assert T.size() == want


def test_tilde_of_free_module_is_structure_sheaf():
    sheaf = tilde_module(Z6, free_module(Z6))
    for cell, stalk in zip(sheaf.space.lattice.cells, sheaf.stalks):
        assert stalk.size() == rg.cardinality(cell.localized.result)


def test_module_axioms_hold_exhaustively():
    for orders in ((), (2,), (3,), (6,), (2, 3)):
        assert FiniteModule(Z6, orders).check_axioms()


def test_module_checks_are_typed_errors():
    # typed errors, so the checks survive python -O
    for orders in ((4,), (1,), (6, 0)):
        with pytest.raises(NotAModule):
            FiniteModule(Z6, orders)
    with pytest.raises(UnsupportedClass):
        FiniteModule(MatrixRing(PrimeField(2), 1), (2,))
    with pytest.raises(NotAHomomorphism):
        ModuleHom(FiniteModule(Z6, (2,)), FiniteModule(Z6, (3,)), ((1,),))


def test_tilde_module_delegates_skew_rings():
    from ncspec.skewproj import SkewQcohDatum, free_presentation

    sk = skew_ring(2, {(0, 1): 2})
    datum = tilde_module(sk, free_presentation(sk))
    assert isinstance(datum, SkewQcohDatum)


def test_z2_module_dies_at_the_coprime_cell():
    M = FiniteModule(Z6, (2,))
    sheaf = tilde_module(Z6, M)
    c2 = sheaf.space.lattice.cell_of_element(e6(2))
    c3 = sheaf.space.lattice.cell_of_element(e6(3))
    assert sheaf.stalks[c2].size() == 1      # Z/3 (x) Z/2 = 0
    assert sheaf.stalks[c3].size() == 2      # Z/2 (x) Z/2 = Z/2


def test_zero_module_gives_zero_sheaf():
    sheaf = tilde_module(Z6, FiniteModule(Z6, ()))
    assert all(t.size() == 1 for t in sheaf.stalks)


def test_qcoh_roundtrip_reports():
    assert qcoh_roundtrip(Z6, free_module(Z6))["status"] == "pass"
    assert qcoh_roundtrip(Z6, FiniteModule(Z6, (2,)))["status"] == "pass"
    assert qcoh_roundtrip(Z4, FiniteModule(Z4, (2,)))["status"] == "pass"


def test_sheaf_hom_determined_by_global_component():
    M, N = FiniteModule(Z6, (6,)), FiniteModule(Z6, (2,))
    sheaf_M, sheaf_N = tilde_module(Z6, M), tilde_module(Z6, N)
    lat = sheaf_M.space.lattice
    for f in module_homs(M, N):
        # the induced family commutes with restriction and is determined
        comps = {i: tensor_induced(sheaf_M.stalks[i], sheaf_N.stalks[i], f)
                 for i in range(lat.n)}
        for i in range(lat.n):
            for j in range(lat.n):
                if not lat.leq(i, j):
                    continue
                rM = sheaf_M.restriction_map(i, j)
                rN = sheaf_N.restriction_map(i, j)
                for x in sheaf_M.stalks[i].elements():
                    assert rN[comps[i][x]] == comps[j][rM[x]]
        # determination: the global component pins down every other one
        # because the restrictions out of the bottom cell are surjective
        bot = lat.bottom
        for i in range(lat.n):
            rM = sheaf_M.restriction_map(bot, i)
            seen = {}
            for x in sheaf_M.stalks[bot].elements():
                seen[rM[x]] = comps[bot][x]
            assert set(seen) == set(sheaf_M.stalks[i].elements())


def test_nonexact_base_change_along_quotient():
    M4 = free_module(Z4)
    Msub = FiniteModule(Z4, (2,))
    Mq = FiniteModule(Z4, (2,))
    inc = ModuleHom(Msub, M4, ((2,),))
    quo = ModuleHom(M4, Mq, ((1,),))
    # the original sequence is exact
    rep_id = tensor_sequence_report(rg.identity_hom(Z4), inc, quo)
    assert rep_id == {"left_injective": True, "middle_exact": True,
                      "right_surjective": True, "sizes": (2, 4, 2)}
    # base change along the residue quotient destroys injectivity
    rep_q = tensor_sequence_report(rg.quotient_hom(4, 2), inc, quo)
    assert rep_q["left_injective"] is False
    assert rep_q["middle_exact"] is True and rep_q["right_surjective"] is True
    # at every honest localization cell the stalk sequence stays exact
    sp = ncspec(Z4)
    for cell in sp.lattice.cells:
        rep = tensor_sequence_report(cell.localized.insertion, inc, quo)
        assert rep["left_injective"] and rep["middle_exact"] and rep["right_surjective"]


# --- chart isomorphisms and gluing -----------------------------------------

def test_ore_chart_iso_identity_subset():
    iso = ore_chart_iso(Z6, (e6(1),))
    assert iso.report["status"] == "pass"
    assert iso.report["chart_points"] == iso.report["open_points"] == 4


def test_ore_chart_iso_z6_at_two():
    iso = ore_chart_iso(Z6, (e6(2),))
    assert iso.report["status"] == "pass"
    assert iso.report["open_points"] == 2
    assert iso.localization.result == ModularRing(3)


def test_ore_chart_iso_semisimple():
    ssa = rg.SemisimpleAlgebra(rg.Rationals(), (1, 1))
    one_block = rg.element(ssa, [[[1]], [[0]]])
    iso = ore_chart_iso(ssa, (one_block,))
    assert iso.report["status"] == "pass"
    assert iso.report["open_points"] == 2


def test_skew_line_cover_via_ore_charts():
    """The two-chart cover of the skew line: each chart sits over an Ore
    localization, and the overlap inverts both variables."""
    from ncspec.skewproj import build_proj

    sk = skew_ring(2, {(0, 1): 2})
    X = build_proj(sk)
    assert len(X.chart_rings) == 2 and len(X.overlaps) == 1
    x = rg.element(sk, {(1, 0): 1})
    y = rg.element(sk, {(0, 1): 1})
    for gen in (x, y):
        cert = certify_ore(sk, (gen,), 3)
        assert cert.structural
        iso = ore_chart_iso(sk, (gen,), cert)
        assert iso.report["status"] == "pass" and iso.report["symbolic"]
    overlap = localize(sk, (x * y,))
    assert overlap.result.inverted == frozenset({0, 1})


def sierpinski_datum(pieces=2):
    m2 = MatrixRing(PrimeField(2), 2)
    z0 = ZeroRing()
    id0 = rg.hom_validate(rg.hom_from_callable(z0, z0, lambda t: t))
    overlaps, isos = {}, {}
    for a in range(pieces):
        for b in range(pieces):
            if a != b:
                overlaps[(a, b)] = (rg.zero(m2),)
                isos[(a, b)] = id0
    return GlueDatum(tuple([m2] * pieces), overlaps, isos)


def test_glue_single_piece_is_itself():
    m2 = MatrixRing(PrimeField(2), 2)
    gl = glue(GlueDatum((m2,), {}, {}))
    assert gl.n == ncspec(m2).sober.n


def test_glue_two_sierpinski_along_generic():
    gl = glue(sierpinski_datum(2))
    assert gl.n == 3
    assert sorted(repr(s) for s in gl.sections).count("0-ring") == 1


def test_glue_three_pieces_with_triple_condition():
    gl = glue(sierpinski_datum(3))
    assert gl.n == 4


def test_glue_z6_along_mid_chart():
    """Two copies of the diamond glued along the 2-point chart at 2."""
    z3 = ModularRing(3)
    id3 = rg.identity_hom(z3)
    datum = GlueDatum(
        (Z6, Z6),
        {(0, 1): (e6(2),), (1, 0): (e6(2),)},
        {(0, 1): id3, (1, 0): id3},
    )
    gl = glue(datum)
    # 4 + 4 points, 2 identified pairs
    assert gl.n == 6


def test_glue_rejects_broken_inverse():
    # glue two copies of Z/2 x Z/2 along everything, but return with the
    # swap only one way: the inverse condition fails
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    swap = rg.hom_validate(rg.hom_from_callable(
        p22, p22, lambda x: rg.element(p22, (x.payload[1], x.payload[0]))))
    datum = GlueDatum(
        (p22, p22),
        {(0, 1): (rg.one(p22),), (1, 0): (rg.one(p22),)},
        {(0, 1): swap, (1, 0): rg.identity_hom(p22)},
    )
    with pytest.raises(CocycleViolation):
        glue(datum)


def test_qcoh_cocycle_check_finite_charts():
    z3 = ModularRing(3)
    id3 = rg.identity_hom(z3)
    datum = GlueDatum(
        (Z6, Z6),
        {(0, 1): (e6(2),), (1, 0): (e6(2),)},
        {(0, 1): id3, (1, 0): id3},
    )
    M0, M1 = free_module(Z6), free_module(Z6)
    T0 = tensor_module(localize(Z6, (e6(2),)).insertion, M0)
    identity_cocycle = {x: x for x in T0.elements()}
    good = QcohDatum(datum, (M0, M1),
                     {(0, 1): dict(identity_cocycle), (1, 0): dict(identity_cocycle)})
    assert qcoh_cocycle_check(good)["status"] == "pass"

    doubled = {x: T0.act(rg.element(z3, 2), x) for x in T0.elements()}
    bad = QcohDatum(datum, (M0, M1),
                    {(0, 1): doubled, (1, 0): dict(identity_cocycle)})
    rep = qcoh_cocycle_check(bad)
    assert rep["status"] == "fail"
    assert any(f["condition"] == "inverse" for f in rep["failures"])


def test_every_restricted_global_module_passes_cocycle_check():
    z3 = ModularRing(3)
    id3 = rg.identity_hom(z3)
    datum = GlueDatum(
        (Z6, Z6),
        {(0, 1): (e6(2),), (1, 0): (e6(2),)},
        {(0, 1): id3, (1, 0): id3},
    )
    for orders in ((), (2,), (3,), (6,)):
        M = FiniteModule(Z6, orders)
        T = tensor_module(localize(Z6, (e6(2),)).insertion, M)
        ident = {x: x for x in T.elements()}
        d = QcohDatum(datum, (M, M), {(0, 1): dict(ident), (1, 0): dict(ident)})
        assert qcoh_cocycle_check(d)["status"] == "pass"


def test_tensor_restriction_presheaf_triangle():
    M = FiniteModule(Z6, (6, 2))
    sheaf = tilde_module(Z6, M)
    lat = sheaf.space.lattice
    bot, top = lat.bottom, lat.top
    c2 = lat.cell_of_element(e6(2))
    r1 = sheaf.restriction_map(bot, c2)
    r2 = sheaf.restriction_map(c2, top)
    r3 = sheaf.restriction_map(bot, top)
    for x in sheaf.stalks[bot].elements():
        assert r2[r1[x]] == r3[x]
