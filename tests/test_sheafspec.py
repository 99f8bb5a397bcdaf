import pytest

from conftest import (
    brute_prim_witness,
    brute_sections_limit,
    brute_verify,
    finite_commutative_grid,
    hom_corpus,
    python_stdout,
)

from ncspec import rings as rg
from ncspec import sheafspec
from ncspec.errors import NotACover, NotComparable, NotOpen, PresheafLawViolation
from ncspec.localization import localize
from ncspec.qpoly import PidLattice, UnivariatePolyRing
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    SemisimpleAlgebra,
    ZeroRing,
)
from ncspec.sheafspec import (
    PidNCSpec,
    RingedSpaceMorphism,
    check_functoriality,
    is_prim,
    ncspec,
    ncspec_morphism,
    prim_is_local_check,
    recover_hom,
    sections,
)


def z6_space():
    return ncspec(ModularRing(6))


def mid_cells(sp):
    z6 = ModularRing(6)
    return (sp.lattice.cell_of_element(rg.element(z6, 2)),
            sp.lattice.cell_of_element(rg.element(z6, 3)))


def test_matrix_spaces():
    for base in (PrimeField(3), Rationals()):
        sp = ncspec(MatrixRing(base, 2))
        assert sp.point_count() == 2
        assert sections(sp, sp.space.carrier()) == MatrixRing(base, 2)
        gamma_open = sp.space.up[sp.lattice.top]
        assert sections(sp, gamma_open) == ZeroRing()
        res = sp.sheaf.restriction(sp.lattice.bottom, sp.lattice.top)
        assert res.target == ZeroRing()


def test_zero_ring_space():
    sp = ncspec(ZeroRing())
    assert sp.point_count() == 1
    assert sections(sp, sp.space.carrier()) == ZeroRing()
    assert sections(sp, frozenset()) == ZeroRing()


def test_global_sections_recover_ring():
    for r in (ModularRing(6), ModularRing(12),
              SemisimpleAlgebra(Rationals(), (1, 2))):
        sp = ncspec(r)
        assert sections(sp, sp.space.carrier()) == r


def test_sections_on_nonbasic_opens():
    sp = z6_space()
    c2, c3 = mid_cells(sp)
    U = sp.space.up[c2] | sp.space.up[c3]
    got = sections(sp, U)
    # the limit glues the two localizations back into a product of cyclics
    assert rg.cardinality(got) == 6
    assert got == rg.product_ring([ModularRing(3), ModularRing(2)])
    with pytest.raises(NotOpen):
        sections(sp, frozenset({sp.lattice.bottom}) - {None})  # not an upper set
        # (the bottom alone is never open unless the lattice is a point)


def test_sections_reassemble_ring_from_coprime_charts():
    # the three coprime localization charts of Z/30 glue back to the ring
    z30 = ModularRing(30)
    sp = ncspec(z30)
    cells = [sp.lattice.cell_of_element(rg.element(z30, k)) for k in (6, 10, 15)]
    U = frozenset().union(*[sp.space.up[c] for c in cells])
    got = sections(sp, U)
    assert rg.cardinality(got) == 30
    assert got == rg.product_ring([ModularRing(5), ModularRing(3), ModularRing(2)])
    U2 = sp.space.up[cells[0]] | sp.space.up[cells[1]]
    assert sections(sp, U2) == rg.product_ring([ModularRing(5), ModularRing(3)])


def test_sections_match_the_limit_scan_oracle():
    checked = 0
    for r in finite_commutative_grid():
        if r.moduli is None or rg.cardinality(r) > 60:
            continue
        sp = ncspec(r)
        for U in sp.all_opens():
            if len(sp.space.minimal_elements(U)) > 1:
                assert sections(sp, U) == brute_sections_limit(sp, U), (r, sorted(U))
                checked += 1
    assert checked == 259


def test_sections_over_every_open_of_z210():
    sp = ncspec(ModularRing(210))
    for U in sp.all_opens():
        assert 210 % rg.cardinality(sections(sp, U)) == 0, sorted(U)
    punctured = sp.space.carrier() - {sp.lattice.bottom}
    assert sections(sp, punctured) == rg.product_ring(
        [ModularRing(7), ModularRing(5), ModularRing(3), ModularRing(2)])


def test_semisimple_sections_are_block_unions():
    ssa = SemisimpleAlgebra(Rationals(), (1, 1))
    sp = ncspec(ssa)
    cell1 = next(i for i, c in enumerate(sp.lattice.cells) if c.key == frozenset({0}))
    cell2 = next(i for i, c in enumerate(sp.lattice.cells) if c.key == frozenset({1}))
    U = sp.space.up[cell1] | sp.space.up[cell2]
    assert sections(sp, U) == ssa
    # cross-check the closed form against the honest limit over a finite field
    ssa_f = SemisimpleAlgebra(PrimeField(2), (1, 1))
    spf = ncspec(ssa_f)
    c1 = next(i for i, c in enumerate(spf.lattice.cells) if c.key == frozenset({0}))
    c2 = next(i for i, c in enumerate(spf.lattice.cells) if c.key == frozenset({1}))
    Uf = spf.space.up[c1] | spf.space.up[c2]
    got = sections(spf, Uf)
    assert rg.cardinality(got) == rg.cardinality(ssa_f)


def test_sheaf_identity_and_gluability_on_semisimple():
    ssa = SemisimpleAlgebra(Rationals(), (1, 1, 1))
    sp = ncspec(ssa)
    # gluability and identity over every open cover of every open set,
    # using the closed form for sections
    opens = sp.space.all_open_sets()
    for U in opens:
        SU = sections(sp, U)
        pieces = [V for V in opens if V and V < U]
        if not pieces or frozenset().union(*pieces) != U:
            continue
        union_key = frozenset().union(*[sp.lattice.cells[c].key for c in U])
        assert SU == sp.lattice.cells[sp.lattice._key_index[union_key]].localized.result


def test_pid_space_is_lazy():
    sp = ncspec(UnivariatePolyRing())
    assert isinstance(sp, PidNCSpec)
    assert isinstance(sp.lattice, PidLattice)
    qx = UnivariatePolyRing()
    x = rg.element(qx, [0, 1])
    assert sp.basic_sections(x) == localize(qx, (x,)).result


def test_induced_morphism_preimage_formula():
    theta = rg.quotient_hom(6, 3)
    m = ncspec_morphism(theta)
    Y, X = m.target, m.source
    for j in range(Y.lattice.n):
        pre = m.preimage_base_open(Y.basic_open(j))
        image = tuple(theta(a) for a in Y.lattice.cells[j].representative)
        cell = X.lattice.cell_of_subset(image)
        assert pre == X.space.up[cell]


def test_identity_morphism_is_identity():
    z6 = ModularRing(6)
    m = ncspec_morphism(rg.identity_hom(z6))
    assert m.point_map == {i: i for i in range(m.source.space.n)}
    assert recover_hom(m) == rg.identity_hom(z6)
    assert m.verify()


def test_zero_morphism_hits_generic():
    z6 = ModularRing(6)
    m = ncspec_morphism(rg.to_zero_hom(z6))
    assert m.point_map == {0: m.target.generic}


def test_point_map_on_diamond():
    theta = rg.quotient_hom(6, 3)
    m = ncspec_morphism(theta)
    X, Y = m.source, m.target
    z6, z3 = ModularRing(6), ModularRing(3)
    c2_6 = Y.lattice.cell_of_element(rg.element(z6, 2))
    c2_3 = X.lattice.cell_of_element(rg.element(z3, 2))
    assert m.point_map[X.lattice.bottom] == c2_6
    assert m.point_map[X.generic] == Y.generic


def test_functoriality_chains():
    rep = check_functoriality(rg.quotient_hom(12, 6), rg.quotient_hom(6, 3))
    assert rep["status"] == "pass"
    rep2 = check_functoriality(rg.quotient_hom(6, 3), rg.to_zero_hom(ModularRing(3)))
    assert rep2["status"] == "pass"
    idm = rg.identity_hom(ModularRing(6))
    assert check_functoriality(idm, idm)["status"] == "pass"


def test_recover_round_trip():
    for theta in (rg.quotient_hom(6, 3), rg.quotient_hom(12, 4),
                  rg.to_zero_hom(ModularRing(5))):
        assert recover_hom(ncspec_morphism(theta)) == theta


def test_faithfulness_on_product_endomorphisms():
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    endos = rg.all_homs(p22, p22)
    assert len(endos) == 4
    data = [ncspec_morphism(t) for t in endos]
    for i in range(4):
        for j in range(i + 1, 4):
            assert data[i] != data[j]


def test_induced_morphisms_are_prim():
    for theta in (rg.identity_hom(ModularRing(6)), rg.quotient_hom(6, 3),
                  rg.quotient_hom(12, 6), rg.to_zero_hom(ModularRing(6))):
        assert is_prim(ncspec_morphism(theta))


def test_identity_morphisms_of_infinite_rings_are_prim():
    for r in (MatrixRing(Rationals(), 2), SemisimpleAlgebra(Rationals(), (1, 2))):
        m = ncspec_morphism(rg.identity_hom(r))
        assert is_prim(m)


def test_crt_isomorphism_induces_space_isomorphism():
    z6 = ModularRing(6)
    p23 = rg.product_ring([ModularRing(2), ModularRing(3)])
    (crt,) = rg.all_homs(p23, z6)
    m = ncspec_morphism(crt)
    assert len(set(m.point_map.values())) == m.source.space.n == m.target.space.n
    assert is_prim(m)
    assert recover_hom(m) == crt


def crafted_zero_to_closed_point():
    sp6 = z6_space()
    sp0 = ncspec(ZeroRing())
    c2, _ = mid_cells(sp6)
    pt = c2
    comap = {j: rg.to_zero_hom(sp6.sheaf.assignment[j]) for j in range(sp6.lattice.n)}
    return RingedSpaceMorphism(sp0, sp6, {0: pt}, comap)


def crafted_z3_to_bottom_point():
    sp6, sp3 = z6_space(), ncspec(ModularRing(3))
    bot6 = sp6.lattice.bottom
    closed3 = next(i for i in range(sp3.space.n) if i != sp3.generic)
    pm = {sp3.generic: sp6.generic, closed3: bot6}
    comap = {}
    for j in range(sp6.lattice.n):
        U = frozenset(x for x, y in pm.items() if y in sp6.space.up[j])
        tgt = sections(sp3, U)
        src = sp6.sheaf.assignment[j]
        if rg.is_zero_ring(tgt):
            comap[j] = rg.to_zero_hom(src, tgt)
        elif j == sp6.lattice.bottom:
            comap[j] = rg.quotient_hom(6, 3)
        else:
            comap[j] = rg.hom_validate(rg.hom_from_callable(
                src, tgt, lambda x, t=tgt: rg.from_int(t, x.payload)))
    return RingedSpaceMorphism(sp3, sp6, pm, comap)


def crafted_swapped_global_comap():
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    sp = ncspec(p22)
    swap = rg.hom_validate(rg.hom_from_callable(
        p22, p22, lambda x: rg.element(p22, (x.payload[1], x.payload[0]))))
    comap = {}
    for j in range(sp.lattice.n):
        if j == sp.lattice.bottom:
            comap[j] = swap
        else:
            comap[j] = rg.identity_hom(sp.sheaf.assignment[j])
    return RingedSpaceMorphism(sp, sp, {i: i for i in range(sp.space.n)}, comap)


def test_crafted_morphisms_fail_prim():
    from ncspec.sheafspec import is_prim_report

    rep_a = is_prim_report(crafted_zero_to_closed_point())
    assert not rep_a["prim"]
    assert rep_a["witness"]["condition"] == "preimage_not_union_irreducible"
    m_b = crafted_z3_to_bottom_point()
    assert m_b.verify()      # a perfectly good ringed-space morphism
    rep_b = is_prim_report(m_b)
    assert not rep_b["prim"]  # but not induced by any ring map
    assert rep_b["witness"]["condition"] == "restriction_square_not_pushout"
    assert not is_prim(crafted_swapped_global_comap())


def discontinuous_endomorphisms():
    """Hand-built Z/6 -> Z/6 morphisms whose point maps swap the bottom
    with a middle point, so a later cell has a preimage that is not open;
    earlier cells fail the endpoint or the irreducibility check first."""
    sp = z6_space()
    n, bottom = sp.lattice.n, sp.lattice.bottom
    two, three = mid_cells(sp)
    out = []
    for top_image in (sp.generic, two):
        pm = {sp.generic: top_image, bottom: two, two: bottom, three: three}
        for wrong in (None, bottom):
            comap = {j: (rg.to_zero_hom(sp.sheaf.assignment[j]) if j == wrong
                         else rg.identity_hom(sp.sheaf.assignment[j])) for j in range(n)}
            out.append(RingedSpaceMorphism(sp, sp, pm, comap))
    return out


def outcome(fn, *args):
    """fn's value, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def answer_kind(result):
    """The error name, witness condition or plain value of an outcome."""
    if isinstance(result, tuple):
        return result[0]
    if isinstance(result, dict):
        return result["condition"]
    return result


def test_square_walk_matches_the_pair_loops():
    # verify and the prim witness walk each restriction square once; the
    # pair loops that rebuild both preimages per square are the oracle
    morphisms = [ncspec_morphism(theta) for theta in hom_corpus(12)]
    morphisms += [crafted_zero_to_closed_point(), crafted_z3_to_bottom_point(),
                  crafted_swapped_global_comap()]
    morphisms += discontinuous_endomorphisms()
    kinds = []
    for m in morphisms:
        got = outcome(m.verify)
        assert got == outcome(brute_verify, m)
        want = outcome(brute_prim_witness, m, range(m.target.lattice.n))
        report = outcome(sheafspec.is_prim_report, m)
        assert (report["witness"] if isinstance(report, dict) else report) == want
        kinds.append((answer_kind(got), answer_kind(want)))
    # a discontinuous morphism fails at its first bad cell: an endpoint or
    # irreducibility failure there comes before the later preimage error
    assert kinds[-4:] == [("NotOpen", "NotOpen"), (False, "NotOpen"),
                          ("NotOpen", "preimage_not_union_irreducible"),
                          (False, "preimage_not_union_irreducible")]
    assert {k for pair in kinds for k in pair} == {
        True, False, None, "NotOpen", "preimage_not_union_irreducible",
        "restriction_square_not_pushout"}


def test_prim_locality_matches_the_pair_loops():
    m = ncspec_morphism(rg.quotient_hom(6, 3))
    sp6 = m.target
    c2, c3 = mid_cells(sp6)
    up = sp6.space.up
    bad = crafted_z3_to_bottom_point()
    cases = [(m, [sp6.space.carrier()]),
             (m, [sp6.space.carrier(), up[c2] | up[c3]]),
             (m, [sp6.space.carrier(), up[c2], up[c3]]),
             (bad, [bad.target.space.carrier()])]
    for mm, cover in cases:
        n = mm.target.lattice.n
        whole = brute_prim_witness(mm, range(n))
        for U in cover:
            cells = [j for j in range(n) if j in frozenset(U)]
            assert sheafspec._prim_witness(mm, sorted(U)) == brute_prim_witness(mm, cells)
        assert prim_is_local_check(mm, cover) is (whole is None)


def test_fullness_on_prim_morphisms():
    # whatever passes the prim test must be the induced morphism of its
    # own global-sections hom
    for theta in (rg.identity_hom(ModularRing(6)), rg.quotient_hom(6, 3),
                  rg.quotient_hom(12, 2)):
        m = ncspec_morphism(theta)
        if is_prim(m):
            assert m == ncspec_morphism(recover_hom(m))


def test_generic_point_in_every_nonempty_open():
    for r in (ModularRing(6), ModularRing(12), MatrixRing(PrimeField(2), 2)):
        sp = ncspec(r)
        for U in sp.space.all_open_sets():
            if U:
                assert sp.generic in U


def test_prim_locality():
    theta = rg.quotient_hom(6, 3)
    m = ncspec_morphism(theta)
    sp6 = m.target
    c2, c3 = mid_cells(sp6)
    whole = sp6.space.carrier()
    cover = [whole, sp6.space.up[c2] | sp6.space.up[c3]]
    assert prim_is_local_check(m, cover) is True
    bad = crafted_z3_to_bottom_point()
    assert prim_is_local_check(bad, [bad.target.space.carrier()]) is False
    with pytest.raises(NotACover):
        prim_is_local_check(m, [sp6.space.up[c2]])


def test_opens_naming_points_outside_the_carrier_are_rejected():
    sp6 = z6_space()
    with pytest.raises(NotOpen):
        sections(sp6, {0, 1, 2, 3, -4})
    m = ncspec_morphism(rg.quotient_hom(6, 3))
    with pytest.raises(NotACover, match="not open"):
        prim_is_local_check(m, [m.target.space.carrier() | {-1}])


def test_wrong_restriction_is_a_typed_presheaf_law_error(monkeypatch):
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    swap = rg.hom_validate(rg.hom_from_callable(
        p22, p22, lambda x: rg.element(p22, (x.payload[1], x.payload[0]))))
    induced_between = sheafspec.induced_between

    def twisted(theta, LA, LB):
        # restrictions out of the global sections precomposed with the swap
        p = induced_between(theta, LA, LB)
        return rg.hom_compose(p, swap) if p.source == p22 else p

    sheafspec.clear_caches()
    monkeypatch.setattr(sheafspec, "induced_between", twisted)
    with pytest.raises(PresheafLawViolation, match="does not commute with the insertions"):
        ncspec(p22)


def test_restriction_needs_a_smaller_basic_open():
    sp = z6_space()
    two, three = mid_cells(sp)
    with pytest.raises(NotComparable):
        sp.sheaf.restriction(two, three)


def test_sheaf_equals_a_fresh_twin_after_a_restriction():
    # the restriction cache takes part in neither == nor repr
    sp = z6_space()
    twin = sheafspec.SheafOnBase(sp.lattice, sp.sheaf.assignment)
    sp.sheaf.restriction(sp.lattice.bottom, sp.lattice.top)
    assert sp.sheaf._res_cache and not twin._res_cache
    assert sp.sheaf == twin and repr(sp.sheaf) == repr(twin)


# Wrong cell maps under the identity of Z/6, injected where
# `ncspec_morphism` reads its cell map: one breaks join preservation, the
# other swaps the two middle cells so the comaps land in the wrong
# sections.  A restriction to an open that is not smaller is refused too.
MORPHISM_CHECKS = """
from ncspec import sheafspec
from ncspec import rings as rg
from ncspec.errors import NCSpecError

z6 = rg.ModularRing(6)
sp = sheafspec.ncspec(z6)
lat = sp.lattice
two, three = [i for i in range(lat.n) if i not in (lat.bottom, lat.top)]
cell_map = sheafspec._cell_map


def error_name(fn, *args):
    try:
        fn(*args)
    except NCSpecError as exc:
        return type(exc).__name__
    return None


def with_cell_map(remap):
    def wrong(theta, Y, X):
        return {i: remap.get(c, c) for i, c in cell_map(theta, Y, X).items()}
    sheafspec._cell_map = wrong
    try:
        return error_name(sheafspec.ncspec_morphism, rg.identity_hom(z6))
    finally:
        sheafspec._cell_map = cell_map


print(with_cell_map({lat.bottom: two}), with_cell_map({two: three, three: two}),
      error_name(sheafspec._restriction_at_minima,
                 sp, sp.space.up[two], [two], sp.space.up[three], [three]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_morphism_checks_are_typed_errors(flags):
    out = python_stdout(flags, MORPHISM_CHECKS)
    assert out.split() == ["NotJoinPreserving", "PresheafLawViolation", "NotComparable"]
