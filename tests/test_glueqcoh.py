from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from conftest import (
    brute_module_axioms,
    brute_module_homs,
    brute_reconstruction,
    brute_tensor_factor,
    brute_unit_map_is_iso,
    free_module,
    python_stdout,
)

from ncspec import glueqcoh
from ncspec import rings as rg
from ncspec.errors import (
    ClosureBoundExceeded,
    CocycleViolation,
    CompositionMismatch,
    NotAHomomorphism,
    NotAModule,
    OreConditionFails,
    UnsupportedClass,
)
from ncspec.glueqcoh import (
    FiniteModule,
    GlueDatum,
    ModuleHom,
    QcohDatum,
    certify_ore,
    glue,
    global_sections_module,
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
)
from ncspec.sheafspec import ncspec
from ncspec.skewpoly import skew_ring


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


def test_a_closure_still_growing_at_the_bound_is_a_typed_error():
    # the powers 1, 2, 4 of 2 in Z/6 need words of length 2
    with pytest.raises(ClosureBoundExceeded, match="word length 1"):
        certify_ore(Z6, (e6(2),), 1)
    assert len(certify_ore(Z6, (e6(2),), 2).closure) == 3


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
        assert brute_module_axioms(FiniteModule(Z6, orders))


def divisor_patterns(n):
    """Modules over Z/n with zero, one or two cyclic summands, the latter in
    invariant-factor form d1 | d2: every such module is isomorphic to one."""
    divs = [d for d in range(2, n + 1) if n % d == 0]
    return [()] + [(d,) for d in divs] + [(a, b) for a in divs for b in divs if b % a == 0]


def residues_against_oracle(T, oracle):
    """The residues of each element of T.module in T, checked against the
    coset oracle block by block; oracle caches it by orders and scalars."""
    M, theta = T.module, T.hom
    elems = M.elements()
    one = rg.one(theta.target)
    res = {m: T.pure(one, m) for m in elems}
    cosets = 1
    for j in range(len(T.orders)):
        # the oracle sees theta only through its j-th scalars
        key = (M.orders, tuple(theta.target.split(theta(x).payload)[j]
                               for x in rg.enumerate_elements(M.ring)))
        if key not in oracle:
            oracle[key] = brute_tensor_factor(M, theta, j)
        coset_of = oracle[key]
        count = len(set(coset_of.values()))
        assert len({(coset_of[m], res[m][j]) for m in elems}) == count
        assert len({res[m][j] for m in elems}) == count
        cosets *= count
    assert T.size() == cosets == len(set(res.values()))
    assert set(res.values()) == set(T.elements())
    return res


def test_tensor_residues_match_the_coset_oracle():
    """Residue vectors name the cosets of the bilinearity relations, and the
    restriction and induced maps send the residues of m to those of m."""
    for n in range(1, 31):
        r = ModularRing(n)
        lat = ncspec(r).lattice
        quotients = [rg.quotient_hom(n, m) for m in range(1, n + 1) if n % m == 0]
        free = free_module(r)
        oracle = {}
        for orders in divisor_patterns(n):
            M = FiniteModule(r, orders)
            elems = M.elements()
            # every summand into the free module, and the free module onto M
            into = ModuleHom(M, free, tuple((n // d,) for d in orders))
            onto = ModuleHom(free, M, ((1,) * len(orders),) * len(free.orders))
            into_of = {m: into(m) for m in elems}
            onto_of = {x: onto(x) for x in free.elements()}
            sheaf = tilde_module(r, M)
            tensors = sheaf.stalks + tuple(tensor_module(q, M) for q in quotients)
            residues = []
            for T in tensors:
                res = residues_against_oracle(T, oracle)
                residues.append(res)
                Tf = tensor_module(T.hom, free)
                one = rg.one(T.hom.target)
                to_free = tensor_induced(T, Tf, into)
                assert all(to_free[res[m]] == Tf.pure(one, into_of[m]) for m in elems)
                from_free = tensor_induced(Tf, T, onto)
                assert all(from_free[Tf.pure(one, x)] == res[y] for x, y in onto_of.items())
            for i in range(lat.n):
                for j in range(lat.n):
                    if lat.leq(i, j):
                        rij = sheaf.restriction_map(i, j)
                        assert all(rij(residues[i][m]) == residues[j][m] for m in elems)


def test_base_change_into_products_matches_the_block_oracle():
    """Base change along every onto hom out of Z/6 and Z/12 into a
    product of cyclic rings, checked block by block against the coset
    oracle, and every onto restriction p (x) 1 between two of them, T2
    along p . theta, sends the residues of m in T1 to those in T2.  Among
    them: one modulus split into two factors, as Z/12 -> Z/4 x Z/3, and
    two factors joined into one, as the CRT join Z/2 x Z/3 -> Z/6."""
    def cyclic(*mods):
        return rg.product_ring([ModularRing(m) for m in mods])

    def onto(h):
        return len(set(h.block_map)) == len(h.block_map)

    shapes = ((2,), (3,), (4,), (6,), (12,), (2, 3), (3, 2), (2, 2), (4, 3), (4, 2), (2, 6))
    restrictions = 0
    for n in (6, 12):
        r = ModularRing(n)
        targets = [cyclic(*ms) for ms in shapes if all(n % m == 0 for m in ms)]
        oracle = {}
        for orders in divisor_patterns(n):
            M = FiniteModule(r, orders)
            for T1 in targets:
                for theta in filter(onto, rg.all_homs(r, T1)):
                    B1 = tensor_module(theta, M)
                    res1 = residues_against_oracle(B1, oracle)
                    for T2 in targets:
                        for p in filter(onto, rg.all_homs(T1, T2)):
                            B2 = tensor_module(rg.hom_compose(p, theta), M)
                            res2 = residues_against_oracle(B2, oracle)
                            push = tensor_restriction(B1, B2, p)
                            assert all(push(res1[m]) == res2[m] for m in M.elements())
                            restrictions += 1
    assert restrictions > 500, restrictions
    split = rg.all_homs(Z6, cyclic(2, 3))[0]
    (join,) = rg.all_homs(cyclic(2, 3), Z6)
    M = FiniteModule(Z6, (6, 2))
    B_split = tensor_module(split, M)
    B_id = tensor_module(rg.identity_hom(Z6), M)
    push = tensor_restriction(B_split, B_id, join)
    one = rg.one(Z6)
    assert all(push(B_split.pure(split(one), m)) == B_id.pure(one, m) for m in M.elements())


def test_module_checks_are_typed_errors():
    # typed errors, so the checks survive python -O
    for orders in ((4,), (1,), (6, 0)):
        with pytest.raises(NotAModule):
            FiniteModule(Z6, orders)
    with pytest.raises(UnsupportedClass):
        FiniteModule(MatrixRing(PrimeField(2), 1), (2,))
    with pytest.raises(NotAHomomorphism):
        ModuleHom(FiniteModule(Z6, (2,)), FiniteModule(Z6, (3,)), ((1,),))
    # a restriction between other rings than the two base changes
    T = tensor_module(rg.identity_hom(Z6), FiniteModule(Z6, (6,)))
    with pytest.raises(CompositionMismatch):
        tensor_restriction(T, T, rg.quotient_hom(6, 3))


# Each input or law check of the module layer, run in a child process so the
# same script also runs under python -O: a bare assert would vanish there.
MODULE_CHECKS = """
from ncspec import glueqcoh as gq
from ncspec import rings as rg
from ncspec.errors import NCSpecError

z4, z6, z30 = rg.ModularRing(4), rg.ModularRing(6), rg.ModularRing(30)
crt = rg.product_ring([rg.ModularRing(2), rg.ModularRing(3)])
M = gq.FiniteModule(z6, (6,))
split = rg.hom_from_callable(z6, crt, lambda x: rg.element(crt, (x.payload % 2, x.payload % 3)))
join = rg.hom_from_callable(crt, z6, lambda x: rg.element(z6, 3 * x.payload[0] + 4 * x.payload[1]))
T_split = gq.tensor_module(split, M)
T_id = gq.tensor_module(rg.identity_hom(z6), M)
ident = gq.ModuleHom(M, M, ((1,),))


def error_name(fn, *args):
    try:
        fn(*args)
    except NCSpecError as exc:
        return type(exc).__name__
    return None


def with_restriction(wrong):
    right = gq.tensor_restriction
    gq.tensor_restriction = lambda T1, T2, p: wrong(T1, T2, right(T1, T2, p))
    try:
        return error_name(gq.tilde_module, z30, gq.FiniteModule(z30, (30,)))
    finally:
        gq.tensor_restriction = right


def nudge(T, y):
    return T.add(y, T.pure(rg.one(T.hom.target), (1,)))


print(error_name(M.act, rg.element(z4, 1), (1,)),
      error_name(gq.tensor_module, rg.identity_hom(z4), M),
      error_name(gq.tensor_restriction, T_split, T_id, join),
      error_name(gq.tensor_induced, T_id, gq.tensor_module(rg.quotient_hom(6, 3), M), ident),
      # a non-identity restriction at a cell, then one that breaks Z/30 -> Z/15 -> Z/5
      with_restriction(lambda T1, T2, m: (lambda x: T2.zero())
                       if T1 is T2 and T1.size() > 1 else m),
      with_restriction(lambda T1, T2, m: (lambda x: nudge(T2, m(x)))
                       if (T1.size(), T2.size()) == (30, 5) else m),
      error_name(gq.tensor_sequence_report, rg.identity_hom(z6), ident,
                 gq.ModuleHom(gq.FiniteModule(z6, (2,)), M, ((3,),))))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_module_checks_survive_optimization(flags):
    out = python_stdout(flags, MODULE_CHECKS)
    # the restriction along the CRT join Z/2 x Z/3 -> Z/6 is a valid one
    assert out.split() == [
        "ElementOwnershipMismatch", "CompositionMismatch", "None",
        "ArityMismatch", "PresheafLawViolation", "PresheafLawViolation",
        "CompositionMismatch"]


def test_tilde_module_rejects_skew_rings():
    # the skew module sheaf lives on the Proj cover (`skewproj.module_sheaf`)
    from ncspec.skewproj import free_presentation

    sk = skew_ring(2, {(0, 1): 2})
    with pytest.raises(UnsupportedClass, match="over Z/n"):
        tilde_module(sk, free_presentation(sk))


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


def test_gamma_iso_on_generators_matches_the_enumeration():
    """Every module over Z/n, n <= 60, of 1-3 cyclic summands (orders in
    non-decreasing order) with at most 1000 elements: the generator test
    agrees with building every pure tensor, on Gamma and on every stalk,
    and the reconstruction verdict with rebuilding every stalk from Gamma."""
    verdicts = Counter()
    for n in range(2, 61):
        r = ModularRing(n)
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        for k in (1, 2, 3):
            for orders in combinations_with_replacement(divisors, k):
                M = FiniteModule(r, orders)
                if M.size() > 1000:
                    continue
                sheaf = tilde_module(r, M)
                got = [T.unit_map_is_iso() for T in sheaf.stalks]
                assert got == [brute_unit_map_is_iso(T) for T in sheaf.stalks], (n, orders)
                verdicts.update(got)
                # Gamma is the stalk of the bottom cell, whose insertion is the identity
                report = qcoh_roundtrip(r, M)
                assert report["gamma_isomorphism"] is got[
                    sheaf.space.lattice.bottom] is True, (n, orders)
                assert report["reconstruction"] is brute_reconstruction(sheaf), (n, orders)
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_sheaf_hom_determined_by_global_component():
    M, N = FiniteModule(Z6, (6,)), FiniteModule(Z6, (2,))
    sheaf_M, sheaf_N = tilde_module(Z6, M), tilde_module(Z6, N)
    lat = sheaf_M.space.lattice
    for f in brute_module_homs(M, N):
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
                    assert rN(comps[i][x]) == comps[j][rM(x)]
        # determination: the global component pins down every other one
        # because the restrictions out of the bottom cell are surjective
        bot = lat.bottom
        for i in range(lat.n):
            rM = sheaf_M.restriction_map(bot, i)
            seen = {}
            for x in sheaf_M.stalks[bot].elements():
                seen[rM(x)] = comps[bot][x]
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


def test_skew_line_charts_are_ore_with_no_finite_chart_iso():
    """The two-chart cover of the skew line: each chart sits over an Ore
    localization, and the overlap inverts both variables.  A skew ring has
    no finite space, so its chart isomorphism is unsupported."""
    from ncspec.skewproj import build_proj

    sk = skew_ring(2, {(0, 1): 2})
    X = build_proj(sk)
    assert len(X.chart_rings) == 2 and len(X.overlaps) == 1
    x = rg.element(sk, {(1, 0): 1})
    y = rg.element(sk, {(0, 1): 1})
    for gen in (x, y):
        cert = certify_ore(sk, (gen,), 3)
        assert cert.structural
        with pytest.raises(UnsupportedClass):
            ore_chart_iso(sk, (gen,))
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
    assert gl.space.n == ncspec(m2).space.n


def test_glue_two_sierpinski_along_generic():
    gl = glue(sierpinski_datum(2))
    assert gl.space.n == 3
    assert sorted(repr(s) for s in gl.sections).count("0-ring") == 1


def test_glue_three_pieces_with_triple_condition():
    gl = glue(sierpinski_datum(3))
    assert gl.space.n == 4


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
    assert gl.space.n == 6


@pytest.mark.parametrize("side", [0, 1])
def test_glue_rejects_a_failing_chart_report(monkeypatch, side):
    real = glueqcoh.ore_chart_iso
    calls = []

    def failing_on_one_side(r, E):
        chart = real(r, E)
        calls.append(chart)
        if (len(calls) - 1) % 2 != side:
            return chart
        return glueqcoh.ChartIso(chart.ambient, chart.localization, chart.chart,
                                 chart.point_map,
                                 {**chart.report, "status": "fail", "triangle": False})

    monkeypatch.setattr(glueqcoh, "ore_chart_iso", failing_on_one_side)
    id3 = rg.identity_hom(ModularRing(3))
    datum = GlueDatum((Z6, Z6), {(0, 1): (e6(2),), (1, 0): (e6(2),)},
                      {(0, 1): id3, (1, 0): id3})
    with pytest.raises(CocycleViolation, match=r"overlap \(0, 1\).*\['triangle'\]"):
        glue(datum)


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


def test_glue_names_the_broken_inverse_condition():
    # the swap one way and the identity back compose to the swap, not 1
    p22, swap = _p22_swap()
    datum = GlueDatum((p22, p22), {(0, 1): (rg.one(p22),), (1, 0): (rg.one(p22),)},
                      {(0, 1): swap, (1, 0): rg.identity_hom(p22)})
    with pytest.raises(CocycleViolation, match="inverse condition fails"):
        glue(datum)


def test_glue_checks_the_inverse_condition_over_q():
    # Q x Q glued to itself: the block swap is its own inverse, and the map
    # (x, y) -> (x, x) is not invertible, which the inverse condition sees
    qq = rg.SemisimpleAlgebra(rg.Rationals(), (1, 1))
    overlaps = {(0, 1): (rg.one(qq),), (1, 0): (rg.one(qq),)}
    L = localize(qq, (rg.one(qq),)).result
    swap, diag = (rg.hom_validate(rg.RingHom(L, L, rg.BlockRule(feeds)))
                  for feeds in ((1, 0), (0, 0)))
    glued = glue(GlueDatum((qq, qq), overlaps, {(0, 1): swap, (1, 0): swap}))
    assert glued.space.n == ncspec(qq).space.n
    with pytest.raises(CocycleViolation, match="inverse condition fails"):
        glue(GlueDatum((qq, qq), overlaps, {(0, 1): diag, (1, 0): diag}))


def _p22_swap():
    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    return p22, rg.hom_validate(rg.hom_from_callable(
        p22, p22, lambda x: rg.element(p22, (x.payload[1], x.payload[0]))))


def test_glue_rejects_a_broken_triple_condition_alone():
    # three copies of Z/2 x Z/2 glued along everything: the swap between
    # pieces 0 and 1 is its own inverse, but it disagrees with going round
    # through piece 2 by identities
    p22, swap = _p22_swap()
    ident = rg.identity_hom(p22)
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    datum = GlueDatum(
        (p22, p22, p22),
        {pair: (rg.one(p22),) for pair in pairs},
        {pair: swap if set(pair) == {0, 1} else ident for pair in pairs},
    )
    with pytest.raises(CocycleViolation, match="triple"):
        glue(datum)
    glue(GlueDatum(datum.pieces, datum.overlaps, {pair: ident for pair in pairs}))


@pytest.mark.parametrize("wrong", [(0, 1), (1, 0)])
def test_glue_rejects_an_iso_with_wrong_endpoints(wrong):
    # either iso of a pair may have the wrong ends; both are checked before
    # they are composed for the inverse condition
    p22, _swap = _p22_swap()
    isos = {(0, 1): rg.identity_hom(p22), (1, 0): rg.identity_hom(p22)}
    isos[wrong] = rg.identity_hom(ModularRing(2))
    datum = GlueDatum((p22, p22), {(0, 1): (rg.one(p22),), (1, 0): (rg.one(p22),)}, isos)
    with pytest.raises(CocycleViolation, match="endpoints"):
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


def three_chart_qcoh(change=None):
    """Three copies of the free module over Z/6 glued along their Z/3 charts
    at 2, with identity cocycles except where change(T, overlaps, cocycles)
    edits them."""
    id3 = rg.identity_hom(ModularRing(3))
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    overlaps = {p: (e6(2),) for p in pairs}
    T = tensor_module(localize(Z6, (e6(2),)).insertion, free_module(Z6))
    cocycles = {p: {x: x for x in T.elements()} for p in pairs}
    if change is not None:
        change(T, overlaps, cocycles)
    datum = GlueDatum((Z6,) * 3, overlaps, {p: id3 for p in pairs})
    return QcohDatum(datum, (free_module(Z6),) * 3, cocycles)


def _times_two(T, overlaps, cocycles):
    doubled = {x: T.act(rg.element(ModularRing(3), 2), x) for x in T.elements()}
    cocycles[(0, 1)] = cocycles[(1, 0)] = doubled


def _swap_zero(T, overlaps, cocycles):
    # an involution of Z/3 that moves 0: it keeps the inverse law only
    x0, x1, x2 = T.elements()
    cocycles[(0, 1)] = cocycles[(1, 0)] = {x0: x1, x1: x0, x2: x2}


def _non_identity_self_overlap(T, overlaps, cocycles):
    # piece 0 meets itself everywhere, along a cocycle that is not the identity
    overlaps[(0, 0)] = (e6(1),)
    T00 = tensor_module(localize(Z6, (e6(1),)).insertion, free_module(Z6))
    cocycles[(0, 0)] = {x: T00.act(e6(5), x) for x in T00.elements()}


@pytest.mark.parametrize("change, failed", [
    (None, set()),
    # x2 is its own inverse on Z/3, but x2 on (0, 1) against the identity
    # on (1, 2) and (0, 2) breaks the triple condition only
    (_times_two, {"triple"}),
    (_swap_zero, {"additive", "semilinear", "triple"}),
    (_non_identity_self_overlap, {"identity"}),
])
def test_qcoh_cocycle_check_three_charts(change, failed):
    rep = qcoh_cocycle_check(three_chart_qcoh(change))
    assert {f["condition"] for f in rep["failures"]} == failed
    assert rep["status"] == ("fail" if failed else "pass")


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
        assert r2(r1(x)) == r3(x)
