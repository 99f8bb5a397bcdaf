from fractions import Fraction
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest
from conftest import (
    brute_relation_echelon,
    brute_shift,
    graded_element,
    graded_piece_basis,
    quotient_by_variables,
)

from ncspec import rings as rg
from ncspec import skewpoly, skewproj
from ncspec.errors import (
    ArityMismatch,
    BoundInconclusive,
    CocycleViolation,
    ElementOwnershipMismatch,
    InhomogeneousRelation,
    UnsupportedClass,
)
from ncspec.rings import UnivariatePolyRing, skew_ring
from ncspec.skewproj import (
    GradedModulePresentation,
    SkewQcohDatum,
    build_proj,
    free_presentation,
    gamma,
    is_torsion,
    module_sheaf,
    presentation_from_rows,
    qcoh_cocycle_check,
    serre_unit,
    twist,
)
from ncspec.skewproj import _cone, _raw_space, _shift

SK2 = skew_ring(2, {(0, 1): 2})
SK3 = skew_ring(3, {(0, 1): 2, (0, 2): 3, (1, 2): 5})


def mono(r, exps, c=1):
    return rg.element(r, {tuple(exps): Fraction(c)})


# --- normal-form arithmetic --------------------------------------------------

def test_commutation_relation_instances():
    x, y = mono(SK2, (1, 0)), mono(SK2, (0, 1))
    # x y = 2 y x rearranges to y x = (1/2) x y
    assert (y * x).payload == (((1, 1), Fraction(1, 2)),)
    assert (x * y).payload == (((1, 1), Fraction(1)),)
    xy = x * y
    assert (xy * xy).payload == (((2, 2), Fraction(1, 2)),)


def test_mul_identity_and_bilinearity():
    p = rg.element(SK2, {(1, 0): 1, (0, 2): Fraction(3, 2)})
    assert p * rg.one(SK2) == p
    q = mono(SK2, (1, 1))
    r = mono(SK2, (0, 1), 2)
    left = p * (q + r)
    right = p * q + p * r
    assert left == right


def test_owner_mismatch():
    other = skew_ring(2, {(0, 1): 3})
    with pytest.raises(ElementOwnershipMismatch):
        mono(SK2, (1, 0)) * mono(other, (1, 0))


def test_twist_cocycle_random_triples(rng):
    lam = SK3.lam_map
    for _ in range(40):
        a, b, c = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        lhs = skewpoly.twist(lam, a, b) * skewpoly.twist(lam, tuple(
            x + y for x, y in zip(a, b)), c)
        rhs = skewpoly.twist(lam, b, c) * skewpoly.twist(lam, a, tuple(
            x + y for x, y in zip(b, c)))
        assert lhs == rhs


def fraction_power_twist(lam, a, b):
    """The twist as a product of Fraction powers, one per pair j < i."""
    t = Fraction(1)
    for i in range(len(a)):
        for j in range(i):
            t *= lam[(j, i)] ** (-a[i] * b[j])
    return t


def test_twist_matches_the_fraction_power_product(rng):
    values = [Fraction(2), Fraction(-3), Fraction(2, 3), Fraction(-5, 7), Fraction(1), Fraction(-1)]
    for n in (1, 2, 3, 4):
        for _ in range(60):
            lam = {(j, i): rng.choice(values) for i in range(n) for j in range(i)}
            a, b = (tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2))
            got = skewpoly.twist(lam, a, b)
            assert type(got) in (int, Fraction) and got == fraction_power_twist(lam, a, b), (
                lam, a, b)
    # integral scalars and a nonnegative product of exponents: no denominator
    lam = {(0, 1): Fraction(2), (0, 2): Fraction(-3), (1, 2): Fraction(1)}
    got = skewpoly.twist(lam, (0, -1, -2), (1, 1, 0))
    assert type(got) is int and got == fraction_power_twist(lam, (0, -1, -2), (1, 1, 0)) == 18


def test_associativity_on_random_elements(rng):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = Fraction(rng.randint(1, 5))
        return rg.element(SK3, terms)

    for _ in range(15):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p * q) * r == p * (q * r)


# --- graded pieces ------------------------------------------------------------

def test_graded_piece_basis_examples():
    basis = _cone(2, frozenset({0}), 0, 3)
    assert basis == [(-3, 3), (-2, 2), (-1, 1), (0, 0)]
    assert _cone(2, frozenset(), -1, 3) == []
    for n, d in ((2, 3), (3, 2), (3, 4)):
        assert len(_cone(n, frozenset(), d, d + 1)) == comb(d + n - 1, n - 1)
    # the same vectors in the same (lexicographic) order as the brute
    # enumeration, for every subset S of the variables; the enumeration
    # reads only the number of variables of its ring
    for n in range(1, 6):
        r = SimpleNamespace(nvars=n)
        for k in range(n + 1):
            for S in map(frozenset, combinations(range(n), k)):
                for total in range(-3, 7):
                    for box in range(4):
                        assert _cone(n, S, total, box) == graded_piece_basis(
                            r, S, total, box), (n, S, total, box)


def test_presentation_homogeneity_checks():
    with pytest.raises(InhomogeneousRelation):
        presentation_from_rows(SK2, (0,), [[{(1, 0): 1, (0, 0): 1}]])
    presentation_from_rows(SK2, (0,), [[{(1, 0): 1, (0, 1): 1}]])
    with pytest.raises(ArityMismatch):
        presentation_from_rows(SK2, (0,), [[{(1, 0): 1}, {(0, 1): 1}]])
    with pytest.raises(UnsupportedClass):
        free_presentation(skew_ring(2, {(0, 1): 2}, inverted=[0]))


def random_presentation(rng, r):
    """1-2 generators in degrees -1..2 and 1-3 homogeneous relation rows,
    each entry 0-2 monomials; coefficients may be 0, so rows may vanish."""
    degs = tuple(rng.randint(-1, 2) for _ in range(rng.randint(1, 2)))
    rows = []
    for _ in range(rng.randint(1, 3)):
        D = rng.randint(max(degs), max(degs) + 2)
        row = []
        for g in degs:
            monomials = graded_piece_basis(r, set(), D - g, 0)
            picked = rng.sample(monomials, min(len(monomials), rng.randint(0, 2)))
            row.append({e: Fraction(rng.choice((1, -1, 2, 0, Fraction(1, 3)))) for e in picked})
        rows.append(row)
    return presentation_from_rows(r, degs, rows)


def nonzero_relations(pres):
    return [row for row in pres.relations if any(skewpoly.from_canonical(p) for p in row)]


def test_parsed_rows_match_the_relations(rng):
    """`rows` holds each nonzero relation once, as its degree and terms; it
    is neither compared nor shown."""
    for r in (SK2, SK3):
        for pres in [quotient_by_variables(r)] + [random_presentation(rng, r) for _ in range(30)]:
            relations = nonzero_relations(pres)
            assert len(pres.rows) == len(relations)
            for (D, terms), row in zip(pres.rows, relations):
                polys = [{} for _ in pres.gen_degrees]
                for (t, e), c in terms:
                    assert e not in polys[t] and c and sum(e) + pres.gen_degrees[t] == D
                    polys[t][e] = c
                assert polys == [skewpoly.from_canonical(p) for p in row]
            twin = GradedModulePresentation(r, pres.gen_degrees, pres.relations)
            assert twin == pres and hash(twin) == hash(pres) and "rows" not in repr(pres)
    assert quotient_by_variables(SK3).rows == tuple(
        (1, (((0, tuple(int(k == i) for k in range(3))), 1),)) for i in range(3))


def test_payloads_drop_zero_coefficients_from_dicts_and_tuples():
    """A dict payload is read as its items, through the same path as a
    canonical tuple, so a zero coefficient reaches no canonical form and
    two spellings of one element, relation or presentation are equal."""
    x1, x2 = (1, 0), (0, 1)
    assert rg.element(SK2, {x1: 0}) == rg.element(SK2, ((x1, 0),)) == SK2.zero
    assert rg.element(SK2, {x1: 0}).payload == ()
    assert rg.element(SK2, {x1: 0, x2: 3}).payload == ((x2, Fraction(3)),)
    rows = [[{x1: 1, x2: 0}], [{x2: 0}]]
    pres = presentation_from_rows(SK2, (2,), rows)
    assert pres.relations == (((((1, 0), Fraction(1)),),), ((),))
    twin = presentation_from_rows(SK2, (2,), pres.relations)
    assert twin == pres and hash(twin) == hash(pres)
    assert (graded_element([{x1: 0, x2: 2}], 3)
            == graded_element([((x2, 2),)], 3)
            == {"degree": 3, "components": ((((0, 1), Fraction(2)),),)})


def test_shift_and_relation_echelon_match_the_payload_path(rng):
    """`_shift` against `skewpoly.mul` + `from_canonical` + column lookup,
    with multipliers one step past the box so products cross the
    truncation; `_raw_space`'s relation echelon against the same path."""
    crossed = landed = ranks = 0
    for r in (SK2, SK3):
        for _ in range(30):
            pres = random_presentation(rng, r)
            S = frozenset(rng.sample(range(r.nvars), rng.randint(0, r.nvars)))
            d, box = rng.randint(0, 3), rng.randint(0, 2)
            raw = _raw_space(pres, S, d, box)
            for (D, terms), row in zip(pres.rows, nonzero_relations(pres)):
                for b in graded_piece_basis(r, S, d - D, box + 1):
                    got = _shift(r.lam_map, b, terms, raw.index)
                    assert got == brute_shift(r, b, row, raw.index), (pres, S, d, box, b)
                    crossed += got is None
                    landed += got is not None
            ech = brute_relation_echelon(pres, raw.index, S, d, box)
            assert raw.ech.rows == ech.rows and raw.ech.pivots == ech.pivots
            ranks += ech.rank
    assert crossed > 20 and landed > 20 and ranks > 20, (crossed, landed, ranks)


# --- the Proj cover -----------------------------------------------------------

def test_build_proj_counts():
    X2 = build_proj(SK2)
    assert len(X2.chart_rings) == 2 and len(X2.overlaps) == 1 and not X2.triples
    X3 = build_proj(SK3)
    assert len(X3.chart_rings) == 3
    assert len(X3.overlaps) == 3 and len(X3.triples) == 1


def test_commutative_degeneration_gives_polynomial_charts():
    X2 = build_proj(skew_ring(2, {(0, 1): 1}))
    assert all(isinstance(c, UnivariatePolyRing) for c in X2.chart_rings)
    X3 = build_proj(skew_ring(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}))
    for chart in X3.chart_rings:
        assert rg.is_commutative(chart)


def test_chart_rings_are_quantum_planes_for_n3():
    X3 = build_proj(SK3)
    for chart in X3.chart_rings:
        assert chart.nvars == 2
        assert not rg.is_commutative(chart)


# --- global sections -----------------------------------------------------------

def test_gamma_free_line_counts():
    for lam in (1, 2, -1):
        r = skew_ring(2, {(0, 1): lam})
        X = build_proj(r)
        g = gamma(X, free_presentation(r), (-3, 6))
        for d in range(-3, 0):
            assert g["dims"][d] == 0
        for d in range(0, 7):
            assert g["dims"][d] == d + 1


def test_gamma_plane_counts_match_binomials():
    X = build_proj(SK3)
    g = gamma(X, free_presentation(SK3), (2, 3))
    assert g["dims"][2] == 6 and g["dims"][3] == 10
    Xc = build_proj(skew_ring(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}))
    gc = gamma(Xc, free_presentation(Xc.ring), (0, 3))
    assert [gc["dims"][d] for d in range(4)] == [comb(d + 2, 2) for d in range(4)]
    for n, hi in ((4, 3), (5, 2)):
        r = skew_ring(n, {(i, j): i + j + 2 for i in range(n) for j in range(i + 1, n)})
        g = gamma(build_proj(r), free_presentation(r), (0, hi))
        assert [g["dims"][d] for d in range(hi + 1)] == [
            comb(d + n - 1, n - 1) for d in range(hi + 1)]


def test_gamma_kills_torsion_module():
    X = build_proj(SK2)
    g = gamma(X, quotient_by_variables(SK2), (0, 4))
    assert all(v == 0 for v in g["dims"].values())


def test_gamma_box_stability_window():
    X = build_proj(SK2)
    for box in (2, 3):
        g = gamma(X, free_presentation(SK2), (0, 4), box=box)
        assert [g["dims"][d] for d in range(5)] == [1, 2, 3, 4, 5]


def test_gamma_box_too_small_is_detected():
    """A high-degree relation escapes shallow truncations and the stability
    re-run catches the drift."""
    from ncspec.errors import BoxTooSmall

    X = build_proj(SK2)
    part = presentation_from_rows(SK2, (0,), [[{(4, 0): 1}]])
    for box in (1, 2):
        with pytest.raises(BoxTooSmall):
            gamma(X, part, (0, 2), box=box)
    stable = gamma(X, part, (0, 2), box=3)
    # the quotient by x^4 concentrates on the chart away from x: sections
    # in every degree are the four powers of x times the matching y power
    assert [stable["dims"][d] for d in range(3)] == [4, 4, 4]
    assert gamma(X, part, (0, 2), box=4)["dims"] == stable["dims"]


def test_serre_unit_free_module_is_isomorphism():
    X = build_proj(SK2)
    rep = serre_unit(X, free_presentation(SK2), (0, 5))
    for d, info in rep["degrees"].items():
        assert info["injective"] and info["surjective"]
        assert info["kernel_dim"] == 0 and info["cokernel_dim"] == 0


def test_serre_unit_torsion_module():
    X = build_proj(SK2)
    rep = serre_unit(X, quotient_by_variables(SK2), (0, 2))
    deg0 = rep["degrees"][0]
    assert deg0["module_dim"] == 1 and deg0["sections_dim"] == 0
    assert deg0["kernel_dim"] == 1 and deg0["kernel_torsion"]


def test_serre_unit_ideal_module_has_torsion_cokernel():
    """The module generated by the two variables: its sheaf saturates to the
    structure sheaf, the missing degree-zero section is a torsion cokernel."""
    lam = SK2.lam_map[(0, 1)]
    rows = [[{(0, 1): 1}, {(1, 0): -1 / lam}]]   # the skew syzygy of (x, y)
    ideal = presentation_from_rows(SK2, (1, 1), rows)
    X = build_proj(SK2)
    g = gamma(X, ideal, (0, 3))
    assert [g["dims"][d] for d in range(4)] == [1, 2, 3, 4]
    rep = serre_unit(X, ideal, (0, 3))
    deg0 = rep["degrees"][0]
    assert deg0["module_dim"] == 0 and deg0["sections_dim"] == 1
    assert deg0["cokernel_dim"] == 1 and deg0["cokernel_torsion"] is True
    for d in (1, 2, 3):
        assert rep["degrees"][d]["injective"] and rep["degrees"][d]["surjective"]


def test_serre_unit_mixed_module():
    rows = [
        [dict(skewpoly.variable(2, 0)), {}],
        [dict(skewpoly.variable(2, 1)), {}],
    ]
    mix = presentation_from_rows(SK2, (0, 0), rows)
    X = build_proj(SK2)
    rep = serre_unit(X, mix, (0, 3))
    deg0 = rep["degrees"][0]
    assert deg0["kernel_dim"] == 1 and deg0["kernel_torsion"]
    assert deg0["cokernel_dim"] == 0
    for d in (1, 2, 3):
        info = rep["degrees"][d]
        assert info["injective"] and info["surjective"]


def test_is_torsion_classification():
    free = free_presentation(SK2)
    one_elt = graded_element([{(0, 0): 1}], 0)
    for bound in (1, 2, 3):
        assert is_torsion(free, one_elt, bound) is False
    q = quotient_by_variables(SK2)
    gen = graded_element([{(0, 0): 1}], 0)
    assert is_torsion(q, gen, 1) is True
    # x * (generator of R/(x^2, y)) dies at the first power
    rows = [
        [{(2, 0): 1}],
        [{(0, 1): 1}],
    ]
    part = presentation_from_rows(SK2, (0,), rows)
    xgen = graded_element([{(1, 0): 1}], 1)
    assert is_torsion(part, xgen, 1) is True
    gen0 = graded_element([{(0, 0): 1}], 0)
    assert is_torsion(part, gen0, 2) is True
    with pytest.raises(BoundInconclusive):
        is_torsion(part, gen0, 1)
    # R/(x^4, y): x^4 only reaches the degree-0 piece of the x-chart at
    # depth 3, so the localization probe must use the caller's box
    deep = presentation_from_rows(SK2, (0,), [[{(4, 0): 1}], [{(0, 1): 1}]])
    gen0 = graded_element([{(0, 0): 1}], 0)
    with pytest.raises(BoundInconclusive):
        is_torsion(deep, gen0, 2, box=3)
    # at the default box the probe is still blind to x^4; the box+1 re-run
    # must see the image vanish instead of certifying the generator alive
    with pytest.raises(BoundInconclusive):
        is_torsion(deep, gen0, 2)
    X = build_proj(SK2)
    with pytest.raises(BoundInconclusive):
        serre_unit(X, deep, (0, 0), box=3, torsion_bound=2)
    assert serre_unit(X, deep, (0, 0), box=3, torsion_bound=4)["degrees"][0][
        "kernel_torsion"] is True


def test_is_torsion_rejects_elements_outside_the_degree_piece():
    """Typed errors, where each case raised a bare KeyError before."""
    free = free_presentation(SK2)
    cases = [
        ([{(1, 0): 1}], 2, InhomogeneousRelation),      # x1 is not in degree 2
        ([{(-1, 3): 1}], 2, InhomogeneousRelation),     # a negative exponent
        ([{(1, 0): 1}, {(2, 1): 1}], 1, ArityMismatch),  # two components, one generator
        ([{(1,): 1}], 1, ArityMismatch),                # one exponent for two variables
    ]
    for components, degree, error in cases:
        with pytest.raises(error):
            is_torsion(free, graded_element(components, degree), 2)
    two = free_presentation(SK2, degrees=(0, 1))
    with pytest.raises(InhomogeneousRelation):
        is_torsion(two, graded_element([{(1, 0): 1}, {(1, 0): 1}], 1), 1)
    assert is_torsion(two, graded_element([{(1, 0): 1}, {(0, 0): 3}], 1), 1) is False


# --- twists and cocycle data ----------------------------------------------------

def test_module_sheaf_and_twists():
    X = build_proj(SK2)
    datum = module_sheaf(X, free_presentation(SK2))
    assert qcoh_cocycle_check(datum)["status"] == "pass"
    t0 = twist(datum, 0)
    base_dim = t0.chart_piece(0).dim
    assert base_dim == SkewQcohDatum(X, datum.presentation, datum.scalars).box + 1
    for n in (1, 2, 3):
        tn = twist(datum, n)
        assert tn.chart_piece(0).dim == base_dim + n
    # additivity of dimensions within the common box
    t12 = twist(datum, 1 + 2)
    assert t12.chart_piece(0).dim == twist(datum, 3).chart_piece(0).dim


def test_shifted_module_gives_line_bundle_sections():
    X = build_proj(SK2)
    shifted = free_presentation(SK2, degrees=(-1,))
    g = gamma(X, shifted, (0, 3))
    # sections of the degree-1 twist: dim in degree d is d + 2
    assert [g["dims"][d] for d in range(4)] == [2, 3, 4, 5]
    # the plane version shifts the binomials the same way
    X3 = build_proj(SK3)
    g3 = gamma(X3, free_presentation(SK3, degrees=(-1,)), (1, 2))
    assert g3["dims"][1] == 6 and g3["dims"][2] == 10


def test_scaled_cocycle_fails():
    X = build_proj(SK2)
    datum = module_sheaf(X, free_presentation(SK2))
    bad_scalars = dict(datum.scalars)
    bad_scalars[(0, 1)] = Fraction(2)
    bad = SkewQcohDatum(X, datum.presentation, bad_scalars)
    rep = qcoh_cocycle_check(bad)
    assert rep["status"] == "fail"
    assert any(f["condition"] == "inverse" for f in rep["failures"])
    with pytest.raises(CocycleViolation) as exc:
        twist(bad, 1)
    assert exc.value.witness == qcoh_cocycle_check(bad, degree=1)["failures"]


def test_triple_scalar_condition_n3():
    X = build_proj(SK3)
    datum = module_sheaf(X, free_presentation(SK3))
    bad_scalars = dict(datum.scalars)
    bad_scalars[(0, 2)] = Fraction(7)
    bad_scalars[(2, 0)] = Fraction(1, 7)
    rep = qcoh_cocycle_check(SkewQcohDatum(X, datum.presentation, bad_scalars))
    assert rep["status"] == "fail"
    assert any(f["condition"] == "triple" for f in rep["failures"])


def test_quotient_module_sheaf_is_zero_datum():
    X = build_proj(SK2)
    q = quotient_by_variables(SK2)
    datum = module_sheaf(X, q)
    for i in range(2):
        assert twist(datum, 0).chart_piece(i).dim == 0


@pytest.mark.parametrize("r, hi, calls", [(SK2, 10, 88), (SK3, 5, 90)])
def test_gamma_lists_each_cone_once(monkeypatch, r, hi, calls):
    """The box + 1 stability run takes the cones that the box run listed."""
    seen = []

    def counted(n, S, total, box):
        seen.append((n, S, total, box))
        return _cone(n, S, total, box)

    monkeypatch.setattr(skewproj, "_cone", counted)
    g = gamma(build_proj(r), free_presentation(r), (0, hi))
    assert len(seen) == len(set(seen)) == calls
    assert g["dims"] == {d: comb(d + r.nvars - 1, r.nvars - 1) for d in range(hi + 1)}
