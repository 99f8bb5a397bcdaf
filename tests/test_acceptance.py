"""Acceptance criteria, one test per criterion.

Each test prints a single `[acceptance] criterion k: PASS` line (run
pytest with -s to see them live) and asserts the stated wall-clock
budget.
"""

import time

import sympy
from conftest import free_module, hom_corpus, quotient_by_variables

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
from ncspec.errors import NotT0
from ncspec.glueqcoh import (
    FiniteModule,
    ModuleHom,
    tensor_induced,
    tensor_module,
    tensor_sequence_report,
    tilde_module,
)
from ncspec.latspace import build_semilattice
from ncspec.localization import (
    localization_square,
    localize,
    is_pushout,
    subset_leq,
)
from ncspec.qpoly import PidPoint, UnivariatePolyRing, pid_point_in_open, prime_set_point
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    SemisimpleAlgebra,
    ZeroRing,
)
from ncspec.sheafspec import (
    RingedSpaceMorphism,
    check_functoriality,
    is_prim,
    ncspec,
    ncspec_morphism,
    prim_is_local_check,
    recover_hom,
    sections,
)
from ncspec.skewpoly import skew_ring
from ncspec.skewproj import (
    build_proj,
    free_presentation,
    gamma,
    module_sheaf,
    qcoh_cocycle_check,
    serre_unit,
)


class budget:
    def __init__(self, criterion, limit, description):
        self.criterion, self.limit, self.description = criterion, limit, description

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.criterion} exceeded {self.limit}s: {elapsed:.2f}s")
            print(f"[acceptance] criterion {self.criterion}: PASS "
                  f"({elapsed:.2f}s < {self.limit}s) - {self.description}")
        else:
            print(f"[acceptance] criterion {self.criterion}: FAIL - {self.description}")
        return False


def test_criterion_01_matrix_example():
    with budget(1, 1.0, "two-point space of a matrix ring, zero-collapsed top"):
        for base in (PrimeField(3), Rationals()):
            m = MatrixRing(base, 2)
            sp = ncspec(m)
            assert sp.point_count() == 2
            whole = sp.space.carrier()
            gamma_only = sp.space.up[sp.lattice.top]
            assert sections(sp, whole) == m
            assert sections(sp, gamma_only) == ZeroRing()
            res = sp.sheaf.restriction(sp.lattice.bottom, sp.lattice.top)
            assert res.target == ZeroRing()
            assert res(rg.one(m)) == rg.zero(ZeroRing())


def test_criterion_02_semisimple_lattices_and_sections():
    with budget(2, 1.0, "semisimple lattices are subset lattices; sections are block unions"):
        for dims in ((1, 1), (1, 2), (1, 1, 1)):
            ssa = SemisimpleAlgebra(Rationals(), dims)
            sp = ncspec(ssa)
            k = len(dims)
            assert sp.lattice.n == 2 ** k
            keys = {c.key for c in sp.lattice.cells}
            assert keys == {frozenset(Z) for Z in _subsets(range(k))}
            for i in range(sp.lattice.n):
                for j in range(sp.lattice.n):
                    assert sp.lattice.leq(i, j) == (
                        sp.lattice.cells[j].key <= sp.lattice.cells[i].key)
            for U in sp.space.all_open_sets():
                if not U:
                    continue
                union = frozenset().union(*[sp.lattice.cells[c].key for c in U])
                want = sp.lattice.cells[sp.lattice._key_index[union]].localized.result
                assert sections(sp, U) == want


def _subsets(it):
    items = list(it)
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out


def test_criterion_03_zero_ring():
    with budget(3, 1.0, "one-point space with zero sections; bullet lands on generic"):
        sp0 = ncspec(ZeroRing())
        assert sp0.point_count() == 1
        assert sections(sp0, sp0.space.carrier()) == ZeroRing()
        assert sections(sp0, frozenset()) == ZeroRing()
        for r in (ModularRing(6), ModularRing(7),
                  SemisimpleAlgebra(Rationals(), (1, 2)), MatrixRing(PrimeField(2), 2)):
            m = ncspec_morphism(rg.to_zero_hom(r))
            assert m.point_map == {0: m.target.generic}


def test_criterion_04_pid_example():
    with budget(4, 1.0, "squarefree order law and the symbolic point model"):
        import random
        rnd = random.Random(411)
        qx = UnivariatePolyRing()
        lat = build_semilattice(qx)
        x = sympy.Symbol("x")
        for _ in range(20):
            h = [rnd.randint(-3, 3) for _ in range(rnd.randint(1, 5))]
            g = [rnd.randint(-3, 3) for _ in range(rnd.randint(1, 5))]
            eh, eg = rg.element(qx, h), rg.element(qx, g)
            # independent oracle: squarefree parts and divisibility via sympy
            ph = sum(sympy.Rational(c) * x ** i for i, c in enumerate(h))
            pg = sum(sympy.Rational(c) * x ** i for i, c in enumerate(g))
            if pg == 0:
                want = True
            elif ph == 0:
                want = False
            else:
                sfh = _sympy_sf(ph, x)
                sfg = _sympy_sf(pg, x)
                want = sympy.rem(sfg, sfh, x) == 0 and sympy.div(sfg, sfh, x)[1] == 0
            assert lat.leq(eh, eg) == want
            assert subset_leq(qx, (eh,), (eg,)) == want
        # the basic open named by 0 holds exactly the generic point
        gen, zi = PidPoint("generic"), PidPoint("zero_ideal")
        pts = [gen, zi, prime_set_point([[-1, 1]]), prime_set_point([[1, 0, 1]])]
        assert [pid_point_in_open(p, []) for p in pts] == [True, False, False, False]
        # nonzero opens: a point is inside iff none of its primes divides f
        f = [-1, 0, 1]   # x^2 - 1
        assert pid_point_in_open(gen, f) and pid_point_in_open(zi, f)
        assert not pid_point_in_open(prime_set_point([[-1, 1]]), f)
        assert pid_point_in_open(prime_set_point([[1, 0, 1]]), f)


def _sympy_sf(p, x):
    _, factors = sympy.factor_list(p)
    sf = sympy.prod([b for b, _ in factors if b.free_symbols])
    return sf if sf != 1 else sympy.Integer(1)


BRIDGE_RINGS = (ModularRing(4), ModularRing(6), ModularRing(12),
                ModularRing(30), ModularRing(5))


def test_criterion_05_commutative_bridge():
    with budget(5, 5.0, "prime unions and the spectrum embedding for five rings"):
        for r in BRIDGE_RINGS:
            assert union_of_primes_bijection(r)["status"] == "pass"
            emb = embed_phi(r)
            assert emb.report["status"] == "pass", (r, emb.report)
            assert all(emb.report["checks"].values())


def test_criterion_06_exponential():
    with budget(6, 10.0, "exponential of the spectrum, idempotence, factorization"):
        for r in BRIDGE_RINGS:
            rep = spec_exponential_iso(r)
            assert rep["status"] == "pass"
            assert exp_idempotence_check(spec(r).based_space())
        # naturality squares for the canonical quotients inside the family
        for (m, n) in ((12, 6), (12, 4), (30, 6), (30, 5)):
            theta = rg.quotient_hom(m, n)
            spec_map, _, _ = spec_functor_map(theta)
            isoR = spec_exponential_iso(ModularRing(m))
            isoS = spec_exponential_iso(ModularRing(n))
            mor = ncspec_morphism(theta)
            functor = exp_functor_map(spec_map, isoS["exponential"], isoR["exponential"])
            for p in range(isoS["exponential"].n):
                assert isoR["gamma"][functor[p]] == mor.point_map[isoS["gamma"][p]]
        # ten random finite based T0 spaces of size <= 5
        import random
        rnd = random.Random(606)
        made = 0
        while made < 10:
            n = rnd.randint(1, 5)
            base = {frozenset(range(n))}
            for _ in range(rnd.randint(1, 4)):
                base.add(frozenset(i for i in range(n) if rnd.random() < 0.5))
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
        # uniqueness of the factorization, exhaustively at size <= 4
        disc = BasedSpace(2, (frozenset({0, 1}), frozenset({0}),
                              frozenset({1}), frozenset()))
        chain = TCompleteLattice(
            3, (frozenset({0, 1, 2}), frozenset({0}), frozenset({0, 1})),
            (frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})))
        rep = exp_factorization(disc, {0: 0, 1: 1}, chain)
        assert rep["unique"] is True
        E = exponential(disc)
        Y = TCompleteLattice(
            E.n, tuple(E.as_based_space().base),
            tuple(frozenset(q for q in range(E.n) if E.leq(p, q)) for p in range(E.n)))
        rep2 = exp_factorization(disc, E.embedding(), Y)
        assert rep2["map"] == {p: p for p in range(E.n)} and rep2["unique"] is True


def _crafted_negatives():
    out = []
    sp6 = ncspec(ModularRing(6))
    sp0 = ncspec(ZeroRing())
    z6 = ModularRing(6)
    c2 = sp6.lattice.cell_of_element(rg.element(z6, 2))
    pt = c2
    comap = {j: rg.to_zero_hom(sp6.sheaf.assignment[j]) for j in range(sp6.lattice.n)}
    out.append(RingedSpaceMorphism(sp0, sp6, {0: pt}, comap))

    sp3 = ncspec(ModularRing(3))
    bot6 = sp6.lattice.bottom
    closed3 = next(i for i in range(sp3.space.n) if i != sp3.generic)
    pm = {sp3.generic: sp6.generic, closed3: bot6}
    comap_b = {}
    for j in range(sp6.lattice.n):
        U = frozenset(x for x, y in pm.items() if y in sp6.space.up[j])
        tgt = sections(sp3, U)
        src = sp6.sheaf.assignment[j]
        if rg.is_zero_ring(tgt):
            comap_b[j] = rg.to_zero_hom(src, tgt)
        elif j == sp6.lattice.bottom:
            comap_b[j] = rg.quotient_hom(6, 3)
        else:
            comap_b[j] = rg.hom_validate(rg.hom_from_callable(
                src, tgt, lambda xx, t=tgt: rg.from_int(t, xx.payload)))
    out.append(RingedSpaceMorphism(sp3, sp6, pm, comap_b))

    p22 = rg.product_ring([ModularRing(2), ModularRing(2)])
    sp22 = ncspec(p22)
    swap = rg.hom_validate(rg.hom_from_callable(
        p22, p22, lambda xx: rg.element(p22, (xx.payload[1], xx.payload[0]))))
    comap_c = {j: (swap if j == sp22.lattice.bottom
                   else rg.identity_hom(sp22.sheaf.assignment[j]))
               for j in range(sp22.lattice.n)}
    out.append(RingedSpaceMorphism(
        sp22, sp22, {i: i for i in range(sp22.space.n)}, comap_c))
    return out


def test_criterion_07_functor_suite():
    with budget(7, 30.0, "induced morphisms of every Z/m hom, m <= 12"):
        corpus = hom_corpus(12)
        morphisms = {}
        for theta in corpus:
            m = ncspec_morphism(theta)
            morphisms[theta] = m
            # preimage formula on every basic open
            Y, X = m.target, m.source
            for j in range(Y.lattice.n):
                pre = m.preimage_base_open(Y.basic_open(j))
                img = tuple(theta(a) for a in Y.lattice.cells[j].representative)
                assert pre == X.space.up[X.lattice.cell_of_subset(img)]
            # recover the hom from global sections
            assert recover_hom(m) == theta
        # faithfulness: the assignment is injective on the whole corpus
        keys = [m.key() for m in morphisms.values()]
        assert len(set(keys)) == len(keys)
        # functoriality over every composable pair
        pairs = 0
        for theta in corpus:
            for phi in corpus:
                if theta.target == phi.source:
                    assert check_functoriality(theta, phi)["status"] == "pass"
                    pairs += 1
        assert pairs > 50
        # every induced morphism is prim; three crafted ones are not
        for theta, m in morphisms.items():
            assert is_prim(m), theta
        for bad in _crafted_negatives():
            assert not is_prim(bad)
        # primness is local on the tested covers
        m63 = morphisms[rg.quotient_hom(6, 3)]
        sp6 = m63.target
        z6 = ModularRing(6)
        c2 = sp6.lattice.cell_of_element(rg.element(z6, 2))
        c3 = sp6.lattice.cell_of_element(rg.element(z6, 3))
        covers = [
            [sp6.space.carrier()],
            [sp6.space.carrier(), sp6.space.up[c2] | sp6.space.up[c3]],
            [sp6.space.carrier(), sp6.space.up[c2], sp6.space.up[c3]],
        ]
        for cov in covers:
            assert prim_is_local_check(m63, cov) is True
        bad = _crafted_negatives()[1]
        assert prim_is_local_check(bad, [bad.target.space.carrier()]) is False


def test_criterion_08_localization_property_suite():
    with budget(8, 60.0, "initiality oracle, epi property, pushout squares"):
        from conftest import small_commutative_rings
        probes = [ZeroRing()] + [ModularRing(k) for k in range(2, 13)] + [
            rg.product_ring([ModularRing(2), ModularRing(2)]),
            rg.product_ring([ModularRing(2), ModularRing(3)]),
        ]
        for r in small_commutative_rings(12):
            if rg.is_zero_ring(r):
                continue
            elements = rg.enumerate_elements(r)
            for f in elements:
                L = localize(r, (f,))
                for T in probes:
                    inverting = [t for t in rg.all_homs(r, T) if rg.is_unit(T, t(f))]
                    lam_pool = rg.all_homs(L.result, T)
                    for theta in inverting:
                        mediators = [
                            lam for lam in lam_pool
                            if all(lam(L.insertion(x)) == theta(x) for x in elements)]
                        assert len(mediators) == 1, (r, f, T)
                    # epi property: distinct maps out of the localization
                    # differ after the insertion
                    for g in lam_pool:
                        for h in lam_pool:
                            if g != h:
                                assert any(g(L.insertion(x)) != h(L.insertion(x))
                                           for x in elements)
        # pushout squares of the induced-map diagrams
        square_cases = [
            (rg.quotient_hom(6, 3), 1, 2),
            (rg.quotient_hom(6, 3), 1, 0),
            (rg.quotient_hom(12, 6), 1, 2),
            (rg.quotient_hom(12, 4), 2, 6),
            (rg.quotient_hom(30, 6), 5, 0),
        ]
        for theta, a, b in square_cases:
            src = theta.source
            A = (rg.element(src, a),)
            B = (rg.element(src, b),)
            if not subset_leq(src, A, B):
                A, B = B, A
            sq = localization_square(theta, A, B)
            assert is_pushout(sq), (theta, a, b)


def test_criterion_09_skew_proj():
    with budget(9, 60.0, "line and plane section counts, unit map, cocycles"):
        # the skew line at three scalars
        for lam in (1, 2, -1):
            r = skew_ring(2, {(0, 1): lam})
            X = build_proj(r)
            free = free_presentation(r)
            g = gamma(X, free, (-3, 6))
            for d in range(-3, 0):
                assert g["dims"][d] == 0
            for d in range(0, 7):
                assert g["dims"][d] == d + 1
            unit = serre_unit(X, free, (0, 6))
            for d, info in unit["degrees"].items():
                assert info["injective"] and info["surjective"]
            datum = module_sheaf(X, free)
            assert qcoh_cocycle_check(datum)["status"] == "pass"
            # the all-variables quotient dies and its kernel is torsion
            q = quotient_by_variables(r)
            gq = gamma(X, q, (0, 3))
            assert all(v == 0 for v in gq["dims"].values())
            uq = serre_unit(X, q, (0, 2))
            assert uq["degrees"][0]["kernel_dim"] == 1
            assert uq["degrees"][0]["kernel_torsion"]
        # the skew plane at a generic rational point
        sk3 = skew_ring(3, {(0, 1): 2, (0, 2): 3, (1, 2): 5})
        X3 = build_proj(sk3)
        g3 = gamma(X3, free_presentation(sk3), (2, 3))
        assert g3["dims"][2] == 6 and g3["dims"][3] == 10
        assert qcoh_cocycle_check(module_sheaf(X3, free_presentation(sk3)))["status"] == "pass"
        # the commutative degeneration reproduces the classical counts
        sk3c = skew_ring(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
        X3c = build_proj(sk3c)
        g3c = gamma(X3c, free_presentation(sk3c), (2, 3))
        assert g3c["dims"][2] == 6 and g3c["dims"][3] == 10
        sk2c = skew_ring(2, {(0, 1): 1})
        g2c = gamma(build_proj(sk2c), free_presentation(sk2c), (0, 6))
        assert [g2c["dims"][d] for d in range(7)] == list(range(1, 8))


def test_criterion_10_sheaf_nonexactness_containment():
    with budget(10, 1.0, "base-change non-exactness against qcoh-level exactness"):
        z4 = ModularRing(4)
        M4 = free_module(z4)
        Msub = FiniteModule(z4, (2,))    # 2 Z/4
        Mq = FiniteModule(z4, (2,))      # Z/2
        inc = ModuleHom(Msub, M4, ((2,),))
        quo = ModuleHom(M4, Mq, ((1,),))
        # the sequence itself is exact
        rep_id = tensor_sequence_report(rg.identity_hom(z4), inc, quo)
        assert rep_id["left_injective"] and rep_id["middle_exact"] \
            and rep_id["right_surjective"]
        # the tensor construction is not exact: base change along the
        # residue quotient kills the injection, which is the mechanism
        # behind stalkwise failure for non-flat coefficients
        rep_q = tensor_sequence_report(rg.quotient_hom(4, 2), inc, quo)
        assert rep_q["left_injective"] is False
        # at the honest cells the localizations are direct factors: the
        # stalk sequences stay exact, degenerating to zero at the top cell
        sp = ncspec(z4)
        collapsed = 0
        for cell in sp.lattice.cells:
            rep = tensor_sequence_report(cell.localized.insertion, inc, quo)
            assert rep["middle_exact"] and rep["left_injective"] \
                and rep["right_surjective"]
            if rep["sizes"] == (1, 1, 1):
                collapsed += 1
        assert collapsed == 1    # loc(Z/4, 2) = 0 flattens the whole sequence
        # qcoh-level kernels are computed on global sections and stay exact:
        # the kernel of the induced sheaf map is the sheaf of the kernel
        sheaf_M, sheaf_N = tilde_module(z4, M4), tilde_module(z4, Mq)
        lat = sheaf_M.space.lattice
        induced = {i: tensor_induced(sheaf_M.stalks[i], sheaf_N.stalks[i], quo)
                   for i in range(lat.n)}
        bot = lat.bottom
        global_kernel = {x for x in sheaf_M.stalks[bot].elements()
                         if induced[bot][x] == sheaf_N.stalks[bot].zero()}
        assert len(global_kernel) == Msub.size()
        sheaf_K = tilde_module(z4, Msub)
        for i in range(lat.n):
            img = {tensor_induced(sheaf_K.stalks[i], sheaf_M.stalks[i], inc)[x]
                   for x in sheaf_K.stalks[i].elements()}
            ker = {x for x in sheaf_M.stalks[i].elements()
                   if induced[i][x] == sheaf_N.stalks[i].zero()}
            assert img == ker
