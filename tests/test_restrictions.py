"""The restrictions of the structure sheaf come from the one descent.

`SheafOnBase.restriction(i, j)` is `localization.induced_between` with
theta the identity and the two cells' localizations.  Here it is compared
with the re-localizing `connecting_map`, which stays as the oracle, and a
cold `ncspec` is checked to localize once per cell and never re-localize.
"""

from fractions import Fraction

from ncspec import localization, sheafspec
from ncspec import rings as rg
from ncspec.rings import MatrixRing, ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing


def ssa(base, dims):
    return SemisimpleAlgebra(base, tuple(dims))


def test_restrictions_match_the_connecting_map_oracle():
    rings = [
        rg.ProductRing((ModularRing(1), ModularRing(6))),   # the bottom keeps Z/1
        ModularRing(60),
        rg.product_ring([ModularRing(2), ModularRing(2)]),
        ssa(PrimeField(2), (1, 1, 1)),
        ssa(rg.Rationals(), (2, 3)),
        MatrixRing(PrimeField(2), 2),
        ZeroRing(),
    ]
    for r in rings:
        sp = sheafspec.ncspec(r)
        cells = sp.lattice.cells
        for i in range(sp.lattice.n):
            # on infinite sources homs compare by rule, so this is identity_hom
            assert sp.sheaf.restriction(i, i) == rg.identity_hom(sp.sheaf.assignment[i]), (r, i)
            for j in sp.space.up[i]:
                res = sp.sheaf.restriction(i, j)
                oracle = localization.connecting_map(r, cells[i].representative,
                                                     cells[j].representative)
                assert res.validated and res == oracle, (r, i, j)


def test_a_cold_ncspec_localizes_once_per_cell_and_never_reconnects(monkeypatch):
    calls = []
    for name in ("connecting_map", "_under_map"):
        fn = getattr(localization, name)
        monkeypatch.setattr(localization, name,
                            lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    for r in (ModularRing(30030), ssa(PrimeField(2), (1,) * 5),
              ssa(rg.Rationals(), (1,) * 4), MatrixRing(PrimeField(2), 2)):
        localization._localize_cached.cache_clear()
        sheafspec.clear_caches()
        sp = sheafspec.ncspec(r)
        assert localization._localize_cached.cache_info().currsize == sp.lattice.n, r
        assert calls == [], r


def test_the_descent_closes_the_square_of_a_block_projection():
    # SSA Q^3 -> Q^2 keeping blocks 0 and 2; at the cell keeping blocks 1
    # and 2 the induced map keeps the second of them
    r, s = ssa(rg.Rationals(), (1, 1, 1)), ssa(rg.Rationals(), (1, 1))
    theta = rg.hom_validate(rg.RingHom(r, s, rg.BlockRule((0, 2))))
    f = rg.element(r, tuple(((Fraction(v),),) for v in (0, 1, 1)))
    phi = localization.induced_map(theta, (f,))
    assert phi.rule == rg.BlockRule((1,))
    assert phi.target == ssa(rg.Rationals(), (1,))
    LA, LB = localization.localize(r, (f,)), localization.localize(s, (theta(f),))
    assert rg.hom_compose(phi, LA.insertion) == rg.hom_compose(LB.insertion, theta)
