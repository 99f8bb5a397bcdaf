"""The memo of induced morphisms and the verdicts a morphism keeps.

`ncspec_morphism` answers an equal hom with the morphism it built before,
and that morphism keeps the result of `verify` and its prim witness.
Every answer is compared here with a fresh build after `clear_caches()`.
"""

import pytest
from test_prim_structural import outcome
from test_sheafspec import crafted_zero_to_closed_point

from ncspec import rings as rg
from ncspec import sheafspec
from ncspec.errors import NotAHomomorphism
from ncspec.rings import ModularRing


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


def crt_hom():
    """Z/6 x Z/5 -> Z/2 x Z/15, (a, b) -> (a mod 2, the residue of a mod 3
    and b mod 5): an isomorphism by the Chinese remainder theorem."""
    S, T = cyclic(6, 5), cyclic(2, 15)
    return rg.hom_validate(rg.RingHom(S, T, rg.BlockRule((0, 1, 2))))


def crt_table_hom():
    """The same map as `crt_hom`, given by its table."""
    S, T = cyclic(6, 5), cyclic(2, 15)
    return rg.hom_from_callable(S, T, lambda x: rg.element(
        T, (x.payload[0] % 2, (10 * x.payload[0] + 6 * x.payload[1]) % 15)))


def memo_homs():
    """Makers of every quotient Z/n -> Z/m with n <= 60, and the CRT hom."""
    makers = [lambda n=n, m=m: rg.quotient_hom(n, m)
              for n in range(1, 61) for m in range(1, n + 1) if n % m == 0]
    return makers + [crt_hom]


def answers(m):
    """verify, then the prim report."""
    return outcome(m.verify), outcome(sheafspec.is_prim_report, m)


def test_memoized_morphisms_match_a_fresh_build():
    sheafspec.clear_caches()
    kept = []
    for make in memo_homs():
        m = sheafspec.ncspec_morphism(make())
        kept.append((make, m, answers(m)))
    assert len(kept) > 250
    prim = 0
    for make, m, first in kept[-sheafspec.CACHE_BOUND:]:
        again = sheafspec.ncspec_morphism(make())
        assert again is m and answers(again) == first, make()
    for make, m, first in kept:
        sheafspec.clear_caches()
        fresh = sheafspec.ncspec_morphism(make())
        assert fresh is not m and fresh == m, make()
        assert answers(fresh) == first == answers(m), make()
        prim += first[1][0] == "ok" and first[1][1]["prim"]
    assert prim == len(kept), prim


def fresh_quotient(n, m):
    """Z/n -> Z/m built and validated anew: each target block p^c is fed
    by the source block it divides, the one of the prime p."""
    S, T = ModularRing(n), ModularRing(m)
    feeds = tuple(next(s for s, q in enumerate(S.blocks) if q % t == 0) for t in T.blocks)
    return rg.hom_validate(rg.RingHom(S, T, rg.BlockRule(feeds)))


def test_quotient_homs_are_shared_and_match_a_fresh_build():
    assert rg.quotient_hom(30, 6) is rg.quotient_hom(30, 6)
    for n in range(1, 61):
        for m in (m for m in range(1, n + 1) if n % m == 0):
            sheafspec.clear_caches()
            memo = rg.quotient_hom(n, m)
            first = answers(sheafspec.ncspec_morphism(memo))
            assert rg.quotient_hom(n, m) is memo and memo.validated
            sheafspec.clear_caches()
            fresh = fresh_quotient(n, m)
            assert rg.quotient_hom(n, m) is not memo
            assert (fresh.images, fresh.block_map) == (memo.images, memo.block_map), (n, m)
            assert fresh == memo and hash(fresh) == hash(memo)
            assert answers(sheafspec.ncspec_morphism(fresh)) == first, (n, m)


@pytest.mark.parametrize("n, m", [(6, 0), (0, 6), (-6, 3), (6, -3), (True, 1), (2, True),
                                  (6.0, 3), (6, 3.0), ("6", 3)])
def test_quotient_moduli_are_checked_before_the_memo(n, m):
    with pytest.raises(NotAHomomorphism, match="positive int moduli"):
        rg.quotient_hom(n, m)
    with pytest.raises(NotAHomomorphism, match="does not divide"):
        rg.quotient_hom(6, 4)
    assert type(rg.quotient_hom(1, 1).source.n) is int     # True did not enter the memo


def test_equal_homs_share_one_morphism():
    sheafspec.clear_caches()
    m = sheafspec.ncspec_morphism(crt_hom())
    assert sheafspec.ncspec_morphism(crt_table_hom()) is m
    assert sheafspec.recover_hom(m) == crt_table_hom()


def test_a_repeated_query_descends_verifies_and_pushes_out_nothing(monkeypatch):
    calls = []

    def counting(name):
        fn = getattr(sheafspec, name)
        monkeypatch.setattr(sheafspec, name, lambda *a: calls.append(name) or fn(*a))

    counting("induced_between")
    counting("is_pushout")
    walk = sheafspec.RingedSpaceMorphism._verify
    monkeypatch.setattr(sheafspec.RingedSpaceMorphism, "_verify",
                        lambda m: calls.append("_verify") or walk(m))

    def query(theta):
        m = sheafspec.ncspec_morphism(theta)
        return m.verify(), sheafspec.is_prim_report(m)["prim"], sheafspec.recover_hom(m) == theta

    for make in (lambda: rg.quotient_hom(30, 6), crt_hom):
        sheafspec.clear_caches()
        assert query(make()) == (True, True, True)
        assert {"induced_between", "is_pushout", "_verify"} <= set(calls)
        calls.clear()
        assert query(make()) == (True, True, True)
        assert calls == []


def test_the_memos_keep_the_bound_and_evict_the_least_recently_used():
    bound = sheafspec.CACHE_BOUND
    homs = [rg.quotient_hom(n, m) for n in range(2, 61) for m in range(1, n + 1) if n % m == 0]
    assert len(homs) > bound + 1
    sheafspec.clear_caches()
    first = [sheafspec.ncspec_morphism(theta) for theta in homs[:bound]]
    assert sheafspec.ncspec_morphism(homs[0]) is first[0]   # the oldest, used again
    sheafspec.ncspec_morphism(homs[bound])                   # evicts homs[1], now the oldest
    for theta, m in zip(homs[2:bound], first[2:]):
        assert sheafspec.ncspec_morphism(theta) is m
    assert sheafspec.ncspec_morphism(homs[0]) is first[0]
    rebuilt = sheafspec.ncspec_morphism(homs[1])             # evicts homs[bound]
    assert rebuilt is not first[1] and rebuilt == first[1]
    assert all(sheafspec.ncspec_morphism(theta) is m for theta, m in zip(homs[2:bound], first[2:]))
    for theta in homs[bound + 1:]:
        sheafspec.ncspec_morphism(theta)
        assert sheafspec._induced_morphism.cache_info().currsize <= bound
        assert sheafspec.ncspec.cache_info().currsize <= bound
    last = [sheafspec.ncspec_morphism(theta) for theta in homs[-bound:]]
    assert all(sheafspec.ncspec_morphism(theta) is m for theta, m in zip(homs[-bound:], last))

    sheafspec.clear_caches()
    rings = [ModularRing(n) for n in range(1, bound + 3)]
    spaces = [sheafspec.ncspec(r) for r in rings[:bound]]
    assert sheafspec.ncspec(rings[0]) is spaces[0]
    sheafspec.ncspec(rings[bound])                           # evicts rings[1]
    assert sheafspec.ncspec.cache_info().currsize == bound
    assert sheafspec.ncspec(rings[0]) is spaces[0]
    rebuilt = sheafspec.ncspec(rings[1])
    assert rebuilt is not spaces[1] and rebuilt.sheaf.assignment == spaces[1].sheaf.assignment


def test_an_invalid_hom_raises_before_any_lookup():
    sheafspec.clear_caches()
    z4, z2 = ModularRing(4), ModularRing(2)
    good = rg.quotient_hom(4, 2)
    sheafspec.ncspec_morphism(good)
    # 2 -> 1 breaks additivity, with the same image of the generator as `good`
    bad = rg.table_hom(z4, z2, {rg.element(z4, a): rg.element(z2, int(a in (1, 2)))
                                for a in range(4)})
    assert hash(bad) == hash(good)
    looked_up = sheafspec._induced_morphism.cache_info()
    for _ in range(2):
        with pytest.raises(NotAHomomorphism):
            sheafspec.ncspec_morphism(bad)
    assert sheafspec._induced_morphism.cache_info() == looked_up and not bad.validated


def test_prim_reports_are_kept_and_come_fresh(monkeypatch):
    sheafspec.clear_caches()
    m = sheafspec.ncspec_morphism(rg.quotient_hom(12, 4))
    assert sheafspec.is_prim_report(m) == {"prim": True, "witness": None}
    bad = crafted_zero_to_closed_point()
    report = sheafspec.is_prim_report(bad)
    assert not report["prim"] and report["witness"]
    want = sheafspec.is_prim_report(bad)
    report["witness"].clear()
    assert sheafspec.is_prim_report(bad) == want and want["witness"]
    # a warm report is a lookup that walks no square, and still a copy
    # the caller may change
    monkeypatch.setattr(sheafspec, "_prim_witness", None)
    warm = sheafspec.is_prim_report(bad)
    warm["witness"]["preimage"].append(-1)
    warm["witness"].clear()
    assert sheafspec.is_prim_report(bad) == want
    assert sheafspec.is_prim_report(m) == {"prim": True, "witness": None}


def test_a_check_that_raises_raises_again(monkeypatch):
    sheafspec.clear_caches()
    m = sheafspec.ncspec_morphism(rg.quotient_hom(30, 6))

    def broken(*args):
        raise NotAHomomorphism("injected")

    monkeypatch.setattr(sheafspec, "_prim_witness", broken)
    monkeypatch.setattr(type(m), "_verify", broken)
    for _ in range(2):
        with pytest.raises(NotAHomomorphism):
            m.verify()
        with pytest.raises(NotAHomomorphism):
            sheafspec.is_prim_report(m)
    monkeypatch.undo()
    assert m.verify() and sheafspec.is_prim_report(m)["prim"]
