"""The memo of Spec-bridge verdicts on the memoized space.

`embed_phi`, `union_of_primes_bijection` and `spec_exponential_iso` run
their checks once per space `ncspec(r)` and keep the results on it.  Each
answer from the memo is compared here with a cold computation after
`clear_caches()`; the memo must hand out fresh dicts, make no spectrum,
localization or exponential work on a hit, and die with its space.
"""

import weakref

import pytest

from ncspec import commbridge, sheafspec
from ncspec import rings as rg
from ncspec.errors import UnsupportedClass
from ncspec.rings import ModularRing, PrimeField, SemisimpleAlgebra, ZeroRing

BRIDGE = (commbridge.embed_phi, commbridge.union_of_primes_bijection,
          commbridge.spec_exponential_iso)


def cyclic(*mods):
    return rg.product_ring([ModularRing(m) for m in mods])


def memo_rings():
    """The zero ring, a factor of modulus 1, a prime in two factors, F2^3 and
    cyclic rings up to five local factors."""
    return [ZeroRing(), rg.ProductRing((ModularRing(1), ModularRing(6))), cyclic(6, 10),
            SemisimpleAlgebra(PrimeField(2), (1, 1, 1)), ModularRing(30), ModularRing(2310)]


def answers(r):
    """Every bridge answer of r, as plain comparable values."""
    emb = commbridge.embed_phi(r)
    return ((emb.spectrum, emb.space, emb.point_map, emb.report),
            commbridge.union_of_primes_bijection(r),
            commbridge.spec_exponential_iso(r))


@pytest.mark.parametrize("r", memo_rings(), ids=repr)
def test_a_memo_hit_equals_a_cold_computation(r):
    sheafspec.clear_caches()
    first = answers(r)
    hit = answers(r)
    assert set(sheafspec.ncspec(r)._bridge) == {f.__name__ for f in BRIDGE}
    sheafspec.clear_caches()
    assert sheafspec.ncspec(r)._bridge == {}
    cold = answers(r)
    assert hit == first == cold
    assert hit[0][1] is not cold[0][1]          # the cold answer came from a new space
    assert first[0][3]["status"] == first[1]["status"] == first[2]["status"] == "pass"


def copied(r):
    """Copies of the dicts of every bridge answer of r."""
    (_spectrum, _sp, point_map, report), union, iso = answers(r)
    return (dict(point_map), dict(report["checks"]), report["status"], dict(union),
            dict(iso["gamma"]), iso["status"])


def test_returned_dicts_are_fresh():
    r = ModularRing(30)
    want = copied(r)
    emb = commbridge.embed_phi(r)
    emb.point_map[0] = -1
    emb.report["checks"]["injective"] = False
    emb.report["status"] = "fail"
    commbridge.union_of_primes_bijection(r)["bijection"] = False
    iso = commbridge.spec_exponential_iso(r)
    iso["gamma"].clear()
    iso["status"] = "fail"
    assert copied(r) == want


def test_a_warm_call_does_no_bridge_work(monkeypatch):
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or fn(*a))

    for name in ("spec", "localize", "exponential"):
        counting(commbridge, name)
    counting(commbridge.PrimeSpectrum, "distinguished")
    r = ModularRing(30)
    sheafspec.clear_caches()
    want = answers(r)
    assert {"spec", "localize", "exponential", "distinguished"} == set(calls)
    calls.clear()
    assert answers(r) == want
    assert calls == []


def test_a_check_that_raises_raises_again(monkeypatch):
    r = ModularRing(6)
    sheafspec.clear_caches()

    def broken(X):
        raise UnsupportedClass("injected")

    monkeypatch.setattr(commbridge, "exponential", broken)
    for _ in range(2):
        with pytest.raises(UnsupportedClass):
            commbridge.spec_exponential_iso(r)
    assert "spec_exponential_iso" not in sheafspec.ncspec(r)._bridge
    monkeypatch.undo()
    assert commbridge.spec_exponential_iso(r)["status"] == "pass"


def test_the_memo_dies_with_its_space():
    # no gc.collect(): the memo holds no reference back to its space, so
    # dropping the space from the LRU frees it by reference counting
    sheafspec.clear_caches()

    def bridged(r):
        """A weak reference to ncspec(r), after every bridge answer of r."""
        answers(r)
        sp = sheafspec.ncspec(r)
        assert len(sp._bridge) == len(BRIDGE)
        return weakref.ref(sp)

    kept = bridged(ModularRing(2310))
    for n in range(1, sheafspec.CACHE_BOUND + 1):      # evicts Z/2310 from the LRU
        sheafspec.ncspec(ModularRing(n))
    assert kept() is None
    kept = bridged(ModularRing(2310))
    sheafspec.clear_caches()
    assert kept() is None


def test_spec_builds_no_space():
    # the CLI `spec` command reads the spectrum alone
    sheafspec.clear_caches()
    assert commbridge.spec(ModularRing(30)).n == 3
    assert sheafspec.ncspec.cache_info().currsize == 0
