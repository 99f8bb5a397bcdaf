"""The block protocol of a block ring against ring arithmetic.

A block ring is the product of its blocks (`Descriptor.blocks`), so
`split` must be a ring isomorphism onto the product of its `block_rings`
with inverse `join`; the block units are then the orthogonal idempotents
that are 1 on one block, and a is a unit on block s exactly when
a u_s + (1 - u_s) is a unit of the ring.  Each law is checked on every
element of the finite rings and on sampled elements over Q.
"""

from itertools import combinations

import pytest
from conftest import brute_is_unit, finite_commutative_grid

from ncspec import rings as rg
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    SemisimpleAlgebra,
    ZeroRing,
)

F2, F3, Q = PrimeField(2), PrimeField(3), Rationals()
FINITE = [r for r in finite_commutative_grid() if r.blocks is not None] + [
    SemisimpleAlgebra(F2, (1, 2)), SemisimpleAlgebra(F3, (1, 1)), MatrixRing(F2, 2),
    ModularRing(1), ZeroRing()]
OVER_Q = [SemisimpleAlgebra(Q, (1, 2)), SemisimpleAlgebra(Q, (2, 1, 1)), MatrixRing(Q, 2)]


def _sample(r, rng, count=25):
    """Elements of r over Q with entries in -2..2, units and zero divisors alike."""
    def matrix(d):
        return [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    if isinstance(r, MatrixRing):
        return [rg.element(r, matrix(r.size)) for _ in range(count)]
    return [rg.element(r, [matrix(d) for d in r.dims]) for _ in range(count)]


def _cases(rng):
    for r in FINITE:
        yield r, rg.enumerate_elements(r), lambda x: brute_is_unit(x.owner, x)
    for r in OVER_Q:
        yield r, [r.zero, r.one] + _sample(r, rng), lambda x: rg.is_unit(x.owner, x)


def test_split_is_a_ring_isomorphism_onto_the_blocks(rng):
    for r, elems, _unit in _cases(rng):
        rings = r.block_rings
        assert len(rings) == len(r.blocks), r
        assert r.split(r.one.payload) == tuple(B.from_int(1) for B in rings), r
        parts = {x.payload: r.split(x.payload) for x in elems}
        for x in elems:
            assert r.join(parts[x.payload]) == x.payload, (r, x)
        for x in elems:
            for y in elems:
                blocks = list(zip(rings, parts[x.payload], parts[y.payload]))
                sums = tuple(B.add(a, b) for B, a, b in blocks)
                products = tuple(B.mul(a, b) for B, a, b in blocks)
                assert r.split((x + y).payload) == sums, (r, x, y)
                assert r.split((x * y).payload) == products, (r, x, y)


def test_join_refuses_a_wrong_part_count():
    for r in FINITE + OVER_Q:
        parts = r.split(r.one.payload)
        for wrong in [parts + (0,)] + [parts[1:]] * bool(parts):
            with pytest.raises(ValueError):
                r.join(wrong)


def test_block_units_are_orthogonal_idempotents_summing_to_one():
    for r in FINITE + OVER_Q:
        units = rg.block_units(r)
        assert len(units) == len(r.blocks), r
        assert sum(units, r.zero) == r.one, r
        for s, u in enumerate(units):
            for t, v in enumerate(units):
                assert u * v == (u if s == t else r.zero), (r, s, t)


def test_unit_blocks_match_the_unit_oracle(rng):
    for r, elems, is_unit in _cases(rng):
        units = rg.block_units(r)
        for x in elems:
            want = frozenset(s for s, u in enumerate(units) if is_unit(x * u + (r.one - u)))
            assert r.unit_blocks(x.payload) == want, (r, x)
            assert (want == frozenset(range(len(units)))) == is_unit(x), (r, x)


def test_keep_is_the_product_of_the_kept_blocks():
    for r in FINITE + OVER_Q:
        n = len(r.blocks)
        for k in range(n + 1):
            for kept in combinations(range(n), k):
                ring = r.keep(kept)
                assert ring.blocks == tuple(r.blocks[s] for s in kept), (r, kept)
                if rg.is_finite(r):
                    size = 1
                    for s in kept:
                        size *= rg.cardinality(r.block_rings[s])
                    assert rg.cardinality(ring) == size, (r, kept)
        assert r.keep(range(n)) == (r if n else ZeroRing()), r
