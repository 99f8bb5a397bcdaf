"""Shared fixtures and independent oracles for the test suite."""

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ncspec import rings as rg
from ncspec import skewpoly
from ncspec.commbridge import BasedSpace, exponential
from ncspec.errors import (
    NotComparable,
    PresheafLawViolation,
    UnsupportedClass,
    UnverifiableSquare,
)
from ncspec.glueqcoh import FiniteModule, tensor_module
from ncspec.latspace import is_completely_union_irreducible, sober_map_from_join_hom
from ncspec.linalg import Echelon
from ncspec.localization import LocalizationSquare, is_pushout, localize
from ncspec.records import _MISSING
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    SemisimpleAlgebra,
    ZeroRing,
    canonical_modular_product,
)
from ncspec.sheafspec import RingedSpaceMorphism, ncspec, sections
from ncspec.skewproj import graded_piece_basis


def python_stdout(flags, source) -> str:
    """The standard output of source run by a fresh interpreter with flags,
    importing ncspec from this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-c", source], env=env,
                          capture_output=True, text=True, check=True).stdout


def dataclass_twin(cls, frozen: bool):
    """The `dataclasses` class with the fields, bases and own methods of record cls.

    The members `record` made (functions of `ncspec.records`) are left
    out, so `dataclass` makes its own; a method the class defines itself,
    such as `__repr__` or `__post_init__`, is kept.
    """
    made = ("__dict__", "__weakref__", "__match_args__", "__record_fields__")
    ns = {k: v for k, v in vars(cls).items()
          if k not in made and (k, v) != ("__hash__", None)
          and getattr(v, "__module__", None) != "ncspec.records"}
    for name, f in cls.__record_fields__.items():
        spec = {"init": f.init, "repr": f.repr, "compare": f.compare}
        if f.default is not _MISSING:
            spec["default"] = f.default
        if f.default_factory is not _MISSING:
            spec["default_factory"] = f.default_factory
        ns[name] = dataclasses.field(**spec)
    ns["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=frozen)(type(cls.__name__, cls.__bases__, ns))


def brute_is_unit(r, x) -> bool:
    """Exhaustive two-sided inverse search (finite rings)."""
    one = rg.one(r)
    return any(x * y == one and y * x == one for y in rg.enumerate_elements(r))


def brute_idempotent_power(x):
    """The idempotent in the multiplicative orbit x, x^2, ... of an element of
    a finite ring, found by walking the orbit until it enters its cycle."""
    orbit, index = [], {}
    cur = x
    while cur.payload not in index:
        index[cur.payload] = len(orbit)
        orbit.append(cur)
        cur = cur * x
    idem = [e for e in orbit[index[cur.payload]:] if e * e == e]
    if len(idem) != 1:
        raise AssertionError(f"the orbit of {x!r} has {len(idem)} idempotents in its cycle")
    return idem[0]


def brute_under_map(r, A, B):
    """The map loc(r, A) -> loc(r, B) under a finite r, read off every element.

    Each x of r sends the image of x in loc(r, A) to its image in
    loc(r, B); the result is an unvalidated table hom.
    """
    LA, LB = localize(r, A), localize(r, B)
    table = {}
    for x in rg.enumerate_elements(r):
        key, val = LA.insertion(x), LB.insertion(x)
        if table.setdefault(key, val) != val:
            raise AssertionError(f"insertion images clash at {x!r}")
    if len(table) != rg.cardinality(LA.result):
        raise AssertionError("the insertion of loc(r, A) is not surjective")
    return rg.table_hom(LA.result, LB.result, table)


def subgroup_closure(zero, gens, add):
    """Closure of gens and zero under add in a finite group (an ideal when
    gens come from hom kernels).

    Each generator g joins by cosets: with H the subgroup built so far,
    H + g, H + 2g, ... are new until the first multiple of g in H, and
    their union with H is the subgroup generated by H and g.
    """
    acc = {zero}
    for g in gens:
        base = list(acc)
        x = g
        while x not in acc:
            acc |= {add(a, x) for a in base}
            x = add(x, g)
    return frozenset(acc)


def brute_hom_descend(alpha, psi):
    """The hom phi with phi . alpha = psi, read off the pairs (alpha(x), psi(x))
    of every element of the finite source; raises UnsupportedClass on a
    clash or a map that is not onto."""
    rg.hom_validate(alpha)
    rg.hom_validate(psi)
    pairs = ((alpha(x).payload, psi(x).payload) for x in rg.enumerate_elements(alpha.source))
    table = rg.descend(pairs, rg.cardinality(alpha.target), UnsupportedClass,
                       f"{psi!r} is not constant on the fibres of {alpha!r}",
                       f"{alpha!r} is not onto")
    return rg.RingHom(alpha.target, psi.target, rg.TableRule(tuple(sorted(table.items()))))


def cyclic_coordinates(x) -> tuple:
    """The coordinates of an element of a product of cyclic rings, one per
    modulus of `rings.cyclic_moduli`, read off its payload."""
    if isinstance(x.owner, rg.ProductRing):
        return x.payload
    return () if isinstance(x.owner, ZeroRing) else (x.payload,)


def images_table(source, target, images):
    """The table of x -> sum_i x_i t_i out of a product of cyclic rings,
    for the coordinates x_i of x and the image payloads t_i in target."""
    def apply(x):
        terms = zip(cyclic_coordinates(x), images)
        return sum((rg.from_int(target, c) * rg.element(target, t) for c, t in terms),
                   target.zero)
    return rg.hom_from_callable(source, target, apply)


def brute_all_homs(source, target):
    """Every hom out of a product of cyclic rings into another, in the order
    of `rings.all_homs`: one idempotent per factor, drawn from an
    enumeration of the target, orthogonal to those before it and killed by
    the factor's modulus, with sum 1, as the table of `images_table`."""
    if rg.is_zero_ring(target):
        return [rg.to_zero_hom(source, target)]
    if rg.is_zero_ring(source):
        return []
    mods = rg.cyclic_moduli(source)
    z = rg.zero(target)
    idem = [t for t in rg.enumerate_elements(target) if t * t == t]
    out = []

    def rec(chosen, remaining):
        i = len(chosen)
        if i == len(mods):
            if remaining == z:
                out.append(images_table(source, target, [t.payload for t in chosen]))
            return
        for t in idem:
            if all(t * c == z for c in chosen) and rg.from_int(target, mods[i]) * t == z:
                rec(chosen + [t], remaining - t)

    rec([], rg.one(target))
    return out


def brute_is_hom(h) -> bool:
    """Whether h computes a unital ring hom, checked on every pair.

    h is applied to each element of the finite source (its rule, or its
    table for a `TableRule`); a rule that fails to produce an element of
    the target there, or a table that misses an element, defines no map.
    """
    S, T = h.source, h.target
    elems = rg.enumerate_elements(S)
    try:
        img = {x.payload: h(x) for x in elems}
        if img[rg.one(S).payload] != rg.one(T) or img[rg.zero(S).payload] != rg.zero(T):
            return False
        return all(img[(x + y).payload] == img[x.payload] + img[y.payload]
                   and img[(x * y).payload] == img[x.payload] * img[y.payload]
                   for x in elems for y in elems)
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return False


def brute_tensor_factor(M, theta, j) -> dict:
    """Factor j of M (x) T along theta: R -> T, as coset indices of M, for
    block j of T (its part theta_j(r) in `split`).

    The bilinearity relations r*m - theta_j(r)*m over every scalar r and
    element m generate a subgroup N of M; each element maps to the index
    of its coset M / N in order of first appearance.  Plain tuple
    arithmetic, so the oracle shares no code with the module classes.
    """
    orders = M.orders

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, orders))

    elems = list(product(*map(range, orders)))
    T = theta.target
    shifts = {r - T.split(theta(rg.element(M.ring, r)).payload)[j] for r in range(M.ring.n)}
    gens = {tuple(k * a % d for a, d in zip(m, orders)) for k in shifts for m in elems}
    N = subgroup_closure((0,) * len(orders), gens, add)
    coset_of, count = {}, 0
    for m in elems:
        if m not in coset_of:
            coset_of.update((add(m, w), count) for w in N)
            count += 1
    return coset_of


def brute_unit_map_is_iso(T) -> bool:
    """Whether m -> 1 (x) m maps the module of the base change T onto T
    bijectively, by building the pure tensor of every element."""
    M = T.module
    return T.size() == M.size() == len({T.pure(rg.one(T.hom.target), m) for m in M.elements()})


def elementary_divisors(orders) -> list:
    """The prime-power orders of the cyclic summands of sum Z/d: two finite
    abelian groups are isomorphic iff these lists agree."""
    out = []
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def brute_reconstruction(sheaf) -> bool:
    """Whether base-changing Gamma (the bottom stalk, read as a module over
    the ring) along each cell's insertion rebuilds that cell's stalk, up
    to isomorphism of finite abelian groups."""
    gamma = sheaf.stalks[sheaf.space.lattice.bottom]
    G = FiniteModule(sheaf.module.ring, tuple(d for o in gamma.orders for d in o if d > 1))
    return all(
        elementary_divisors(d for o in tensor_module(cell.localized.insertion, G).orders
                            for d in o)
        == elementary_divisors(d for o in T.orders for d in o)
        for cell, T in zip(sheaf.space.lattice.cells, sheaf.stalks))


def brute_module_axioms(M) -> bool:
    """The module laws of M over its ring, checked on every scalar and element."""
    scalars = rg.enumerate_elements(M.ring)
    elems = M.elements()
    if any(M.act(rg.one(M.ring), m) != m for m in elems):
        return False
    return all(M.act(r * s, m) == M.act(r, M.act(s, m))
               and M.act(r + s, m) == M.add(M.act(r, m), M.act(s, m))
               for r in scalars for s in scalars for m in elems)


def classic_fraction_localization_size(n: int, f: int) -> int:
    """The commutative localization of Z/n at the powers of f, computed as
    fraction pairs (a, f^k) under the saturation equivalence."""
    powers = sorted({pow(f, k, n) for k in range(1, 2 * n + 2)} | {1 % n})

    def equivalent(p, q):
        a, s = p
        b, t = q
        return any((u * (a * t - b * s)) % n == 0 for u in powers)

    pairs = [(a, s) for a in range(n) for s in powers]
    classes = []
    for p in pairs:
        for cl in classes:
            if equivalent(p, cl[0]):
                cl.append(p)
                break
        else:
            classes.append([p])
    return len(classes)


def brute_upper_sets(up):
    """All upper sets of a poset given as up[i] = frozenset of j >= i."""
    n = len(up)
    out = []
    for mask in range(2 ** n):
        U = frozenset(i for i in range(n) if mask >> i & 1)
        if all(up[i] <= U for i in U):
            out.append(U)
    return out


def brute_poset_laws(up) -> bool:
    """Whether up[i] = frozenset of j >= i is a partial order on 0..n-1,
    by the triple loop over reflexivity, antisymmetry and transitivity."""
    n = len(up)
    if any(not 0 <= j < n for U in up for j in U):
        return False

    def leq(i, j):
        return j in up[i]

    for i in range(n):
        if not leq(i, i):
            return False
        for j in range(n):
            if leq(i, j) and leq(j, i) and i != j:
                return False
            for k in range(n):
                if leq(i, j) and leq(j, k) and not leq(i, k):
                    return False
    return True


def brute_presheaf_laws(sheaf) -> bool:
    """The presheaf laws of a ring sheaf on a localization lattice, by the
    triple loop: res(i, i) is the identity, and res(j, k) . res(i, j) is
    res(i, k) for every comparable triple i <= j <= k."""
    lat = sheaf.lattice
    for i in range(lat.n):
        if sheaf.restriction(i, i) != rg.identity_hom(sheaf.assignment[i]):
            return False
        for j in range(lat.n):
            if not lat.leq(i, j):
                continue
            for k in range(lat.n):
                if lat.leq(j, k) and (rg.hom_compose(sheaf.restriction(j, k),
                                                     sheaf.restriction(i, j))
                                      != sheaf.restriction(i, k)):
                    return False
    return True


def brute_sections_restriction(sp, U, V):
    """The restriction map between opens V <= U (principal or empty) of a
    space, with the section rings and minimal cells of both recomputed."""
    U, V = frozenset(U), frozenset(V)
    if not V <= U:
        raise NotComparable("restriction goes to a smaller open")
    SU, SV = sections(sp, U), sections(sp, V)
    if not V:
        return rg.to_zero_hom(SU, SV)
    minsU = sp.space.minimal_elements(U)
    minsV = sp.space.minimal_elements(V)
    if len(minsU) == 1 and len(minsV) == 1:
        return sp.sheaf.restriction(minsU[0], minsV[0])
    raise UnsupportedClass("restriction between non-principal opens")


def brute_verify(m) -> bool:
    """`RingedSpaceMorphism.verify` by the pair loop: the endpoints of each
    comap, then comap[j2] . res(j1, j2) = res . comap[j1] composed for every
    comparable pair, with both preimages recomputed per pair."""
    Y, X = m.target, m.source
    for j in range(Y.lattice.n):
        pre = m.preimage_base_open(Y.basic_open(j))
        h = m.comap[j]
        if h.source != Y.sheaf.assignment[j] or h.target != sections(X, pre):
            return False
    for j1 in range(Y.lattice.n):
        for j2 in range(Y.lattice.n):
            if not Y.lattice.leq(j1, j2):
                continue
            pre1 = m.preimage_base_open(Y.basic_open(j1))
            pre2 = m.preimage_base_open(Y.basic_open(j2))
            resX = brute_sections_restriction(X, pre1, pre2)
            lhs = rg.hom_compose(m.comap[j2], Y.sheaf.restriction(j1, j2))
            rhs = rg.hom_compose(resX, m.comap[j1])
            if lhs != rhs:
                return False
    return True


def brute_induced_map(theta, A):
    """The induced map loc(R, A) -> loc(S, theta(A)) of a hom out of a finite
    ring, LB.insertion . theta read off every element through the onto
    insertion of loc(R, A) by `brute_hom_descend`."""
    LA = localize(theta.source, tuple(A))
    LB = localize(theta.target, tuple(theta(a) for a in A))
    if isinstance(LB.result, ZeroRing):
        return rg.to_zero_hom(LA.result, LB.result)
    return brute_hom_descend(LA.insertion, rg.hom_compose(LB.insertion, theta))


def brute_ncspec_morphism(theta):
    """`sheafspec.ncspec_morphism` by elements: each cell's subset is pushed
    through theta and located by `cell_of_subset`, and each comap is the
    table descent of `brute_induced_map`, which must land in the sections
    of the image cell."""
    rg.hom_validate(theta)
    Y, X = ncspec(theta.source), ncspec(theta.target)
    t = {i: X.lattice.cell_of_subset(tuple(theta(a) for a in cell.representative))
         for i, cell in enumerate(Y.lattice.cells)}
    point_map = sober_map_from_join_hom(Y.space, X.space, t)
    comap = {}
    for j, cell in enumerate(Y.lattice.cells):
        comap[j] = brute_induced_map(theta, cell.representative)
        if comap[j].target != X.sheaf.assignment[t[j]]:
            raise PresheafLawViolation(
                f"induced map at cell {j} must land in the sections of cell {t[j]}")
    return RingedSpaceMorphism(X, Y, point_map, comap)


def brute_prim_witness(m, cells):
    """The first failing prim condition on the given target cells, by the
    pair loop that builds each restriction square from fresh preimages."""
    Y, X = m.target, m.source
    cells = list(cells)
    for j in cells:
        pre = m.preimage_base_open(Y.basic_open(j))
        if not is_completely_union_irreducible(X.space, pre):
            return {"condition": "preimage_not_union_irreducible",
                    "basic_open": j, "preimage": sorted(pre)}
    for j1 in cells:
        for j2 in cells:
            if not Y.lattice.leq(j1, j2):
                continue
            pre1 = m.preimage_base_open(Y.basic_open(j1))
            pre2 = m.preimage_base_open(Y.basic_open(j2))
            sq = LocalizationSquare(
                top=m.comap[j1],
                left=Y.sheaf.restriction(j1, j2),
                bottom=m.comap[j2],
                right=brute_sections_restriction(X, pre1, pre2),
            )
            if not is_pushout(sq):
                return {"condition": "restriction_square_not_pushout",
                        "pair": (j1, j2)}
    return None


def brute_commutes(sq) -> bool:
    """right . top == bottom . left, with the legs validated and both
    composites built by `hom_compose` and compared as homs."""
    for h in (sq.top, sq.left, sq.bottom, sq.right):
        rg.hom_validate(h)
    return rg.hom_compose(sq.right, sq.top) == rg.hom_compose(sq.bottom, sq.left)


def brute_is_iso(h):
    """True/False for a hom between finite rings by the image of every
    element, the answer of an identity or collapse rule; None otherwise."""
    if isinstance(h.rule, rg.IdentityRule):
        return True
    if isinstance(h.rule, rg.ToZeroRule):
        return rg.is_zero_ring(h.source)
    if rg.is_finite(h.source) and rg.is_finite(h.target):
        image = {h(x) for x in rg.enumerate_elements(h.source)}
        return len(image) == rg.cardinality(h.source) == rg.cardinality(h.target)
    return None


def brute_pushout_by_probes(sq, probes) -> bool:
    """The probe loop over every probe T: each pair (lam, mu) out of the two
    mid corners that agrees on the top-left corner has exactly one
    mediating rho out of the bottom-right corner, counted over all of
    Hom(BR, T) by (rho . right, rho . bottom).  `all_homs` raises
    UnsupportedClass for a probe or a corner it cannot enumerate into.

    On a commuting square of products of cyclic rings, with every local
    factor Z/p^c of the corners as a probe (`local_probes`), this decides
    the pushout exactly: the pushout P and the bottom-right corner are
    products of local factors of the corners, and a map between two such
    products that is a bijection on Hom(-, Z/q) for each of their local
    factors Z/q matches their blocks one to one, size for size."""
    _tl, tr, bl, br = sq.corners
    for T in probes:
        lams = rg.all_homs(tr, T)
        mus = rg.all_homs(bl, T)
        rhos = rg.all_homs(br, T)
        mediating = None
        for lam in lams:
            lam_top = rg.hom_compose(lam, sq.top)
            for mu in mus:
                if rg.hom_compose(mu, sq.left) != lam_top:
                    continue
                if mediating is None:
                    mediating = Counter((rg.hom_compose(rho, sq.right),
                                         rg.hom_compose(rho, sq.bottom)) for rho in rhos)
                if mediating[(lam, mu)] != 1:
                    return False
    return True


def brute_ideal(r, kept) -> set:
    """The elements of the ideal of a finite block ring r that
    `rings.kernel` describes by kept: the sums of one element per block s,
    taken from the multiples of kept[s] in block s of a product of cyclic
    rings (all of it when kept[s] is 0), and from all of block s or 0 in a
    matrix block.  Block s is r times its unit, found by elements."""
    elems = rg.enumerate_elements(r)
    parts = []
    for s, u in enumerate(rg.block_units(r)):
        block = {x * u for x in elems}
        if kept[s] == 0:
            parts.append(block)
        elif r.local_factors is None:
            parts.append({r.zero})
        else:
            parts.append({rg.from_int(r, kept[s]) * y for y in block})
    return {sum(xs, r.zero) for xs in product(*parts)}


def local_probes(sq):
    """Z/q for every local factor Z/q, q = p^c, of the corners of a square
    of products of cyclic rings."""
    return tuple(ModularRing(q) for q in sorted({q for c in sq.corners for q in c.blocks}))


def _brute_onto(h) -> bool:
    return len({h(x) for x in rg.enumerate_elements(h.source)}) == rg.cardinality(h.target)


def brute_pushout_by_kernels(sq) -> bool:
    """The kernel rule by elements.  Take the first leg q out of the
    top-left corner that is onto, by the image of every element (else
    UnsupportedClass), f the other leg into C, and h the leg opposite q.
    The square pushes out iff h is onto and its kernel is the two-sided
    ideal C f(ker q) C: the subgroup closure of the products x f(k) y for
    k in ker q and x, y additive generators of C, whose sums reach every
    c f(k) d."""
    for q, f, h in ((sq.left, sq.top, sq.right), (sq.top, sq.left, sq.bottom)):
        if _brute_onto(q):
            break
    else:
        raise UnsupportedClass("no leg out of the top-left corner is onto")
    C = f.target
    image = {f(x) for x in rg.enumerate_elements(q.source) if q(x) == q.target.zero}
    gens = rg.generator_elements(C)
    ideal = subgroup_closure(C.zero, [x * k * y for k in image for x in gens for y in gens],
                             lambda a, b: a + b)
    if not _brute_onto(h):
        return False
    return {y for y in rg.enumerate_elements(C) if h(y) == h.target.zero} == ideal


def brute_is_pushout(sq) -> bool:
    """`localization.is_pushout` with commutation by composites, the identity
    leg by comparison with `identity_hom`, invertibility by element images,
    the zero mid corner, and `brute_pushout_by_kernels` on finite corners."""
    if not brute_commutes(sq):
        return False
    for leg, opposite in ((sq.top, sq.bottom), (sq.left, sq.right)):
        if leg.source == leg.target and leg == rg.identity_hom(leg.source):
            verdict = brute_is_iso(opposite)
            if verdict is not None:
                return verdict
    _tl, tr, bl, br = sq.corners
    if rg.is_zero_ring(tr) or rg.is_zero_ring(bl):
        return rg.is_zero_ring(br)
    if all(rg.is_finite(c) for c in sq.corners):
        try:
            return brute_pushout_by_kernels(sq)
        except UnsupportedClass as exc:
            raise UnverifiableSquare(str(exc))
    raise UnverifiableSquare(f"no decision procedure applies to corners {sq.corners!r}")


def brute_module_presheaf_laws(sheaf) -> bool:
    """The presheaf laws of a module sheaf, by the triple loop over every
    element of each stalk."""
    lat = sheaf.space.lattice
    res = {(i, j): sheaf.restriction_map(i, j)
           for i in range(lat.n) for j in range(lat.n) if lat.leq(i, j)}
    for i in range(lat.n):
        if any(res[i, i](x) != x for x in sheaf.stalks[i].elements()):
            return False
    for (i, j), rij in res.items():
        for k in range(lat.n):
            if lat.leq(j, k) and any(res[j, k](rij(x)) != res[i, k](x)
                                     for x in sheaf.stalks[i].elements()):
                return False
    return True


def brute_t_complete(E) -> bool:
    """Whether every pair of points of an exponential space has a least upper
    bound lying in exactly the base members holding both, by the triple
    loop over points; a missing join is a failure."""
    pts = range(E.n)
    try:
        for p in pts:
            for q in pts:
                j = E.join(p, q)
                if not (E.leq(p, j) and E.leq(q, j)):
                    return False
                if any(E.leq(p, u) and E.leq(q, u) and not E.leq(j, u) for u in pts):
                    return False
        return all((p in img and q in img) == (E.join(p, q) in img)
                   for img in E.base for p in pts for q in pts)
    except ValueError:
        return False


def brute_dense_off_point(up, g, S) -> bool:
    """Whether S meets U - {g} for every upper set U with a point other than g."""
    return all(S & (U - {g}) for U in brute_upper_sets(up) if U - {g})


def brute_hasse_edges(up):
    """The covering pairs (i, j) of up[i] = frozenset of j >= i, in the order
    of up[i], by a scan of every third point."""
    return [(i, j) for i in range(len(up)) for j in up[i]
            if j != i and not any(k not in (i, j) and j in up[k] for k in up[i])]


def brute_order_closure(n, pairs):
    """The reflexive-transitive closure of pairs on 0..n-1 as up-sets, by
    the triple loop run to a fixed point."""
    leq = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    if leq[i][j] and leq[j][m] and not leq[i][m]:
                        leq[i][m] = changed = True
    return tuple(frozenset(j for j in range(n) if leq[i][j]) for i in range(n))


def brute_cyclic_cell_idempotents(r):
    """The cell order of a product of cyclic rings by a scan of every
    element: the CRT idempotents (`rings.unit_idempotent` per coordinate)
    as coordinate tuples, in the order they first occur."""
    mods = rg.cyclic_moduli(r)
    return list(dict.fromkeys(tuple(map(rg.unit_idempotent, mods, cyclic_coordinates(f)))
                              for f in rg.enumerate_elements(r)))


def brute_cell_of_subset(lat, E):
    """The cell of loc(R, E) by ring arithmetic: the cell of the product of
    E in a commutative ring, the join of its members' cells otherwise."""
    E = tuple(E)
    if not E:
        return lat.bottom
    if rg.is_commutative(lat.ring):
        f = rg.one(lat.ring)
        for a in E:
            f = f * a
        return lat.cell_of_element(f)
    cell = lat.cell_of_element(E[0])
    for a in E[1:]:
        cell = lat.join(cell, lat.cell_of_element(a))
    return cell


def brute_join(up, i, j):
    """The least upper bound of i and j by a scan of the upper bounds, or None."""
    ubs = [k for k in up[i] if k in up[j]]
    least = [k for k in ubs if all(m in up[k] for m in ubs)]
    return least[0] if len(least) == 1 else None


def brute_directed_lower_sets(up):
    n = len(up)

    def leq(i, j):
        return j in up[i]

    out = []
    for mask in range(1, 2 ** n):
        C = frozenset(i for i in range(n) if mask >> i & 1)
        lower = all(j in C for i in C for j in range(n) if leq(j, i))
        if not lower:
            continue
        directed = all(
            any(leq(a, z) and leq(b, z) for z in C) for a in C for b in C)
        if directed:
            out.append(C)
    return out


def brute_prime_ideals(r):
    """All prime ideals of a tiny commutative ring by full subset scan."""
    elems = rg.enumerate_elements(r)
    n = len(elems)
    assert n <= 12, "subset scan only for tiny rings"
    zero, one = rg.zero(r), rg.one(r)
    primes = []
    for mask in range(2 ** n):
        I = {elems[i] for i in range(n) if mask >> i & 1}
        if zero not in I or one in I:
            continue
        if any((a + b) not in I for a in I for b in I):
            continue
        if any((a * x) not in I for a in I for x in elems):
            continue
        outside = [x for x in elems if x not in I]
        if all((a * b) not in I for a in outside for b in outside):
            primes.append(frozenset(I))
    return primes


def brute_spec_primes(r):
    """The prime ideals of a finite commutative ring, sorted as `spec` sorts.

    Every ideal is a sum of principal ideals, so closing the principal
    ideals under pairwise sums gives all of them; the primes are the
    proper ones whose complement is closed under products.
    """
    elems = rg.enumerate_elements(r)
    principal = list({frozenset(x * a for x in elems) for a in elems})
    ideals = set(principal)
    frontier = list(principal)
    while frontier:
        nxt = []
        for I in frontier:
            for J in principal:
                s = frozenset(a + b for a in I for b in J)
                if s not in ideals:
                    ideals.add(s)
                    nxt.append(s)
        frontier = nxt
    primes = []
    for I in ideals:
        outside = [x for x in elems if x not in I]
        if outside and all((a * b) not in I for a in outside for b in outside):
            primes.append(I)
    return sorted(primes, key=lambda I: (len(I), tuple(sorted(repr(x.payload) for x in I))))


def brute_spec(r):
    """(primes, elements) of a finite commutative ring by the element scan:
    the primitive idempotents among all idempotents, each prime the
    elements x with x*a + (1 - a) not a unit, sorted as `spec` sorts."""
    elems = tuple(rg.enumerate_elements(r))
    zero, one = rg.zero(r), rg.one(r)
    idem = [e for e in elems if e * e == e]
    primitive = [a for a in idem if a != zero and all(a * b in (zero, a) for b in idem)]
    primes = [frozenset(x for x in elems if not rg.is_unit(r, x * a + one - a))
              for a in primitive]
    primes.sort(key=lambda I: (len(I), tuple(sorted(repr(x.payload) for x in I))))
    return tuple(primes), elems


def brute_distinguished(primes, f):
    return frozenset(i for i, P in enumerate(primes) if f not in P)


def brute_based_space(primes, elems):
    base = {brute_distinguished(primes, f) for f in elems}
    return BasedSpace(len(primes), tuple(sorted(base, key=lambda B: (len(B), sorted(B)))))


def brute_cells_outside(sp, avoid):
    """{cell of f : f not in avoid}, by a scan of every element."""
    return frozenset(sp.lattice.cell_of_element(f) for f in rg.enumerate_elements(sp.ring)
                     if f not in avoid)


def brute_embed_phi(r):
    """(point map, checks) of `commbridge.embed_phi` by element loops: every
    element's cell, distinguished open and localization."""
    primes, elems = brute_spec(r)
    sp = ncspec(r)
    lat, up = sp.lattice, sp.space.up
    point_map = {pi: sp.space.point_of(brute_cells_outside(sp, P)) for pi, P in enumerate(primes)}
    image = frozenset(point_map.values())
    checks = {"injective": len(image) == len(point_map)}
    checks["preimage_formula"] = all(
        frozenset(pi for pi, x in point_map.items() if x in up[lat.cell_of_element(g)])
        == brute_distinguished(primes, g) for g in elems)
    checks["homeomorphism_onto_image"] = all(
        frozenset(point_map[pi] for pi in brute_distinguished(primes, g))
        == image & up[lat.cell_of_element(g)] for g in elems)
    checks["comap_isomorphism"] = all(
        localize(r, (g,)).result == sp.sheaf.assignment[lat.cell_of_element(g)] for g in elems)
    checks["dense_in_complement_of_generic"] = brute_dense_off_point(up, sp.generic, image)
    return point_map, checks


def brute_union_of_primes_bijection(r) -> dict:
    """`commbridge.union_of_primes_bijection` over the element unions of
    every set of primes, each mapped to the cells of the elements outside."""
    primes, _elems = brute_spec(r)
    sp = ncspec(r)
    unions = {}
    for mask in range(2 ** len(primes)):
        chosen = [primes[i] for i in range(len(primes)) if mask >> i & 1]
        unions.setdefault(frozenset().union(*chosen), mask)
    closed_sets = {sp.space.down(x) for x in range(sp.space.n)}
    mapped, ok = {}, True
    for u in unions:
        members = brute_cells_outside(sp, u)
        ok &= members in closed_sets and members not in mapped.values()
        mapped[u] = members
    bijection = ok and len(unions) == len(closed_sets)
    return {"status": "pass" if bijection else "fail", "union_count": len(unions),
            "irreducible_closed_count": len(closed_sets), "bijection": bijection}


def brute_spec_exponential_iso(r) -> dict:
    """(status, gamma) of `commbridge.spec_exponential_iso` by element loops:
    the base read off every element, gamma through element unions and the
    base check on every element."""
    primes, elems = brute_spec(r)
    sp = ncspec(r)
    X = brute_based_space(primes, elems)
    E = exponential(X)
    gamma = {}
    for p in range(E.n):
        u = frozenset().union(*[primes[i] for i in E.reps[p]])
        gamma[p] = sp.space.point_of(brute_cells_outside(sp, u))
    ok = len(set(gamma.values())) == E.n == sp.space.n
    for f in elems:
        bi = X.base.index(brute_distinguished(primes, f))
        ok &= frozenset(gamma[p] for p in E.base[bi]) == sp.space.up[sp.lattice.cell_of_element(f)]
    for p in range(E.n):
        for q in range(E.n):
            meet = sp.space.down(gamma[p]) & sp.space.down(gamma[q])
            ok &= sp.space.down(gamma[E.join(p, q)]) == meet
    return {"status": "pass" if ok else "fail", "gamma": gamma}


def brute_sections_limit(sp, U):
    """The limit of the basic sections inside a non-basic open U of a
    product of cyclic rings, as a canonical product of Z/m.

    Scans every tuple of sections over the minimal cells of U and keeps
    those whose restrictions agree on every cell of U above two of them.
    The limit ring is then identified by its atoms: the minimal nonzero
    idempotent tuples, each of the additive order of its cyclic block.
    """
    mins = sp.space.minimal_elements(U)
    rings_at = [sp.sheaf.assignment[m] for m in mins]
    restrict = {(a, z): sp.sheaf.restriction(m, z)
                for a, m in enumerate(mins) for z in U if sp.lattice.leq(m, z)}
    pairs = [(a, b, restrict[(a, z)], restrict[(b, z)])
             for a in range(len(mins)) for b in range(a + 1, len(mins))
             for z in U if (a, z) in restrict and (b, z) in restrict]
    tuples = [t for t in product(*map(rg.enumerate_elements, rings_at))
              if all(ra(t[a]) == rb(t[b]) for a, b, ra, rb in pairs)]

    def t_mul(x, y):
        return tuple(a * b for a, b in zip(x, y))

    def t_add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    zero_t = tuple(rg.zero(t) for t in rings_at)
    if tuple(rg.one(t) for t in rings_at) not in tuples or zero_t not in tuples:
        raise AssertionError("the limit is not a subring")
    idem = [x for x in tuples if t_mul(x, x) == x and x != zero_t]
    atoms = [e for e in idem if not any(f != e and t_mul(e, f) == f for f in idem)]
    orders = []
    for e in atoms:
        k, acc = 1, e
        while acc != zero_t:
            acc = t_add(acc, e)
            k += 1
        orders.append(k)
    total = 1
    for k in orders:
        total *= k
    if total != len(tuples):
        raise AssertionError("the limit ring is not a product of cyclic blocks")
    return canonical_modular_product(sorted(orders, reverse=True))


def sympy_squarefree_part(coeffs):
    """Monic squarefree part via an independent computer-algebra system."""
    import sympy

    x = sympy.Symbol("x")
    poly = sum(sympy.Rational(c) * x ** i for i, c in enumerate(coeffs))
    if poly == 0:
        return ()
    _, factors = sympy.factor_list(poly)
    sf = sympy.prod([base for base, _ in factors if base.free_symbols]) if factors else 1
    p = sympy.Poly(sf, x).monic() if sympy.Poly(sf, x).degree() > 0 else None
    if p is None:
        return (Fraction(1),)
    return tuple(Fraction(str(c)) for c in reversed(p.all_coeffs()))


class DenseEchelon:
    """Dense reduced row echelon form: the reference for `ncspec.linalg`.

    Rows are lists of Fraction, normalized to a leading 1 with zeros above
    and below each pivot.  `pivots` maps pivot column -> row index.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.pivots: dict[int, int] = {}

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(c) for c in vec]
        for col, ri in self.pivots.items():
            c = v[col]
            if c:
                row = self.rows[ri]
                for j in range(col, self.width):
                    v[j] -= c * row[j]
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        lead = next((j for j in range(self.width) if v[j]), None)
        if lead is None:
            return False
        inv = 1 / v[lead]
        v = [c * inv for c in v]
        for row in self.rows:
            c = row[lead]
            if c:
                for j in range(lead, self.width):
                    row[j] -= c * v[j]
        self.rows.append(v)
        self.pivots[lead] = len(self.rows) - 1
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return all(c == 0 for c in self.reduce(vec))


def dense_kernel_basis(rows, width: int) -> list[list[Fraction]]:
    ech = DenseEchelon(width)
    for r in rows:
        ech.add(r)
    basis = []
    for f in (j for j in range(width) if j not in ech.pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for col, ri in ech.pivots.items():
            vec[col] = -ech.rows[ri][f]
        basis.append(vec)
    return basis


def dense_solve(rows, width: int, target):
    """One x with sum x_i row_i = target, via identity-tagged rows, or None."""
    n = len(rows)
    full = DenseEchelon(width + n)
    for i, r in enumerate(rows):
        full.add(list(r) + [Fraction(1 if j == i else 0) for j in range(n)])
    red = full.reduce(list(target) + [Fraction(0)] * n)
    if any(red[j] != 0 for j in range(width)):
        return None
    return [-red[width + j] for j in range(n)]


def brute_shift(r, b, components, index):
    """x^b times an element given as one skew payload per generator, by the
    payload path: `skewpoly.mul`, back through `from_canonical`, then the
    column of each (generator, exponent); None when a column is missing."""
    vec = {}
    for t, payload in enumerate(components):
        prod = skewpoly.mul(r.lam_map, {tuple(b): Fraction(1)}, skewpoly.from_canonical(payload))
        for e, c in skewpoly.from_canonical(skewpoly.canonical(prod)).items():
            if (t, e) not in index:
                return None
            vec[index[(t, e)]] = c
    return vec


def brute_relation_echelon(pres, index, S, d, box) -> Echelon:
    """The relation echelon of the degree-d raw space over the columns of
    `index`: every relation row, re-read from its payloads, times every
    monomial of the cone that keeps it inside the truncation."""
    ech = Echelon(len(index))
    for row in pres.relations:
        polys = [skewpoly.from_canonical(payload) for payload in row]
        degrees = {skewpoly.degree(q) + g for q, g in zip(polys, pres.gen_degrees) if q}
        if not degrees:
            continue
        (D,) = degrees
        for b in graded_piece_basis(pres.ring, S, d - D, box):
            vec = brute_shift(pres.ring, b, row, index)
            if vec is not None:
                ech.add(vec)
    return ech


def seeded_random():
    return random.Random(20260809)


@pytest.fixture
def rng():
    return seeded_random()


def small_commutative_rings(max_size=12):
    """The whitelisted finite commutative descriptors up to the size bound."""
    out = [ZeroRing()]
    out += [ModularRing(n) for n in range(2, max_size + 1)]
    prods = [
        (2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6),
        (2, 2, 2), (2, 2, 3),
    ]
    for mods in prods:
        size = 1
        for m in mods:
            size *= m
        if size <= max_size:
            out.append(rg.product_ring([ModularRing(m) for m in mods]))
    return out


def hom_corpus(max_mod=12):
    """Every canonical quotient Z/m -> Z/n and every collapse Z/m -> 0, m <= max_mod."""
    homs = []
    for m in range(2, max_mod + 1):
        for n in range(2, max_mod + 1):
            if m % n == 0:
                homs.append(rg.quotient_hom(m, n))
        homs.append(rg.to_zero_hom(ModularRing(m)))
    return homs


def finite_commutative_grid():
    """Every finite commutative class the library accepts, 70 rings in all:
    the zero ring, Z/2..Z/60, products of cyclic rings, commutative
    semisimple algebras, a 1x1 matrix ring and a mixed product."""
    def cyclic(*mods):
        return rg.product_ring([ModularRing(m) for m in mods])

    f2, f3 = PrimeField(2), PrimeField(3)
    return ([ZeroRing()] + [ModularRing(n) for n in range(2, 61)]
            + [cyclic(2, 6), cyclic(4, 6), cyclic(2, 2, 2), cyclic(2, 2, 2, 2),
               cyclic(3, 4, 5), cyclic(12, 10),
               SemisimpleAlgebra(f2, (1, 1, 1)), SemisimpleAlgebra(f3, (1, 1)),
               MatrixRing(f2, 1), rg.product_ring([ModularRing(2), MatrixRing(f3, 1)])])
