"""Universal localization at finite subsets for the supported ring classes.

A product of cyclic rings localizes by a closed form: Z/n[1/f] = Z/m,
where m is the largest divisor of n prime to f (`rings.unit_part`).  So
with f = prod(E), factor i keeps the part of n_i prime to the coordinate
f_i, a factor that keeps 1 drops, and the insertion is the
`CyclicImagesRule` sending e_i to the unit of its kept factor or to 0.
Matrix rings localize to themselves or collapse to the zero ring;
semisimple algebras localize to the sub-product indexed by the blocks
that every member of E leaves nonsingular; Q[x] localizes symbolically to
the fraction class of the squarefree part of prod(E); skew Laurent rings
localize at monomials by enlarging the inverted cone.  For A <= B the
connecting map loc(R, A) -> loc(R, B) is the insertion of loc(R, A) at
the image of B, so `_localized` is the only per-class code.
"""

import operator
from collections import Counter
from functools import lru_cache

from . import qpoly, skewpoly
from . import rings as rg
from .errors import (
    NonMonomialSkewSubset,
    NotComparable,
    UnsupportedClass,
    UnverifiableSquare,
)
from .records import record
from .rings import (
    IdentityRule,
    LocalizedPolyRing,
    MatrixRing,
    ModularRing,
    PolyFracRule,
    PolyInsertRule,
    ProductRing,
    RingElement,
    RingHom,
    SemisimpleAlgebra,
    SkewExpandRule,
    SkewLaurentRing,
    ToZeroRule,
    UnivariatePolyRing,
    ZeroRing,
    all_homs,
    hom_compose,
    hom_validate,
)


@record(frozen=True)
class Localization:
    source: object
    subset: tuple                 # the localized elements, canonical order
    result: object                # canonical descriptor of loc(source, subset)
    insertion: RingHom            # alpha: source -> result
    inverse_witnesses: tuple      # ((element, inverse-in-result), ...)

    def witness(self, a: RingElement) -> RingElement:
        for x, w in self.inverse_witnesses:
            if x == a:
                return w
        raise KeyError(f"{a!r} not in localized subset")


def _subset_key(E):
    return tuple(sorted(set(E), key=repr))


def localize(r, E) -> Localization:
    return _localize_cached(r, _subset_key(tuple(E)))


@lru_cache(maxsize=None)
def _localize_cached(r, E: tuple) -> Localization:
    for a in E:
        if a.owner != r:
            raise rg.ElementOwnershipMismatch(f"{a!r} not owned by {r!r}")
    if all(rg.is_unit(r, a) for a in E):
        result, rule = r, None
    else:
        result, rule = _localized(r, E)
    if result == r:
        insertion = rg.identity_hom(r)
    elif rg.is_zero_ring(result):
        insertion = rg.to_zero_hom(r, result)
    else:
        insertion = hom_validate(RingHom(r, result, rule))
    return _finish(r, E, result, insertion)


def _localized(r, E):
    """(loc(r, E), insertion rule) when E holds a non-unit; the rule of a zero result is unused."""
    mods = rg.cyclic_moduli(r)
    if mods is not None:
        f = rg.one(r)
        for a in E:
            f = f * a
        units = [rg.unit_part(n, c) for n, c in zip(mods, rg.cyclic_components(f))]
        result = canonical_modular_product(units)
        # e_i goes to the unit of its slot in the result, or to 0 if dropped
        slots = iter(result.generators)
        images = tuple(next(slots) if m > 1 else result.zero.payload for m in units)
        return result, rg.CyclicImagesRule(images)

    if isinstance(r, MatrixRing):
        # some member is singular: the usual rank-one collapse kills 1
        return ZeroRing(), None

    if isinstance(r, SemisimpleAlgebra):
        kept = [
            j for j in range(len(r.dims))
            if all(rg.mat_det(r.base, a.payload[j]) != 0 for a in E)
        ]
        if not kept:
            return ZeroRing(), None
        return (SemisimpleAlgebra(r.base, tuple(r.dims[j] for j in kept)),
                rg.SsaProjRule(tuple(kept)))

    if isinstance(r, UnivariatePolyRing):
        f = qpoly.ONE
        for a in E:
            f = qpoly.mul(f, a.payload)
        if qpoly.is_zero(f):
            return ZeroRing(), None
        return LocalizedPolyRing(qpoly.squarefree_part(f)), PolyInsertRule()

    if isinstance(r, LocalizedPolyRing):
        sf = r.denominator
        for a in E:
            num, _den = a.payload
            if qpoly.is_zero(num):
                return ZeroRing(), None
            sf = qpoly.mul(sf, num)
        return LocalizedPolyRing(qpoly.squarefree_part(sf)), PolyFracRule()

    if isinstance(r, SkewLaurentRing):
        new_inverted = set(r.inverted)
        for a in E:
            terms = skewpoly.from_canonical(a.payload)
            if not terms:
                return ZeroRing(), None
            if len(terms) != 1:
                raise NonMonomialSkewSubset(f"{a!r} is not a scalar multiple of a monomial")
            (e, _c), = terms.items()
            new_inverted.update(i for i, v in enumerate(e) if v != 0)
        return SkewLaurentRing(r.nvars, r.lam, frozenset(new_inverted)), SkewExpandRule()

    raise UnsupportedClass(f"cannot localize {r!r}")


def canonical_modular_product(mods):
    """Canonical descriptor for a product of Z/m factors (drop m = 1)."""
    mods = [m for m in mods if m > 1]
    if not mods:
        return ZeroRing()
    if len(mods) == 1:
        return ModularRing(mods[0])
    return ProductRing(tuple(ModularRing(m) for m in mods))


def _finish(r, E, result, insertion) -> Localization:
    witnesses = []
    for a in E:
        img = insertion(a)
        w = rg.inverse(result, img)
        if w is None:
            raise UnsupportedClass(f"{a!r} fails to invert in {result!r}")
        if img * w != rg.one(result) or w * img != rg.one(result):
            raise UnsupportedClass(f"{w!r} is not a two-sided inverse of {img!r}")
        witnesses.append((a, w))
    return Localization(r, tuple(E), result, insertion, tuple(witnesses))


# ---------------------------------------------------------------------------
# the preorder and its maps

def subset_leq(r, A, B) -> bool:
    """A is inverted by localizing at B."""
    L = localize(r, B)
    return all(rg.is_unit(L.result, L.insertion(a)) for a in A)


def connecting_map(r, A, B) -> RingHom:
    """The unique p: loc(R, A) -> loc(R, B) under R; requires A <= B."""
    if not subset_leq(r, A, B):
        raise NotComparable(f"{list(A)!r} is not below {list(B)!r} in {r!r}")
    return _under_map(localize(r, A), localize(r, B))


def _under_map(LA: Localization, LB: Localization) -> RingHom:
    """The map loc_A -> loc_B under the ring: the insertion of loc_A at the image of B."""
    p = localize(LA.result, tuple(LA.insertion(b) for b in LB.subset)).insertion
    if p.target != LB.result:
        raise NotComparable(f"{LA.result!r} localizes to {p.target!r}, not {LB.result!r}")
    return p


def _ssa_kept(h: RingHom):
    if isinstance(h.rule, rg.SsaProjRule):
        return tuple(h.rule.kept)
    return tuple(range(len(h.source.dims)))


def induced_map(theta: RingHom, A) -> RingHom:
    """theta_A: loc(R, A) -> loc(S, theta(A)) closing the localization square.

    On a finite source it is LB.insertion . theta descended through the
    onto insertion of loc(R, A), certified by `hom_descend`.
    """
    hom_validate(theta)
    LA = localize(theta.source, tuple(A))
    LB = localize(theta.target, tuple(theta(a) for a in A))
    if isinstance(LB.result, ZeroRing):
        return rg.to_zero_hom(LA.result, LB.result)
    if rg.is_finite(theta.source):
        return rg.hom_descend(LA.insertion, hom_compose(LB.insertion, theta))
    if isinstance(theta.rule, IdentityRule):
        return _under_map(LA, LB)
    if isinstance(theta.source, SemisimpleAlgebra) and isinstance(LB.result, SemisimpleAlgebra):
        # all four maps are block projections, so kept positions compose
        keptA = _ssa_kept(LA.insertion)
        kept_abs = _ssa_kept(hom_compose(LB.insertion, theta))
        positions = tuple(keptA.index(b) for b in kept_abs)
        return hom_validate(RingHom(LA.result, LB.result, rg.SsaProjRule(positions)))
    raise UnsupportedClass(f"induced map unsupported for {theta!r}")


@record(frozen=True)
class LocalizationSquare:
    """A commuting square of ring homs.

    top:    TL -> TR      left:  TL -> BL
    bottom: BL -> BR      right: TR -> BR
    """
    top: RingHom
    left: RingHom
    bottom: RingHom
    right: RingHom

    @property
    def corners(self):
        return (self.top.source, self.top.target, self.left.target, self.bottom.target)

    def commutes(self) -> bool:
        """right . top == bottom . left; on finite legs, validated first,
        both sides are additive, so comparing them on the generators of TL
        suffices.  On infinite legs the two composites are compared, and
        legs that `hom_compose` cannot compose raise its UnsupportedClass."""
        tl = self.top.source
        if rg.is_finite(tl):
            for h in (self.top, self.left, self.bottom, self.right):
                rg.hom_validate(h)
            return all(self.right(self.top(x)) == self.bottom(self.left(x))
                       for x in rg.generator_elements(tl))
        return hom_compose(self.right, self.top) == hom_compose(self.bottom, self.left)


def localization_square(theta: RingHom, A, B) -> LocalizationSquare:
    """The square (p_BA, theta_A, theta_B, p over the target); A <= B required."""
    if not subset_leq(theta.source, A, B):
        raise NotComparable("subsets are not comparable in the source")
    A, B = tuple(A), tuple(B)
    tA = tuple(theta(a) for a in A)
    tB = tuple(theta(b) for b in B)
    if not subset_leq(theta.target, tA, tB):
        raise NotComparable("image subsets fail to compare; not a homomorphism?")
    sq = LocalizationSquare(
        top=induced_map(theta, A),
        left=connecting_map(theta.source, A, B),
        bottom=induced_map(theta, B),
        right=_under_map(localize(theta.target, tA), localize(theta.target, tB)),
    )
    if not sq.commutes():
        raise UnverifiableSquare("localization square fails to commute")
    return sq


# ---------------------------------------------------------------------------
# pushout verification

def default_probes(sq: LocalizationSquare):
    probes = []
    for c in sq.corners + (ZeroRing(),):
        if c not in probes:
            probes.append(c)
    return tuple(probes)


def is_pushout(sq: LocalizationSquare, probes=None) -> bool:
    """Bounded pushout check.

    Finite commutative corners: for every probe T and every pair of homs
    (lam, mu) out of the two mid corners agreeing on the top-left corner,
    exactly one mediating hom out of the bottom-right corner must restrict
    to them.  Surjective squares instead compare the bottom-right corner
    with the quotient by the sum of the two kernels.
    """
    if not sq.commutes():
        return False
    if probes is None:
        probes = default_probes(sq)
    tl, tr, bl, br = sq.corners
    # an identity leg settles the question: the pushout of (id, f) is f,
    # so the square pushes out exactly when the opposite leg is invertible
    if _hom_is_identity(sq.top):
        verdict = _hom_is_iso(sq.bottom)
        if verdict is not None:
            return verdict
    if _hom_is_identity(sq.left):
        verdict = _hom_is_iso(sq.right)
        if verdict is not None:
            return verdict
    try:
        return _pushout_by_probes(sq, probes)
    except UnsupportedClass:
        pass
    if all(rg.is_finite(c) for c in (tl, tr, bl, br)):
        try:
            return _pushout_by_kernels(sq)
        except UnsupportedClass as exc:
            raise UnverifiableSquare(str(exc))
    raise UnverifiableSquare(f"no decision procedure applies to corners {sq.corners!r}")


def _hom_is_identity(h: RingHom) -> bool:
    # a validated finite hom compares by its images of the generators
    return h.source == h.target and h == rg.identity_hom(h.source)


def _hom_is_iso(h: RingHom):
    """True/False when decidable, None otherwise."""
    if isinstance(h.rule, IdentityRule):
        return True
    if isinstance(h.rule, ToZeroRule):
        return rg.is_zero_ring(h.source)
    if rg.is_finite(h.source) and rg.is_finite(h.target):
        image = {h(x) for x in rg.enumerate_elements(h.source)}
        return (len(image) == rg.cardinality(h.source)
                and len(image) == rg.cardinality(h.target))
    return None


def _pushout_by_probes(sq: LocalizationSquare, probes) -> bool:
    """Each agreeing pair (lam, mu) into a probe has exactly one mediating
    rho; the rhos are counted once per probe by (rho . right, rho . bottom).

    That is, Phi_T: Hom(BR, T) -> {(lam, mu) agreeing on TL} is a
    bijection for every probe T.  Hom(X, T1 x T2) = Hom(X, T1) x
    Hom(X, T2) naturally in X, so Phi_{T1 x T2} = Phi_T1 x Phi_T2, which
    is a bijection when both factors are.  Hom(X, 0) is one point for
    every X, so Phi_0 is always a bijection.  `_essential_probes` drops
    exactly the probes these two facts decide, so the verdict is that of
    the whole list.
    """
    tl, tr, bl, br = sq.corners
    for T in _essential_probes(tuple(probes)):
        lams = all_homs(tr, T)
        mus = all_homs(bl, T)
        rhos = all_homs(br, T)
        mediating = None
        for lam in lams:
            lam_top = hom_compose(lam, sq.top)
            for mu in mus:
                if hom_compose(mu, sq.left) != lam_top:
                    continue
                if mediating is None:
                    mediating = Counter((hom_compose(rho, sq.right), hom_compose(rho, sq.bottom))
                                        for rho in rhos)
                if mediating[(lam, mu)] != 1:
                    return False
    return True


@lru_cache(maxsize=None)
def _essential_probes(probes: tuple) -> tuple:
    """The probes whose check `_pushout_by_probes` cannot skip, in list order.

    Skipped: the zero ring, and a product of cyclic rings with two or
    more local factors Z/p^a when each of them is a probe too; its check
    is implied by theirs.  A probe that is not a product of cyclic rings
    raises UnsupportedClass where it stands in the list (`all_homs` has no
    rule for it), so with one in the list no product is skipped: a factor
    checked after it could not refute the square before it raises.
    """
    uniform = all(rg.cyclic_moduli(T) is not None for T in probes)

    def implied(T):
        if rg.is_zero_ring(T):
            return True
        mods = rg.cyclic_moduli(T)
        if not uniform or mods is None:
            return False
        local = [ModularRing(n // rg.unit_part(n, p))
                 for n in mods for p in rg.prime_factors(n)]
        return len(local) >= 2 and all(f in probes for f in local)

    return tuple(T for T in probes if not implied(T))


def _pushout_by_kernels(sq: LocalizationSquare) -> bool:
    """Surjective case: BR must be TL / (ker top + ker left)."""
    tl = sq.top.source
    elems = rg.enumerate_elements(tl)
    for h in (sq.top, sq.left, sq.bottom, sq.right):
        if len({h(x) for x in rg.enumerate_elements(h.source)}) != rg.cardinality(h.target):
            raise UnsupportedClass("square is not of quotient type")
    ker = {x for x in elems if sq.top(x) == rg.zero(sq.top.target)}
    ker |= {x for x in elems if sq.left(x) == rg.zero(sq.left.target)}
    ideal = subgroup_closure(rg.zero(tl), ker, operator.add)
    kappa = {x: sq.bottom(sq.left(x)) for x in elems}
    if len(set(kappa.values())) != rg.cardinality(sq.bottom.target):
        return False
    kernel_of_kappa = {x for x, v in kappa.items() if v == rg.zero(sq.bottom.target)}
    return kernel_of_kappa == ideal


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
