"""Universal localization at finite subsets for the supported ring classes.

A block ring (`rings.Descriptor.blocks`: Z/n, a matrix ring, a
semisimple algebra or a product of block rings) localizes onto its blocks: every
block is local or simple, so R[E^-1] keeps the blocks where every member
of E is a unit (`unit_blocks`), and it depends on E only through that
cell.  `localize` reads the kept blocks off the payloads of E and takes
(result, insertion) from one memo per (ring, kept blocks),
`_localize_cell`, which builds it once: the identity when every block is
kept, the collapse onto the zero ring when none is, and otherwise the
`BlockRule` that feeds each kept block of `keep` from itself, validated.
For Z/n this is Z/n[1/f] = Z/m, with m the largest divisor of n prime to
f.  Per subset what is left is O(blocks) unit tests and the witnessed
inverse of each image, checked two-sided.  Any other ring localizes by
its descriptor's `localized`: Q[x] at the squarefree part of prod(E), a
skew Laurent ring by enlarging its inverted cone.  `connecting_map` re-localizes,
and the restrictions and comaps of the sheaf come from one descent,
`induced_between`.  Between block rings a hom with a block map is built
as a `BlockRule`, and descents, squares and identity tests read block
maps (`rings.RingHom.block_map`).  Isos, pushouts and the descents of
homs without a block map are decided by kernels, which are sums of
blocks (`rings.kernel`); no question here enumerates a ring.
"""

from functools import cached_property, lru_cache
from math import prod

from . import rings as rg
from .errors import (
    CompositionMismatch,
    NotAHomomorphism,
    NotComparable,
    UnsupportedClass,
    UnverifiableSquare,
)
from .records import record
from .rings import IdentityRule, RingHom, ToZeroRule, hom_compose, hom_validate


@record(frozen=True)
class Localization:
    source: object
    subset: tuple                 # the localized elements, canonical order
    result: object                # canonical descriptor of loc(source, subset)
    insertion: RingHom            # alpha: source -> result
    inverse_witnesses: tuple      # ((element, inverse-in-result), ...)


def localize(r, E) -> Localization:
    """The universal localization of r at the finite subset E, from a memo
    keyed by r and the payloads of E in canonical order (`_subset_key`)."""
    return _localize_cached(r, _subset_key(r, E))


def _subset_key(r, E) -> tuple:
    """The payloads of the elements of E, all owned by r, in canonical
    order: sorted by the elements' `repr`, without repeats."""
    payloads = []
    for a in E:
        if a.owner is not r and a.owner != r:
            raise rg.ElementOwnershipMismatch(f"{a!r} not owned by {r!r}")
        payloads.append(a.payload)
    if len(payloads) < 2:
        return tuple(payloads)
    return tuple(sorted(set(payloads), key=r.show))


# the 4096-entry bound of `rings.unit_idempotent`: a warm session over Z/12
# and Z/30 keeps a few hundred localizations
@lru_cache(maxsize=4096)
def _localize_cached(r, payloads: tuple) -> Localization:
    E = tuple([rg.RingElement(r, p) for p in payloads])
    if r.blocks is not None:
        kept = frozenset(range(len(r.blocks))).intersection(*map(r.unit_blocks, payloads))
        result, insertion = _localize_cell(r, tuple(sorted(kept)))
    elif all(rg.is_unit(r, a) for a in E):
        result, insertion = r, rg.identity_hom(r)
    else:
        # E holds a non-unit; the rule of a zero result is unused
        result, rule = r.localized(E)
        if rg.is_zero_ring(result):
            insertion = rg.to_zero_hom(r, result)
        else:
            insertion = hom_validate(RingHom(r, result, rule))
    return _finish(r, E, result, insertion)


# the bound of `_localize_cached`: a ring has at most as many cells as subsets
@lru_cache(maxsize=4096)
def _localize_cell(r, kept: tuple):
    """(loc(r, E), insertion) for every subset E of the block ring r whose
    members are all units on exactly the blocks in kept: the identity when
    it keeps every block, the collapse when the kept product is the zero
    ring, else the projection `BlockRule(kept)` onto r.keep(kept)."""
    if len(kept) == len(r.blocks):
        return r, rg.identity_hom(r)
    result = r.keep(kept)
    if rg.is_zero_ring(result):
        return result, rg.to_zero_hom(r, result)
    return result, hom_validate(RingHom(r, result, rg.BlockRule(kept)))


def _finish(r, E, result, insertion) -> Localization:
    """The Localization with a witnessed inverse of each image, checked
    two-sided."""
    witnesses = []
    for a in E:
        img = insertion(a)
        w = rg.inverse(result, img)
        if w is None:
            raise UnsupportedClass(f"{a!r} fails to invert in {result!r}")
        if img * w != rg.one(result) or w * img != rg.one(result):
            raise UnsupportedClass(f"{w!r} is not a two-sided inverse of {img!r}")
        witnesses.append((a, w))
    return Localization(r, E, result, insertion, tuple(witnesses))


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


def induced_map(theta: RingHom, A) -> RingHom:
    """theta_A: loc(R, A) -> loc(S, theta(A)) closing the localization square."""
    hom_validate(theta)
    phi = induced_between(theta, localize(theta.source, A), localize(theta.target, map(theta, A)))
    if phi is None:
        raise UnsupportedClass(f"no induced map of {theta!r} at {list(A)!r}")
    return phi


def induced_between(theta: RingHom, LA: Localization, LB: Localization):
    """The validated phi: LA.result -> LB.result with phi . alpha = beta .
    theta for the insertions alpha, beta of LA, LB, or None if there is
    none; alpha is an epimorphism (Cohn), so phi is unique.  It is the
    collapse into the zero ring, read off block maps when theta and both
    insertions have them (`descend_by_block_maps`, with psi = beta . theta
    by lookup), and for theta = id on rings that are not block rings
    `_under_map`, which raises NotComparable.

    Otherwise theta, out of a finite block ring R, twists a matrix block
    or changes the kind of ring.  The insertion alpha of a block ring is
    the projection onto the blocks it keeps, so its kernel is the sum of
    the blocks it drops, and phi exists iff psi = beta . theta kills each
    of them (`rings.kernel`).  Then phi is psi on the kept blocks: a table
    of |alpha.target| evaluations, certified by `hom_validate`.
    """
    alpha, beta = LA.insertion, LB.insertion
    if rg.is_zero_ring(LB.result):
        return rg.to_zero_hom(LA.result, LB.result)
    amap, tmap, bmap = alpha.block_map, theta.block_map, beta.block_map
    if None not in (amap, tmap, bmap):
        return descend_by_block_maps(alpha, tuple(tmap[s] for s in bmap), LB.result)
    if amap is not None:
        if any(k for s, k in enumerate(rg.kernel(beta, theta)) if s not in amap):
            return None
        return hom_validate(rg.hom_from_callable(
            alpha.target, LB.result, lambda y: beta(theta(_lift(alpha, y)))))
    return _under_map(LA, LB) if isinstance(theta.rule, IdentityRule) else None


def _lift(alpha: RingHom, y):
    """The x with alpha(x) = y that is 0 on every block the block
    projection alpha drops: target block l of y put back at source block
    alpha.block_map[l]."""
    R = alpha.source
    parts = [B.from_int(0) for B in R.block_rings]
    for s, part in zip(alpha.block_map, alpha.target.split(y.payload)):
        parts[s] = part
    return rg.RingElement(R, R.join(parts))


def descend_by_block_maps(alpha: RingHom, psi_map: tuple, target):
    """The validated hom phi: alpha.target -> target with phi . alpha = psi,
    where psi: R -> target is given by its block map (see
    `RingHom.block_map`); None when there is none.

    alpha must be onto, so that phi is unique; a hom with a block map is
    onto exactly when no block of R feeds two of alpha's target (the image
    of Z/p^a in Z/p^b x Z/p^c is the diagonal).  (phi . alpha).block_map[l]
    = alpha.block_map[phi.block_map[l]], so phi.block_map[l] is the
    position of psi_map[l] in alpha.block_map.  Into the zero ring phi is
    the collapse, and when every block keeps its place in the same ring it
    is the identity hom (homs out of infinite rings compare by rule).
    Otherwise phi is the `BlockRule` of the positions, whose check decides
    whether each block fits the one it feeds.
    """
    amap, source = alpha.block_map, alpha.target
    if len(set(amap)) != len(amap) or not set(psi_map) <= set(amap):
        return None
    if rg.is_zero_ring(target):
        return rg.to_zero_hom(source, target)
    positions = tuple(amap.index(s) for s in psi_map)
    if source == target and positions == tuple(range(len(source.blocks))):
        return rg.identity_hom(source)
    try:
        return hom_validate(RingHom(source, target, rg.BlockRule(positions)))
    except NotAHomomorphism:
        return None


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
        """Whether right . top == bottom . left, decided once per square."""
        return self._commutation

    @cached_property
    def _commutation(self) -> bool:
        """right . top == bottom . left.  When all four legs have block maps
        the homs compare by them: (g . f).block_map[l] is
        f.block_map[g.block_map[l]].  Otherwise, on finite legs, validated
        first, both sides are additive, so comparing them on the generators
        of TL suffices; on infinite legs the two composites are compared,
        and legs that `hom_compose` cannot compose raise its
        UnsupportedClass.  Legs whose ends do not meet raise
        CompositionMismatch."""
        tl = self.top.source
        if (self.left.source != tl or self.right.source != self.top.target
                or self.bottom.source != self.left.target
                or self.right.target != self.bottom.target):
            raise CompositionMismatch(f"the legs of {self!r} do not form a square")
        legs = (self.top, self.left, self.bottom, self.right)
        top, left, bottom, right = (h.block_map for h in legs)
        if None not in (top, left, bottom, right):
            return all(top[r] == left[b] for r, b in zip(right, bottom))
        if rg.is_finite(tl):
            for h in legs:
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

def is_pushout(sq: LocalizationSquare) -> bool:
    """Whether the square is a pushout of rings, decided exactly.

    It must commute.  An identity leg settles it: the pushout of (id, f)
    is f, so the square pushes out exactly when the opposite leg is
    invertible; this decides the squares over Q[x].  A ring that receives
    a map from the zero ring is zero, so a square with a zero mid corner
    pushes out iff its bottom-right corner is zero.  Every other square
    goes to the kernel rule (`_pushout_by_kernels`), and one that it
    cannot read raises UnverifiableSquare.
    """
    if not sq.commutes():
        return False
    for leg, opposite in ((sq.top, sq.bottom), (sq.left, sq.right)):
        if _hom_is_identity(leg):
            verdict = _hom_is_iso(opposite)
            if verdict is not None:
                return verdict
    _tl, tr, bl, br = sq.corners
    if rg.is_zero_ring(tr) or rg.is_zero_ring(bl):
        return rg.is_zero_ring(br)
    try:
        return _pushout_by_kernels(sq)
    except UnsupportedClass as exc:
        raise UnverifiableSquare(str(exc))


def _hom_is_identity(h: RingHom) -> bool:
    """A hom with a block map is the identity iff every block feeds itself;
    any other validated finite hom iff it fixes the generators."""
    if h.source != h.target:
        return False
    bmap = h.block_map
    if bmap is not None:
        return bmap == tuple(range(len(h.source.blocks)))
    if rg.is_finite(h.source):
        return h.images == h.source.generators
    return isinstance(h.rule, IdentityRule)


def _hom_is_iso(h: RingHom):
    """True/False when decidable, None otherwise.

    A hom between block rings is bijective iff its kernel is 0 (every
    entry of `rings.kernel` is its block's size) and its target is as
    large: for a finite one |source| = |target|, and one between rings
    over Q has a block map, which then feeds each block from one of as
    many source blocks.  Iso rings have as many blocks, each an
    indecomposable ring.  O(blocks) lookups, or evaluations of the block
    units for a hom without a block map.
    """
    if isinstance(h.rule, IdentityRule):
        return True
    if isinstance(h.rule, ToZeroRule):
        return rg.is_zero_ring(h.source)
    S, T = h.source, h.target
    kept = rg.kernel(h)
    if kept is None or T.blocks is None:
        return None
    return (kept == S.blocks and len(S.blocks) == len(T.blocks)
            and rg.cardinality(S) == rg.cardinality(T))


def _pushout_by_kernels(sq: LocalizationSquare) -> bool:
    """The kernel rule.  Let q: A -> A/I be a leg out of the top-left
    corner that is onto, f: A -> C the other leg and h: C -> D the leg
    opposite q.  The pushout of q and f is C/J, J = C f(I) C the two-sided
    ideal that f(I) generates: a map k out of C and a map g out of A/I
    with k . f = g . q are exactly a k that kills f(I), hence J, and g is
    then fixed by k, as q is onto.  The square commutes, so h kills J and
    factors through C/J, and the square pushes out iff that factor is an
    isomorphism: iff h is onto with kernel exactly J.  In a restriction
    square q is the left leg, a block projection, so it is always onto.

    The corners are block rings, whose ideals are read block by block
    (`rings.kernel`: what the quotient keeps of each block), and J is read
    off the images under f of the generators of I (`_image_ideal`).  A leg
    with a block map is onto iff no source block feeds two target blocks
    (the image of one block in two is the diagonal), and a finite leg
    without one iff |source / ker| = |target|.  O(blocks) lookups and
    evaluations of f on the generators of I.  Raises UnsupportedClass when
    no leg out of the top-left corner is onto.
    """
    for q, f, h in ((sq.left, sq.top, sq.right), (sq.top, sq.left, sq.bottom)):
        kept = rg.kernel(q)
        if kept is not None and _is_onto(q, kept):
            break
    else:
        raise UnsupportedClass("no leg out of the top-left corner is onto")
    kh = rg.kernel(h)
    return _is_onto(h, kh) and kh == _image_ideal(f, kept)


def _image_ideal(f: RingHom, kept) -> tuple:
    """The ideal C f(I) C of the block ring C = f.target, in the terms of
    `rings.kernel`, for the ideal I of A = f.source that kept describes.

    I is generated by one element per block s of A that it meets: k_s u_s
    on a local factor that keeps k_s < q_s of Z/q_s, and the block unit
    u_s (`rings.block_units`) on a block that it takes whole.  f(A) lies
    in C, so C f(I) C is generated by the images t of those generators,
    and each block l of C answers what the quotient keeps of it from the
    parts t_l (`rings.Descriptor.kept_by_ideal`): in a local factor Z/c_l
    the multiples of their gcd with c_l, and a matrix block, a simple
    ring, unless some t_l is nonzero.
    """
    A, C = f.source, f.target
    if C.blocks is None:
        raise UnsupportedClass(f"{C!r} is not a block ring")
    images = [C.split(f(rg.from_int(A, k or 1) * u).payload)
              for k, q, u in zip(kept, A.blocks, rg.block_units(A)) if k != q]
    parts = zip(*images) if images else [()] * len(C.blocks)
    return tuple(B.kept_by_ideal(xs) for B, xs in zip(C.block_rings, parts))


def _is_onto(h: RingHom, kept) -> bool:
    bmap = h.block_map
    if bmap is not None:
        return len(set(bmap)) == len(bmap)
    if not rg.is_finite(h.source):
        raise UnsupportedClass(f"no onto test for {h!r}")
    order = prod(B.quotient_order(k) for B, k in zip(h.source.block_rings, kept) if k)
    return order == rg.cardinality(h.target)
