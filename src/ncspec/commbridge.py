"""Prime spectra of finite commutative rings, their embedding into the
sober localization space, and the exponential completion of based spaces.

The exponential of a based T0 space collapses subsets with the same
base-membership signature; its points form a complete join-semilattice
where the join of classes is the class of the union.  For garden-variety
spectra this reproduces the sober localization space exactly, which is
what the bridge checks.
"""

from itertools import product as iproduct

from . import rings as rg
from .errors import (
    BaseNotMultiplicative,
    InfiniteRing,
    NotCommutative,
    NotIrreducibleCertificate,
    NotT0,
    NotTComplete,
    UnsupportedClass,
)
from .records import record
from .rings import RingElement, RingHom, hom_validate
from .sheafspec import NCSpecSpace, ncspec


# ---------------------------------------------------------------------------
# prime spectra

@record
class PrimeSpectrum:
    ring: object
    primes: tuple          # each prime is a frozenset of RingElement
    elements: tuple

    @property
    def n(self):
        return len(self.primes)

    def distinguished(self, f: RingElement) -> frozenset:
        """D(f): indices of the primes not containing f."""
        return frozenset(i for i, P in enumerate(self.primes) if f not in P)

    def based_space(self) -> "BasedSpace":
        base = {self.distinguished(f) for f in self.elements}
        return BasedSpace(self.n, tuple(sorted(base, key=lambda B: (len(B), sorted(B)))))


def spec(r) -> PrimeSpectrum:
    """The prime ideals of a finite commutative ring, one per local factor.

    Lifting idempotents splits a finite commutative ring as R = prod R_l of
    local rings (Atiyah-Macdonald ch. 8), one factor per primitive
    idempotent: an a != 0 with a*b in (0, a) for every idempotent b.  Every
    prime of R is maximal, so the primes are the m_l, maximal ideal of R_l
    in factor l and everything in the others.  x*a + (1 - a) is x on the
    factor of a and 1 on the others, and a unit of R_l is exactly an
    element outside its maximal ideal, so
    m_a = {x : x*a + (1 - a) is not a unit}.
    """
    if not rg.is_finite(r):
        raise InfiniteRing(f"{r!r}")
    if not rg.is_commutative(r):
        raise NotCommutative(f"{r!r}")
    elems = tuple(rg.enumerate_elements(r))
    zero, one = rg.zero(r), rg.one(r)
    idem = [e for e in elems if e * e == e]
    primitive = [a for a in idem if a != zero and all(a * b in (zero, a) for b in idem)]
    primes = [frozenset(x for x in elems if not rg.is_unit(r, x * a + one - a))
              for a in primitive]
    primes.sort(key=lambda I: (len(I), tuple(sorted(repr(x.payload) for x in I))))
    return PrimeSpectrum(r, tuple(primes), elems)


# ---------------------------------------------------------------------------
# based spaces and the exponential

@record(frozen=True)
class BasedSpace:
    """A finite T0 space presented by a multiplicative base of opens."""

    n: int
    base: tuple   # frozensets of point indices; must contain the carrier
    labels: tuple = None

    def __post_init__(self):
        carrier = frozenset(range(self.n))
        if carrier not in set(self.base):
            raise BaseNotMultiplicative("the whole carrier must be a base member")
        base_set = set(self.base)
        for B1 in self.base:
            for B2 in self.base:
                if B1 & B2 not in base_set:
                    raise BaseNotMultiplicative(f"{sorted(B1)} and {sorted(B2)}")
        sigs = {}
        for x in range(self.n):
            s = frozenset(i for i, B in enumerate(self.base) if x in B)
            if s in sigs.values():
                raise NotT0(f"points share every base membership: {x}")
            sigs[x] = s

    def signature(self, subset) -> frozenset:
        subset = frozenset(subset)
        return frozenset(i for i, B in enumerate(self.base) if subset <= B)


@record
class ExponentialSpace:
    """The exponential of a based space: subsets modulo base signature."""

    base_space: BasedSpace
    sigs: tuple            # per point: frozenset of base indices
    reps: tuple            # per point: a representative subset
    base: tuple            # per base member of the input: frozenset of point indices

    @property
    def n(self):
        return len(self.sigs)

    def class_of(self, subset) -> int:
        s = self.base_space.signature(subset)
        return self.sigs.index(s)

    def leq(self, p: int, q: int) -> bool:
        """The join-semilattice order: the class of a union sits above its parts."""
        return self.sigs[q] <= self.sigs[p]

    def join(self, p: int, q: int) -> int:
        return self.sigs.index(self.sigs[p] & self.sigs[q])

    def bottom(self) -> int:
        """The class of the empty subset."""
        return self.class_of(frozenset())

    def embedding(self) -> dict:
        """x -> [{x}] on the underlying points."""
        return {x: self.class_of({x}) for x in range(self.base_space.n)}

    def as_based_space(self) -> BasedSpace:
        return BasedSpace(self.n, tuple(sorted(set(self.base), key=lambda B: (len(B), sorted(B)))))


def exponential(X: BasedSpace) -> ExponentialSpace:
    if X.n > 16:
        raise UnsupportedClass("exponential materializes the power set; carrier too large")
    groups = {}
    order = []
    for mask in range(2 ** X.n):
        A = frozenset(i for i in range(X.n) if mask >> i & 1)
        s = X.signature(A)
        if s not in groups:
            groups[s] = A
            order.append(s)
    order.sort(key=lambda s: (-len(s), sorted(s)))
    sigs = tuple(order)
    reps = tuple(groups[s] for s in order)
    base_imgs = tuple(
        frozenset(p for p, s in enumerate(sigs) if bi in s)
        for bi in range(len(X.base))
    )
    E = ExponentialSpace(X, sigs, reps, base_imgs)
    _check_t_complete_semilattice(E)
    return E


def _check_t_complete_semilattice(E: ExponentialSpace):
    """Every family has a least upper bound lying in exactly the base members
    that contain the whole family.

    A point is a signature, p <= q means sigs[q] <= sigs[p], and a point
    lies in base member bi iff bi is in its signature.  So a join of p and
    q, if any, is the point whose signature is sigs[p] & sigs[q]: it is
    above both, below every common upper bound, and in exactly the base
    members holding both p and q.  The bottom is the class of the empty
    set.  What is left to check is that the signatures are closed under
    pairwise intersection.
    """
    sigs = set(E.sigs)
    for p in range(E.n):
        for q in range(p + 1, E.n):
            if E.sigs[p] & E.sigs[q] not in sigs:
                raise NotTComplete("two points have no join", witness=(p, q))


# ---------------------------------------------------------------------------
# bridging Spec and the sober localization space

@record
class SpecEmbedding:
    spectrum: PrimeSpectrum
    space: NCSpecSpace
    point_map: dict        # prime index -> point index
    report: dict


def _cells_outside(sp: NCSpecSpace, avoid) -> frozenset:
    """{cell of f : f not in avoid} as a member set of the lattice."""
    lat = sp.lattice
    return frozenset(lat.cell_of_element(f) for f in rg.enumerate_elements(sp.ring)
                     if f not in avoid)


def _dense_off_point(X, g: int, S) -> bool:
    """Whether S meets every open of X that holds a point other than g.

    Such an open holds some x != g, hence up[x], and x lies in
    up[x] - {g}; so the basic opens up[x] suffice.
    """
    return all((X.up[x] - {g}) & S for x in range(X.n) if x != g)


def embed_phi(r) -> SpecEmbedding:
    """The continuous one-to-one map P -> {cells inverted away from P},
    with all the comparison checks the bridge promises."""
    spectrum = spec(r)
    sp = ncspec(r)
    lat = sp.lattice
    elems = spectrum.elements

    point_map = {pi: sp.space.point_of(_cells_outside(sp, P))
                 for pi, P in enumerate(spectrum.primes)}

    checks = {}
    checks["injective"] = len(set(point_map.values())) == len(point_map)

    # preimage of every basic open is the distinguished open of the same element
    ok = True
    for g in elems:
        cell = lat.cell_of_element(g)
        pre = frozenset(pi for pi, x in point_map.items() if x in sp.space.up[cell])
        if pre != spectrum.distinguished(g):
            ok = False
    checks["preimage_formula"] = ok

    # homeomorphism onto the image: the image of D(g) is image-and-basic-open
    image = frozenset(point_map.values())
    ok = True
    for g in elems:
        cell = lat.cell_of_element(g)
        want = frozenset(point_map[pi] for pi in spectrum.distinguished(g))
        if want != (image & sp.space.up[cell]):
            ok = False
    checks["homeomorphism_onto_image"] = ok

    # the section rings over matching basic opens coincide (canonical comap)
    from .localization import localize
    ok = True
    for g in elems:
        cell = lat.cell_of_element(g)
        if localize(r, (g,)).result != sp.sheaf.assignment[cell]:
            ok = False
    checks["comap_isomorphism"] = ok

    checks["dense_in_complement_of_generic"] = _dense_off_point(sp.space, sp.generic, image)

    report = {"status": "pass" if all(checks.values()) else "fail", "checks": checks}
    return SpecEmbedding(spectrum, sp, point_map, report)


def spec_functor_map(theta: RingHom):
    """Spec of a hom: the preimage map on primes of the target ring."""
    hom_validate(theta)
    sR = spec(theta.source)
    sS = spec(theta.target)
    out = {}
    for qi, Q in enumerate(sS.primes):
        pre = frozenset(x for x in sR.elements if theta(x) in Q)
        match = [pi for pi, P in enumerate(sR.primes) if P == pre]
        if len(match) != 1:
            raise NotIrreducibleCertificate(
                f"the preimage of prime {qi} matches {len(match)} primes, not one")
        out[qi] = match[0]
    return out, sS, sR


def union_of_primes_bijection(r) -> dict:
    """Unions of primes against irreducible closed subsets of the lattice."""
    spectrum = spec(r)
    sp = ncspec(r)
    unions = {}
    for mask in range(2 ** spectrum.n):
        chosen = [spectrum.primes[i] for i in range(spectrum.n) if mask >> i & 1]
        u = frozenset().union(*chosen) if chosen else frozenset()
        unions.setdefault(u, mask)
    closed_sets = {sp.space.down(x) for x in range(sp.space.n)}
    mapped = {}
    ok = True
    for u in unions:
        members = _cells_outside(sp, u)
        if members not in closed_sets:
            ok = False
        if members in mapped.values():
            ok = False
        mapped[u] = members
    report = {
        "status": "pass" if ok and len(unions) == len(closed_sets) else "fail",
        "union_count": len(unions),
        "irreducible_closed_count": len(closed_sets),
        "bijection": ok and len(unions) == len(closed_sets),
    }
    return report


def spec_exponential_iso(r) -> dict:
    """E(Spec R) against the sober localization space, naturally.

    gamma sends the class of a set of primes to the sober point of its
    union; the check verifies a bijection matching base opens both ways.
    """
    spectrum = spec(r)
    sp = ncspec(r)
    X = spectrum.based_space()
    E = exponential(X)

    gamma = {}
    for p in range(E.n):
        chosen = [spectrum.primes[i] for i in E.reps[p]]
        u = frozenset().union(*chosen) if chosen else frozenset()
        gamma[p] = sp.space.point_of(_cells_outside(sp, u))

    ok = len(set(gamma.values())) == E.n == sp.space.n
    # base members correspond: the image of D(f)-tilde is U_f-tilde
    for f in spectrum.elements:
        Df = spectrum.distinguished(f)
        bi = X.base.index(Df)
        lhs = frozenset(gamma[p] for p in E.base[bi])
        cell = sp.lattice.cell_of_element(f)
        if lhs != sp.space.up[cell]:
            ok = False
    # joins go to joins: the class of a union lands on the intersection of
    # the member sets (complements of unions of primes intersect)
    for p in range(E.n):
        for q in range(E.n):
            j = E.join(p, q)
            meet = sp.space.down(gamma[p]) & sp.space.down(gamma[q])
            if sp.space.down(gamma[j]) != meet:
                ok = False
    return {"status": "pass" if ok else "fail",
            "exponential_points": E.n, "sober_points": sp.space.n,
            "gamma": gamma, "exponential": E, "space": sp, "spectrum": spectrum}


def exp_functor_map(f_points: dict, EX: ExponentialSpace, EY: ExponentialSpace) -> dict:
    """E on a morphism of based spaces: classes map through images of subsets."""
    out = {}
    for p in range(EX.n):
        img = frozenset(f_points[x] for x in EX.reps[p])
        out[p] = EY.class_of(img)
    return out


def exp_idempotence_check(X: BasedSpace) -> bool:
    """The canonical map E(X) -> E(E(X)) is an isomorphism of based spaces."""
    E1 = exponential(X)
    B1 = E1.as_based_space()
    E2 = exponential(B1)
    emb = E2.embedding()
    phi = {p: emb[p] for p in range(E1.n)}
    if len(set(phi.values())) != E1.n or E2.n != E1.n:
        return False
    # base members must correspond both ways under the bijection
    base1 = {frozenset(B) for B in B1.base}
    base2 = {frozenset(B) for B in E2.as_based_space().base}
    fwd = {frozenset(phi[p] for p in B) for B in base1}
    inv = {p: q for q, p in phi.items()}
    bwd = {frozenset(inv[p] for p in B) for B in base2}
    return fwd == base2 and bwd == base1


# ---------------------------------------------------------------------------
# the universal property of the exponential

@record(frozen=True)
class TCompleteLattice:
    """A finite T-complete join-semilattice: based space plus order."""

    n: int
    base: tuple    # frozensets of point indices, multiplicative, contains carrier
    leq: tuple     # leq[i] = frozenset of j >= i

    def join(self, i, j):
        return self.sup((i, j))

    def sup(self, points):
        points = list(points)
        cands = [k for k in range(self.n) if all(k in self.leq[p] for p in points)]
        least = [k for k in cands if all(m in self.leq[k] for m in cands)]
        if len(least) != 1:
            raise NotTComplete(f"no least upper bound for {points}", witness=points)
        return least[0]

    def verify(self):
        carrier = frozenset(range(self.n))
        if carrier not in set(self.base):
            raise NotTComplete("carrier missing from the base")
        for B1 in self.base:
            for B2 in self.base:
                if B1 & B2 not in set(self.base):
                    raise NotTComplete("base is not multiplicative")
        # sup axiom over all subsets (finite carrier)
        for mask in range(2 ** self.n):
            A = [i for i in range(self.n) if mask >> i & 1]
            s = self.sup(A)
            for B in self.base:
                if (set(A) <= B) != (s in B):
                    raise NotTComplete(
                        f"subset containment disagrees with sup membership",
                        witness=(A, sorted(B)))
        return True


def exp_factorization(X: BasedSpace, theta: dict, Y: TCompleteLattice) -> dict:
    """Extend a based map X -> Y through the exponential: class -> sup of images.

    Verifies the triangle, join preservation, and (on small carriers)
    uniqueness by exhausting every based map out of the exponential.
    """
    Y.verify()
    # theta must pull base members back to base members
    for C in Y.base:
        pre = frozenset(x for x in range(X.n) if theta[x] in C)
        if pre not in set(X.base):
            raise NotTComplete(f"preimage of a base member is not basic: {sorted(C)}")
    E = exponential(X)
    hat = {p: Y.sup(theta[x] for x in E.reps[p]) for p in range(E.n)}
    emb = E.embedding()
    bad = [x for x in range(X.n) if hat[emb[x]] != theta[x]]
    if bad:
        raise NotTComplete("the triangle fails", witness=bad)
    for p in range(E.n):
        for q in range(E.n):
            if hat[E.join(p, q)] != Y.join(hat[p], hat[q]):
                raise NotTComplete("binary joins break", witness=(p, q))
    if hat[E.bottom()] != Y.sup([]):
        raise NotTComplete("empty join breaks")

    unique = None
    if Y.n ** E.n <= 200_000:
        candidates = []
        for combo in iproduct(range(Y.n), repeat=E.n):
            g = dict(enumerate(combo))
            if any(g[emb[x]] != theta[x] for x in range(X.n)):
                continue
            if not _is_t_morphism(E, g, Y):
                continue
            candidates.append(g)
        unique = candidates == [hat]
    return {"map": hat, "unique": unique}


def _is_t_morphism(E: ExponentialSpace, g: dict, Y: TCompleteLattice) -> bool:
    base_E = {frozenset(B) for B in E.as_based_space().base}
    for C in Y.base:
        pre = frozenset(p for p in range(E.n) if g[p] in C)
        if pre not in base_E:
            return False
    return True
