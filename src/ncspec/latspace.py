"""The localization semilattice of a ring and its Alexandrov topology.

Cells of the lattice are localizations at finite subsets up to mutual
invertibility.  A finite ring here is a block ring, the product of its
blocks (`rings.Descriptor.blocks`: the local factors Z/p^a of Z/n, the
matrix blocks of a semisimple algebra, the one block of a matrix ring,
and a product's factors' blocks), and loc(R, E) keeps the blocks where every member of E is
a unit.  So a cell is keyed by the frozenset of the blocks it keeps, every
set of blocks is one cell, its subset is the idempotent that is 1 on
exactly those blocks, and an element lies in the cell of its
`unit_blocks`.  Only the order of the cells depends on the kind of ring,
and the ring answers it (`rings.Descriptor.cell_order`).
A materialized lattice carries one poset, the finite Alexandrov space on
its cells, which holds the order, the joins and the law checks.  That
space is already sober, so it is its own soberification: point i stands
for the irreducible closed set down(i).
Q[x] gets the lazy lattice of `qpoly.PidLattice`, driven by squarefree
divisibility, through its descriptor's `lazy_semilattice`.
"""

from itertools import combinations

from . import rings as rg
from .errors import (
    NotAPartialOrder,
    NotIrreducibleCertificate,
    NotJoinPreserving,
    NotOpen,
    UnsupportedClass,
)
from .localization import Localization, localize
from .records import private, record
from .rings import RingElement


# ---------------------------------------------------------------------------
# finite posets with the Alexandrov topology

@record(frozen=True)
class AlexandrovSpace:
    """A finite poset; opens are exactly the upper sets.

    The space is T0 and it is its own soberification.  A closed set is a
    down-set, and it is irreducible iff it is nonempty and directed.  A
    finite directed set has a top x, so an irreducible closed set is
    down(x), the closure of the point x; and x is the only point with that
    closure, because down(x) = down(y) forces x = y.  So every irreducible
    closed set has exactly one generic point: the space is sober, and the
    point x stands for the irreducible closed set down(x).
    """

    up: tuple      # up[i] = frozenset of j >= i (reflexive)
    _downs: tuple = private()
    _by_up: dict = private()       # up[i] -> i
    _by_down: dict = private()     # down(i) -> i

    def __post_init__(self):
        whole = self.carrier()
        downs = [[] for _ in self.up]
        for i, U in enumerate(self.up):
            if not U <= whole:
                raise NotAPartialOrder(f"up[{i}] = {sorted(U)} leaves the carrier")
            if i not in U:
                raise NotAPartialOrder(f"the order is not reflexive at {i}")
            for j in U:
                downs[j].append(i)
        for i, U in enumerate(self.up):
            for j in U:
                if not self.up[j] <= U:
                    raise NotAPartialOrder(f"the order is not transitive at ({i}, {j})")
        by_up = {U: i for i, U in enumerate(self.up)}
        if len(by_up) != self.n:
            raise NotAPartialOrder("the order is not antisymmetric: two points share an up-set")
        downs = tuple(map(frozenset, downs))
        object.__setattr__(self, "_downs", downs)
        object.__setattr__(self, "_by_up", by_up)
        object.__setattr__(self, "_by_down", {C: i for i, C in enumerate(downs)})

    @property
    def n(self) -> int:
        return len(self.up)

    def leq(self, i: int, j: int) -> bool:
        return j in self.up[i]

    def down(self, i: int) -> frozenset:
        return self._downs[i]

    def point_of(self, closed) -> int:
        """The point whose closure is the closed set `closed`."""
        closed = frozenset(closed)
        if closed not in self._by_down:
            raise NotIrreducibleCertificate(
                f"{sorted(closed)} is not the closure of a point")
        return self._by_down[closed]

    def generic(self):
        """The point whose closure is everything, if the carrier is directed."""
        return self._by_down.get(self.carrier())

    def is_open(self, U) -> bool:
        U = frozenset(U)
        return U <= self.carrier() and all(self.up[i] <= U for i in U)

    def carrier(self) -> frozenset:
        return frozenset(range(self.n))

    def all_open_sets(self):
        """Every upper set; exponential in antichain width, use on small carriers."""
        opens = {frozenset()}
        for i in range(self.n):
            opens |= {U | self.up[i] for U in opens}
        return sorted(opens, key=lambda U: (len(U), sorted(U)))

    def minimal_elements(self, S):
        S = frozenset(S)
        return [i for i in S if self.down(i) & S == {i}]

    def join(self, i: int, j: int) -> int:
        """The least upper bound: the point whose up-set is up[i] & up[j]."""
        k = self._by_up.get(self.up[i] & self.up[j])
        if k is None:
            raise UnsupportedClass(f"no join for ({i}, {j})")
        return k

    def hasse_edges(self):
        """The covering pairs: j > i with nothing strictly between."""
        return [(i, j) for i in range(self.n) for j in self.up[i]
                if j != i and self.up[i] & self._downs[j] == {i, j}]


def is_completely_union_irreducible(X: AlexandrovSpace, U) -> bool:
    """True exactly for the principal upper sets; the empty set is a union
    of the empty cover, hence excluded."""
    U = frozenset(U)
    if not X.is_open(U):
        raise NotOpen(f"{sorted(U)} is not an upper set")
    if not U:
        return False
    mins = X.minimal_elements(U)
    return len(mins) == 1 and X.up[mins[0]] == U


def soberify(X: AlexandrovSpace) -> AlexandrovSpace:
    """The soberification of a finite Alexandrov space, which is the space
    itself (see `AlexandrovSpace`)."""
    return X


def sober_map_from_join_hom(P: AlexandrovSpace, Q: AlexandrovSpace, f):
    """From a join-preserving f: P -> Q, given as a dict point-of-P ->
    point-of-Q, the continuous map Q -> P sending the point c to the point
    whose closure is f^{-1}(down(c)).  Returns the point map as a dict
    point-of-Q -> point-of-P.  Joins are symmetric on both sides, so each
    unordered pair is checked once."""
    for i in range(P.n):
        for j in range(i, P.n):
            if Q.join(f[i], f[j]) != f[P.join(i, j)]:
                raise NotJoinPreserving(
                    f"join of ({i}, {j}) is not preserved", witness=(i, j))
    point_map = {
        c: P.point_of(x for x in range(P.n) if f[x] in Q.down(c)) for c in range(Q.n)}
    # preimage formula on every basic open of P
    for a in range(P.n):
        if frozenset(c for c, p in point_map.items() if p in P.up[a]) != Q.up[f[a]]:
            raise NotOpen(f"the preimage of the basic open of {a} is not that of {f[a]}")
    return point_map


# ---------------------------------------------------------------------------
# the localization semilattice

@record(frozen=True)
class LocalizationCell:
    representative: tuple      # subset E of the ambient ring
    localized: Localization
    label: str
    key: frozenset             # the blocks the cell keeps


class LocalizationLattice:
    """Materialized localization semilattice of a finite-sided ring.

    `up[i]` lists the cells j >= i; the order and its joins are those of
    `self.space`, the Alexandrov space on the cells.  It is a function of
    the ring (`build_semilattice`), so it compares and hashes by the ring.
    """

    def __eq__(self, other):
        return isinstance(other, LocalizationLattice) and self.ring == other.ring

    def __hash__(self):
        return hash(self.ring)

    def __init__(self, ring, cells, up):
        self.ring = ring
        self.cells = cells
        self.space = AlexandrovSpace(tuple(up))
        self._key_index = {c.key: i for i, c in enumerate(cells)}
        whole = self.space.carrier()
        bottoms = [i for i in range(self.n) if self.space.up[i] == whole]
        top = self.space.generic()
        if not bottoms or top is None:
            raise NotAPartialOrder("the localization lattice must be bounded")
        self.bottom, self.top = bottoms[0], top
        self._check_joins()

    @property
    def n(self):
        return len(self.cells)

    def leq(self, i, j) -> bool:
        return self.space.leq(i, j)

    def join(self, i, j) -> int:
        return self.space.join(i, j)

    def cell_of_element(self, f: RingElement) -> int:
        return self._key_index[self.ring.unit_blocks(f.payload)]

    def cell_of_subset(self, E) -> int:
        """The cell of loc(R, E): the blocks where every member of E is a unit."""
        E = tuple(E)
        rg._check_owner(self.ring, *E)
        key = self.cells[self.bottom].key
        for a in E:
            key = key & self.ring.unit_blocks(a.payload)
        return self._key_index[key]

    def hasse_edges(self):
        return self.space.hasse_edges()

    def _check_joins(self):
        """The join of two cells is the cell of the union of their subsets.

        A product is a unit on a block iff every factor is: the blocks are
        local rings, and det is multiplicative on a matrix block.  So the
        cell of E_i + E_j keeps k_i & k_j, where k_i is the key of the cell
        of E_i, and each unordered pair is checked once by set arithmetic.
        At i = j this says that each cell's subset lies in that cell.
        """
        keys = [self.cells[self.cell_of_subset(c.representative)].key for c in self.cells]
        for i in range(self.n):
            for j in range(i, self.n):
                if self.join(i, j) != self._key_index.get(keys[i] & keys[j]):
                    raise NotJoinPreserving(
                        f"the join of cells {i} and {j} is not the cell of the union",
                        witness=(i, j))


def build_semilattice(r):
    """The localization semilattice; the descriptor's lazy one off block
    rings (Q[x]), materialized for a block ring: one cell per set of kept
    blocks, in the ring's `cell_order`, whose subset is the idempotent that is 1 on
    them (`rings.block_idempotent`), and cell j >= i iff j keeps a subset
    of the blocks i keeps.  The zero ring has one cell, at the empty subset."""
    if r.blocks is None:
        return r.lazy_semilattice()
    n = len(r.blocks)
    keys = [frozenset(Z) for k in range(n + 1) for Z in combinations(range(n), k)]
    cells = []
    for key in sorted(keys, key=r.cell_order):
        E = (rg.block_idempotent(r, key),) if n else ()
        label = "R[" + ",".join(rg.element_str(a) for a in E) + "]" if E else "R"
        cells.append(LocalizationCell(E, localize(r, E), label, key))
    up = [frozenset(j for j, b in enumerate(cells) if b.key <= a.key) for a in cells]
    return LocalizationLattice(r, cells, up)

