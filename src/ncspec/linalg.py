"""Exact sparse linear algebra over the rationals.

Row-echelon based primitives used by the section solvers: rank, kernel
bases, membership of a vector in a row span, coordinates in a reduced
basis, and coset reduction.  A vector is a dict {column: value} holding
only its nonzero entries.  Values are exact: every value is an int or a
Fraction, never a float.  Ints stay ints until a pivot other than 1 or -1
needs a division; since equal ints and Fractions compare and hash equal,
the type never changes an answer.
"""

from fractions import Fraction


def _sparse(vec) -> dict:
    """A fresh copy of vec without zero entries."""
    return {j: x for j, x in vec.items() if x}


class Echelon:
    """Reduced row echelon form of a growing set of rows.

    Rows are sparse, normalized to a leading 1 (the pivot, their smallest
    column), and zero in every other row's pivot column.  Their values are
    ints or Fractions, as in `linalg`.  `pivots` maps pivot column -> row
    index, in row order.  `width` is the number of columns of the ambient
    space.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[dict] = []
        self.pivots: dict[int, int] = {}
        self._holders: dict[int, set] = {}   # non-pivot column -> rows nonzero there

    def reduce(self, vec) -> dict:
        """Return vec reduced modulo the current row span.

        Subtracting a row changes no other pivot column, so one pass over
        the pivot columns present in vec clears all of them.
        """
        v = _sparse(vec)
        pivots, rows = self.pivots, self.rows
        if not rows:
            return v
        for col in [j for j in v if j in pivots]:
            c = v.pop(col)
            for j, x in rows[pivots[col]].items():
                if j != col:
                    y = v.get(j, 0) - c * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        c = v[lead]
        if c == -1:
            v = {j: -x for j, x in v.items()}
        elif c != 1:
            inv = Fraction(1, c) if type(c) is int else 1 / c
            v = {j: x * inv for j, x in v.items()}
        # clear the new pivot column in the rows that hold it
        holders, new = self._holders, len(self.rows)
        touched = holders.pop(lead, ())
        for j in v:
            if j != lead:
                holders.setdefault(j, set()).add(new)
        for r in touched:
            row = self.rows[r]
            c = row.pop(lead)
            for j, x in v.items():
                if j != lead:
                    y = row.get(j, 0) - c * x
                    if y:
                        if j not in row:
                            holders[j].add(r)
                        row[j] = y
                    else:
                        del row[j]
                        holders[j].discard(r)
        self.rows.append(v)
        self.pivots[lead] = new
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def coordinates(self, vec):
        """{row index: coefficient} expressing vec in the rows, or None when
        vec is outside their span.  Each row is the only one with a nonzero
        entry in its pivot column, so the coefficients are vec's entries
        there; the residual check confirms the combination."""
        if self.reduce(vec):
            return None
        pivots = self.pivots
        return _sparse({pivots[j]: x for j, x in vec.items() if j in pivots})


def kernel_basis(rows, width: int) -> list[dict]:
    """Basis of {x : A x = 0} for the matrix with the given rows, one
    vector per free column in increasing order."""
    ech = Echelon(width)
    for r in rows:
        ech.add(r)
    basis = {f: {f: 1} for f in range(width) if f not in ech.pivots}
    for col, ri in ech.pivots.items():
        for f, x in ech.rows[ri].items():
            if f != col:
                basis[f][col] = -x
    return list(basis.values())


def solve(rows, width: int, target):
    """One solution x of sum x_i row_i = target as {i: x_i}, or None."""
    # augment each row with an identity tag so coordinates can be recovered
    full = Echelon(width + len(rows))
    for i, r in enumerate(rows):
        aug = dict(r)
        aug[width + i] = 1
        full.add(aug)
    red = full.reduce(target)
    if any(j < width for j in red):
        return None
    return {j - width: -x for j, x in red.items()}
