"""Differential tests: the sparse `ncspec.linalg` against the dense oracle."""

from fractions import Fraction

from conftest import DenseEchelon, dense_kernel_basis, dense_solve

from ncspec.linalg import Echelon, kernel_basis, solve


def dense(vec, width):
    out = [Fraction(0)] * width
    for j, x in vec.items():
        out[j] = x
    return out


def sparse(vec):
    return {j: x for j, x in enumerate(vec) if x}


def random_entry(rng):
    """Mostly zero; otherwise an int or a small rational."""
    roll = rng.random()
    if roll < 0.55:
        return 0
    if roll < 0.75:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def random_rows(rng, width):
    rows = [[random_entry(rng) for _ in range(width)] for _ in range(rng.randint(0, 6))]
    if rows and rng.random() < 0.5:
        rows.append(list(rng.choice(rows)))                        # duplicate
    if rows and rng.random() < 0.5:
        k = rng.choice((2, -1, Fraction(1, 3)))
        rows.append([k * x for x in rng.choice(rows)])             # multiple
    if rng.random() < 0.4:
        rows.insert(rng.randint(0, len(rows)), [0] * width)        # zero row
    return rows


def combination(rng, rows, width):
    out = [Fraction(0)] * width
    for r in rows:
        c = rng.randint(-2, 2)
        out = [a + c * b for a, b in zip(out, r)]
    return out


def assert_exact(vec):
    """Every value is an int or a Fraction: exact, never a float or a bool."""
    assert all(type(x) in (int, Fraction) for x in vec.values())


def test_echelon_matches_dense_oracle(rng):
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = random_rows(rng, width)
        ech, ref = Echelon(width), DenseEchelon(width)
        for r in rows:
            assert ech.add(sparse(r)) == ref.add(r)
        assert ech.rank == ref.rank
        assert ech.pivots == ref.pivots
        assert [dense(r, width) for r in ech.rows] == ref.rows
        for row in ech.rows:
            assert_exact(row)
        for target in (combination(rng, rows, width),
                       [random_entry(rng) for _ in range(width)], [0] * width):
            red = ech.reduce(sparse(target))
            assert_exact(red)
            assert dense(red, width) == ref.reduce(target)
            assert ech.contains(sparse(target)) == ref.contains(target)


def test_coordinates_read_off_pivots(rng):
    for _ in range(200):
        width = rng.randint(1, 7)
        rows = random_rows(rng, width)
        ech, ref = Echelon(width), DenseEchelon(width)
        for r in rows:
            ech.add(sparse(r))
            ref.add(r)
        inside = combination(rng, rows, width)
        coords = ech.coordinates(sparse(inside))
        assert_exact(coords)
        rebuilt = [Fraction(0)] * width
        for a, c in coords.items():
            rebuilt = [x + c * y for x, y in zip(rebuilt, dense(ech.rows[a], width))]
        assert rebuilt == inside
        outside = [random_entry(rng) for _ in range(width)]
        assert (ech.coordinates(sparse(outside)) is None) == (not ref.contains(outside))


def test_kernel_basis_matches_dense_oracle(rng):
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = random_rows(rng, width)
        got = kernel_basis([sparse(r) for r in rows], width)
        assert [dense(v, width) for v in got] == dense_kernel_basis(rows, width)
        for v in got:
            assert_exact(v)
            for r in rows:
                assert sum(Fraction(a) * b for a, b in zip(r, dense(v, width))) == 0


def test_solve_matches_dense_oracle(rng):
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = random_rows(rng, width)
        for target in (combination(rng, rows, width),
                       [random_entry(rng) for _ in range(width)]):
            got = solve([sparse(r) for r in rows], width, sparse(target))
            ref = dense_solve(rows, width, target)
            if ref is None:
                assert got is None
                continue
            assert dense(got, len(rows)) == ref
            total = [Fraction(0)] * width
            for i, x in got.items():
                total = [a + x * Fraction(b) for a, b in zip(total, rows[i])]
            assert total == target


def test_int_inputs_stay_exact():
    ech = Echelon(3)
    assert ech.add({0: 2, 2: 3})
    assert ech.rows == [{0: Fraction(1), 2: Fraction(3, 2)}]
    assert_exact(ech.rows[0])
    assert not ech.add({0: 4, 1: 0, 2: 6})
    assert not ech.add({})
    assert ech.reduce({1: 5}) == {1: Fraction(5)}
    assert_exact(ech.reduce({1: 5}))
    assert ech.coordinates({0: 4, 2: 6}) == {0: Fraction(4)}
    assert ech.coordinates({1: 1}) is None


def test_unit_pivots_keep_int_rows(rng):
    """Edge vectors e_u - e_v of a directed graph form a 0/+-1 matrix whose
    pivots are all 1 or -1, so no division happens: rows, reductions and
    kernel vectors stay ints, equal to the dense oracle's."""
    for _ in range(200):
        width = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(range(width), 2)
            row = [0] * width
            row[u], row[v] = 1, -1
            rows.append(row)
        ech, ref = Echelon(width), DenseEchelon(width)
        for r in rows:
            assert ech.add(sparse(r)) == ref.add(r)
        assert [dense(r, width) for r in ech.rows] == ref.rows
        target = [rng.choice((0, 1, -1)) for _ in range(width)]
        vecs = ech.rows + [ech.reduce(sparse(target))] + kernel_basis(
            [sparse(r) for r in rows], width)
        assert all(type(x) is int for vec in vecs for x in vec.values()), rows
