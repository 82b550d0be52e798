import itertools
import random

import pytest

from brauer.snf import smith_normal_form, solve_mod


def _mat_vec(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def _pairs(A):
    """The (column, value) rows that solve_mod reads, from a dense matrix."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in A]


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        D, U, V = smith_normal_form(A)
        # U * A * V == D
        UA = [[sum(U[i][k] * A[k][j] for k in range(rows))
               for j in range(cols)] for i in range(rows)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(cols))
                for j in range(cols)] for i in range(rows)]
        assert UAV == D
        # diagonal with successive divisibility
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0


def test_solve_mod():
    A = [[2], [4]]
    x = solve_mod(_pairs(A), [2, 4], 6, 1)
    assert x is not None
    assert [(v % 6) for v in _mat_vec(A, x)] == [2, 4]
    assert solve_mod(_pairs(A), [0, 2], 6, 1) is None
    assert solve_mod([[(0, 2)]], [1], 4, 1) is None
    # a column no row reaches is free, and x still has an entry for it
    x = solve_mod([[(1, 3)]], [3], 6, 3)
    assert len(x) == 3 and x[0] == x[2] == 0 and 3 * x[1] % 6 == 3


def test_solve_mod_brute_force():
    rng = random.Random(7)
    for m in (4, 6, 8, 9, 12, 25):
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 4)
            # entries weighted towards zero divisors of m
            A = [[rng.choice((0, 1, 2, 3, 5, m // 2, m - 1)) * rng.randrange(m)
                  % m for _ in range(cols)] for _ in range(rows)]
            image = {tuple(v % m for v in _mat_vec(A, x))
                     for x in itertools.product(range(m), repeat=cols)}
            if rng.random() < 0.5:
                b = list(rng.choice(sorted(image)))
            else:
                b = [rng.randrange(m) for _ in range(rows)]
            x = solve_mod(_pairs(A), b, m, cols)
            assert (x is not None) == (tuple(b) in image), (A, b, m)
            if x is not None:
                assert len(x) == cols and all(0 <= v < m for v in x)
                assert [v % m for v in _mat_vec(A, x)] == b


def test_solve_mod_rejects_bad_modulus():
    for m in (0, -2):
        with pytest.raises(ValueError, match="modulus"):
            solve_mod([[(0, 1)]], [0], m, 1)
