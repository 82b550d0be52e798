"""Integer Smith normal form and linear algebra modulo m.

`smith_normal_form` takes a dense list of lists of Python ints.  Linear
algebra modulo m takes sparse rows, each a sequence of (column, value)
pairs as `cohomology.coboundary_matrix` builds them, and never leaves
Z/m: it runs once per prime power p^e of m, where Z/p^e is a local ring
and every entry is a unit times a power of p, and the results are combined
by the Chinese remainder theorem.  Over Z/p^e, row elimination that always
pivots on an entry of least p-adic valuation reaches the Smith form up to
column operations, so the pivot valuations are the elementary divisors
(Storjohann and Mulders, "Fast algorithms for linear algebra modulo N",
ESA 1998).  The elimination reads only the matrix and records its row
operations; `solve_mod` applies them to b, which decides whether A x = b
has a solution, and reads one off by back substitution.
"""

from __future__ import annotations

import math

from .finitefield import prime_powers


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (D, U, V) with U*A*V == D diagonal and d1 | d2 | ...

    U and V are unimodular; D has the same shape as A with nonnegative
    diagonal entries.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        Ds, Dd = D[src], D[dst]
        for c in range(cols):
            Dd[c] += k * Ds[c]
        Us, Ud = U[src], U[dst]
        for c in range(rows):
            Ud[c] += k * Us[c]

    def add_col(src, dst, k):
        for r in D:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            Di = D[i]
            for j in range(t, cols):
                v = Di[j]
                if v:
                    a = abs(v)
                    if best is None or a < best:
                        best = a
                        pivot = (i, j)
                        if a == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        # clear row and column t; restart if a remainder shrinks the pivot
        while True:
            p = D[t][t]
            dirty = False
            for i in range(t + 1, rows):
                v = D[i][t]
                if v:
                    q = v // p
                    add_row(t, i, -q)
                    if D[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                v = D[t][j]
                if v:
                    q = v // p
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if not dirty:
                break

        # divisibility: pivot must divide the trailing block
        p = D[t][t]
        fixed = True
        for i in range(t + 1, rows):
            Di = D[i]
            for j in range(t + 1, cols):
                if Di[j] % p:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if p < 0:
            for j in range(cols):
                D[t][j] = -D[t][j]
            for j in range(rows):
                U[t][j] = -U[t][j]
        t += 1

    return D, U, V


def _eliminate(A, p, e):
    """Row-reduce the pair rows A modulo q = p^e, pivoting on entries of
    least valuation, and record the row operations.

    Pass a = 0, 1, ... goes column by column and pivots on an entry u * p^a
    (u a unit) of the shortest row having one; no entry left has a smaller
    valuation, so every entry stays divisible by p^a.  A pass runs only if
    g, the gcd of q and the free rows' entries, has valuation a, so it
    finds a pivot.  Rows are copied into dicts {column: value} reduced mod
    q, so A is left as it is; pivot rows are scaled to pivot p^a.  Returns
    (rows, pivots, steps), pivots as (row, column, a) in order: a pivot row
    is zero in earlier pivot columns and every other row ends zero.
    steps[t] is pivots[t]'s operation on a right-hand side, (row, unit,
    others, multiples): scale the pivot row by the unit, then subtract
    each multiple of it from the row beside it in others.  Pivots are
    chosen from A alone, so solve_mod applies the steps to any right-hand
    side.
    """
    q = p ** e
    rows = [{j: v % q for j, v in r if v % q} for r in A]
    free = list(range(len(rows)))
    cols = sorted({j for r in rows for j in r})
    pivots, steps = [], []
    g = math.gcd(q, *(v for r in rows for v in r.values()))
    for a in range(e):
        d = p ** a
        if g % (d * p) == 0:
            continue
        rest = []
        for j in cols:
            hits = [i for i in free if j in rows[i]]
            piv = min((i for i in hits if rows[i][j] // d % p),
                      key=lambda i: len(rows[i]), default=None)
            if piv is None:
                rest.append(j)
                continue
            u = pow(rows[piv][j] // d, -1, q)
            row = rows[piv] = {c: v * u % q for c, v in rows[piv].items()}
            hits.remove(piv)
            ks = []
            for i in hits:
                ri = rows[i]
                k = ri[j] // d
                for c, v in row.items():
                    w = (ri.get(c, 0) - k * v) % q
                    if w:
                        ri[c] = w
                    else:
                        ri.pop(c, None)
                ks.append(k)
            free.remove(piv)
            pivots.append((piv, j, a))
            steps.append((piv, u, hits, ks))
        cols = rest
        g = math.gcd(q, *(v for i in free for v in rows[i].values()))
    return rows, pivots, steps


def solve_mod(A, b, m, cols):
    """One solution x of A x = b (mod m), cols entries in [0, m), or None;
    A is rows of (column, value) pairs over columns 0 .. cols - 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    x, M = [0] * cols, 1
    for p, e in prime_powers(m):
        q = p ** e
        rows, pivots, steps = _eliminate(A, p, e)
        rhs = [v % q for v in b]  # under _eliminate's row operations
        for piv, u, others, ks in steps:
            r = rhs[piv] = rhs[piv] * u % q
            if r:
                for i, k in zip(others, ks):
                    rhs[i] = (rhs[i] - k * r) % q
        # no solution when a row that is not a pivot row is nonzero, or the
        # pivot row of pass a, whose entries p^a divides, is not 0 mod p^a
        pivot_rows = {i for i, _, _ in pivots}
        if (any(v for i, v in enumerate(rhs) if i not in pivot_rows)
                or any(rhs[i] % p ** a for i, _, a in pivots)):
            return None
        # back-substitute, free coordinates 0; row i reads p^a x_j + ... = rhs
        y = [0] * len(x)
        for i, j, a in reversed(pivots):
            s = rhs[i] - sum(v * y[c] for c, v in rows[i].items() if c != j)
            y[j] = s % q // p ** a
        t = pow(M, -1, q)
        x = [xi + M * ((yi - xi) * t % q) for xi, yi in zip(x, y)]
        M *= q
    return x
