"""Seeded input files for the benchmark workloads.

Everything here is computed by the benchmark itself, from first principles,
so the program under test only ever sees finished ``catalog:NAME`` strings
or JSON files in its documented sparse format.
"""

from __future__ import annotations

import json
import random

# sl2 with basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f
_SL2 = {
    (0, 1): {2: 1}, (1, 0): {2: -1},
    (2, 0): {0: 2}, (0, 2): {0: -2},
    (2, 1): {1: -2}, (1, 2): {1: 2},
}

TAKIFF_NAME = "sl2[t]/(t^2)"
REBASED_NAME = "sl3-rebased"
REBASED_P = 3
# (row, column, entry) of the four off-diagonal entries of the change of
# basis. They are fixed: which four entries are set moves the cost of one
# operation nearly fourfold (5 s to 19 s on a 2-vCPU Xeon), so a seeded
# choice of positions would measure the draw, not the program. The seed
# picks the signs of the basis vectors instead: that changes the structure
# constants and the output bytes, but every elimination step only flips
# sign, so the work is the same for every seed.
BASIS_OFF_DIAGONAL = ((1, 2, 1), (2, 1, -1), (4, 7, 1), (5, 2, -1))


def takiff_table():
    """sl2 (x) F[t]/(t^2) on the basis e, f, h, et, ft, ht over Z."""
    n = 6
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), d in _SL2.items():
        for k, c in d.items():
            table[i][j][k] += c
            table[i + 3][j][k + 3] += c
            table[i][j + 3][k + 3] += c
    return table


def sl_table(n):
    """Structure constants of sl(n) on the basis E_ij (i != j, lex order)
    followed by H_i = E_ii - E_{i+1,i+1}, over Z."""
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                basis.append(m)
    for i in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[i][i], m[i + 1][i + 1] = 1, -1
        basis.append(m)

    def coords(m):
        out = [m[i][j] for i in range(n) for j in range(n) if i != j]
        acc = 0
        for i in range(n - 1):
            acc += m[i][i]
            out.append(acc)
        return out

    def commutator(a, b):
        return [
            [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
             for j in range(n)]
            for i in range(n)
        ]

    return [[coords(commutator(a, b)) for b in basis] for a in basis]


def _inverse_mod(mat, p):
    """Inverse of a square matrix over GF(p), or None when it is singular."""
    n = len(mat)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def draw_basis_change(rng, n, p):
    """BASIS_OFF_DIAGONAL on top of the identity, times a seeded diagonal
    of signs. Returns (matrix, inverse) over GF(p)."""
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, x in BASIS_OFF_DIAGONAL:
        b[i][j] = x
    signs = [rng.choice((1, -1)) for _ in range(n)]
    b = [[b[i][j] * signs[j] % p for j in range(n)] for i in range(n)]
    inv = _inverse_mod(b, p)
    if inv is None:
        raise ValueError("the basis change is singular")
    return b, inv


def rebase(table, b, binv, p):
    """Structure constants on the basis e'_i = sum_k b[k][i] e_k, mod p."""
    n = len(b)
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = [0] * n
            for a in range(n):
                if not b[a][i]:
                    continue
                for c in range(n):
                    if not b[c][j]:
                        continue
                    w = b[a][i] * b[c][j]
                    for k, x in enumerate(table[a][c]):
                        if x:
                            v[k] += w * x
            out[i][j] = [sum(binv[r][k] * v[k] for k in range(n)) % p
                         for r in range(n)]
    return out


def nonzeros(table):
    return sum(1 for row in table for vec in row for x in vec if x)


def to_document(name, field, table, rng=None):
    """The documented sparse JSON format; rng, when given, shuffles the
    entry order (the algebra is the same for every order)."""
    n = len(table)
    rows = []
    for i in range(n):
        for j in range(n):
            pairs = [[k, str(x)] for k, x in enumerate(table[i][j]) if x]
            if pairs:
                rows.append([i, j, pairs])
    if rng is not None:
        rng.shuffle(rows)
    return {"name": name, "field": field, "dim": n, "binary": rows}


def write_inputs(directory, seed):
    """Write the seeded input files; returns {key: path, ...} plus the
    description of what was drawn."""
    rng = random.Random(seed)
    takiff = to_document(TAKIFF_NAME, "Q", takiff_table(), rng)
    sl3 = sl_table(3)
    b, binv = draw_basis_change(rng, len(sl3), REBASED_P)
    rebased = rebase(sl3, b, binv, REBASED_P)
    paths = {
        "takiff": directory / "takiff.json",
        "rebased": directory / "sl3-gf3-rebased.json",
    }
    paths["takiff"].write_text(json.dumps(takiff, indent=1), encoding="ascii")
    paths["rebased"].write_text(
        json.dumps(
            to_document(REBASED_NAME, f"GF({REBASED_P})", rebased, rng),
            indent=1),
        encoding="ascii",
    )
    drawn = {
        "basis_change": b,
        "rebased_nonzeros": nonzeros(rebased),
        "catalog_nonzeros": nonzeros([[[x % REBASED_P for x in v] for v in r]
                                      for r in sl3]),
    }
    return paths, drawn
