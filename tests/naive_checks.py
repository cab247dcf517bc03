"""Brute-force reference implementations for cross-checking the engine.

Everything here is deliberately naive and self-contained: dense tables as
nested lists, per-tuple loops, textbook Gaussian elimination. Nothing in
this module imports from the package under test; agreement between the two
codebases is what the acceptance tests assert.

Tables come in as nested lists of scalars (ints or Fractions) together
with the characteristic p (0 means rationals). GF(p) scalars are plain
residues. naive_algebra_doc alone takes an algebra, read through its
documented tensor() and field.
"""

from fractions import Fraction


def _norm(p, x):
    return x % p if p else x


def _norm_row(p, row):
    return [x % p for x in row] if p else row


def vadd(p, u, v):
    return [_norm(p, a + b) for a, b in zip(u, v)]


def vsub(p, u, v):
    return [_norm(p, a - b) for a, b in zip(u, v)]


def vscale(p, c, v):
    return [_norm(p, c * x) for x in v]


def is_zero_vec(v):
    return all(x == 0 for x in v)


def bracket_iv(p, c, i, v):
    """[e_i, v] for a binary table c."""
    n = len(c)
    out = [0] * n
    for k, coeff in enumerate(v):
        if coeff:
            out = vadd(p, out, vscale(p, coeff, c[i][k]))
    return out


def bracket_vi(p, c, v, j):
    n = len(c)
    out = [0] * n
    for k, coeff in enumerate(v):
        if coeff:
            out = vadd(p, out, vscale(p, coeff, c[k][j]))
    return out


def ternary_ivv(p, t, i, v, w):
    """{e_i, v, w} for a ternary table t."""
    n = len(t)
    out = [0] * n
    for a, ca in enumerate(v):
        if not ca:
            continue
        for b, cb in enumerate(w):
            if cb:
                out = vadd(p, out, vscale(p, ca * cb, t[i][a][b]))
    return out


def ternary_vvi(p, t, v, w, k):
    n = len(t)
    out = [0] * n
    for a, ca in enumerate(v):
        if not ca:
            continue
        for b, cb in enumerate(w):
            if cb:
                out = vadd(p, out, vscale(p, ca * cb, t[a][b][k]))
    return out


def naive_alternating(p, c):
    n = len(c)
    for i in range(n):
        if not is_zero_vec([_norm(p, x) for x in c[i][i]]):
            return False
        for j in range(n):
            if not is_zero_vec(vadd(p, c[i][j], c[j][i])):
                return False
    return True


def naive_leibniz(p, c):
    n = len(c)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = bracket_iv(p, c, x, c[y][z])
                r1 = bracket_vi(p, c, c[x][y], z)
                r2 = bracket_vi(p, c, c[x][z], y)
                if not is_zero_vec(vsub(p, lhs, vsub(p, r1, r2))):
                    return False
    return True


def naive_jacobi(p, c):
    n = len(c)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                s = vadd(
                    p,
                    bracket_iv(p, c, x, c[y][z]),
                    vadd(
                        p,
                        bracket_iv(p, c, y, c[z][x]),
                        bracket_iv(p, c, z, c[x][y]),
                    ),
                )
                if not is_zero_vec(s):
                    return False
    return True


def naive_lts(p, t):
    """All three ternary axioms by direct evaluation on basis tuples."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            if not is_zero_vec([_norm(p, x) for x in t[i][j][j]]):
                return False
            for k in range(n):
                if not is_zero_vec(vadd(p, t[i][j][k], t[i][k][j])):
                    return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = vadd(p, t[i][j][k], vadd(p, t[j][k][i], t[k][i][j]))
                if not is_zero_vec(s):
                    return False
    return naive_derivation_witness(p, t) is None


def naive_derivation_witness(p, t):
    """The first (x, y, z, a, b), looping over every slab (a, b) in
    row-major order and then over (x, y, z), where
    {{x,y,z},a,b} = {{x,a,b},y,z} + {x,{y,a,b},z} + {x,y,{z,a,b}} fails;
    None when it holds everywhere."""
    n = len(t)
    # each tuple's defect is summed into one list and reduced once, which
    # keeps the 5-tuple loop tolerable at dim 8
    for a in range(n):
        for b in range(n):
            slab = [t[x][a][b] for x in range(n)]
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        acc = [0] * n
                        for k, coeff in enumerate(t[x][y][z]):
                            if coeff:
                                _axpy(acc, coeff, t[k][a][b])
                        for k, coeff in enumerate(slab[x]):
                            if coeff:
                                _axpy(acc, -coeff, t[k][y][z])
                        for k, coeff in enumerate(slab[y]):
                            if coeff:
                                _axpy(acc, -coeff, t[x][k][z])
                        for k, coeff in enumerate(slab[z]):
                            if coeff:
                                _axpy(acc, -coeff, t[x][y][k])
                        if any(_norm(p, v) for v in acc):
                            return (x, y, z, a, b)
    return None


def _axpy(acc, c, row):
    """acc += c * row in place, unreduced."""
    for w, x in enumerate(row):
        if x:
            acc[w] += c * x


def naive_rank(p, rows):
    """Textbook elimination; returns the rank. Destroys nothing."""
    if p == 2:
        return _rank_gf2(rows)
    work = []
    for r in rows:
        if p:
            v = [x % p for x in r]
        else:
            v = [Fraction(x) for x in r]
        work.append(v)
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_rows = []
    for v in work:
        for pr, pc in pivot_rows:
            if v[pc]:
                if p:
                    factor = (v[pc] * pow(pr[pc], p - 2, p)) % p
                    v = [(a - factor * b) % p for a, b in zip(v, pr)]
                else:
                    factor = v[pc] / pr[pc]
                    v = [a - factor * b for a, b in zip(v, pr)]
        lead = next((c for c in range(ncols) if v[c]), None)
        if lead is not None:
            pivot_rows.append((v, lead))
            rank += 1
    return rank


def naive_rref(p, rows):
    """Textbook Gauss-Jordan: the nonzero rows of the reduced row echelon
    form of rows and their pivot columns."""
    work = [[_norm(p, x) if p else Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    out, piv = [], []
    for c in range(ncols):
        hit = next((v for v in work if v[c]), None)
        if hit is None:
            continue
        work.remove(hit)
        hit = vscale(p, pow(hit[c], -1, p) if p else 1 / hit[c], hit)
        work = [vsub(p, v, vscale(p, v[c], hit)) for v in work]
        out = [vsub(p, u, vscale(p, u[c], hit)) for u in out]
        out.append(hit)
        piv.append(c)
    return out, tuple(piv)


def naive_reduce(p, basis, pivots, v):
    """The residual of v against RREF rows basis with the given pivots."""
    w = [_norm(p, x) if p else Fraction(x) for x in v]
    for row, q in zip(basis, pivots):
        w = vsub(p, w, vscale(p, w[q], row))
    return w


def _rank_gf2(rows):
    pivots = {}
    rank = 0
    for r in rows:
        m = 0
        for i, x in enumerate(r):
            if x % 2:
                m |= 1 << i
        while m:
            low = (m & -m).bit_length() - 1
            if low in pivots:
                m ^= pivots[low]
            else:
                pivots[low] = m
                rank += 1
                break
    return rank


def naive_perfect(p, table, arity):
    n = len(table)
    rows = []
    if arity == 2:
        for i in range(n):
            for j in range(n):
                rows.append(table[i][j])
    else:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    rows.append(table[i][j][k])
    return naive_rank(p, rows) == n


def naive_binary_flags(p, c):
    alt = naive_alternating(p, c)
    jac = naive_jacobi(p, c)
    return {
        "alternating": alt,
        "leibniz": naive_leibniz(p, c),
        "jacobi": jac,
        "lie": alt and jac,
        "perfect": naive_perfect(p, c, 2),
    }


def naive_ternary_flags(p, t):
    return {"lts": naive_lts(p, t), "perfect": naive_perfect(p, t, 3)}


def naive_derived_table(p, c):
    """t[i][j][k] = [e_i, [e_j, e_k]]."""
    n = len(c)
    return [
        [[bracket_iv(p, c, i, c[j][k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def naive_leibniz_relation_rows(p, c):
    """The generators [x,y](x)z - [x,z](x)y - x(x)[y,z] in F^(n*n), one
    dense row per basis triple."""
    n = len(c)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = [0] * (n * n)
                for k, coeff in enumerate(c[x][y]):
                    row[k * n + z] += coeff
                for k, coeff in enumerate(c[x][z]):
                    row[k * n + y] -= coeff
                for k, coeff in enumerate(c[y][z]):
                    row[x * n + k] -= coeff
                yield _norm_row(p, row)


def naive_leibniz_relation_rank(p, c):
    """Rank of the span of [x,y](x)z - [x,z](x)y - x(x)[y,z] in F^(n*n)."""
    return naive_rank(p, list(naive_leibniz_relation_rows(p, c)))


def naive_lie_relation_rows(p, c):
    """The generators [x,y]^z + [y,z]^x + [z,x]^y in the wedge square (basis
    e_i ^ e_j, i < j, in lex order), one dense row per basis triple."""
    n = len(c)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pr: t for t, pr in enumerate(pairs)}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                row = [0] * len(pairs)

                def put(vec, other, row=row):
                    for k, coeff in enumerate(vec):
                        if k == other or not coeff:
                            continue
                        if k < other:
                            row[index[(k, other)]] += coeff
                        else:
                            row[index[(other, k)]] -= coeff

                put(c[x][y], z)
                put(c[y][z], x)
                put(c[z][x], y)
                yield _norm_row(p, row)


def naive_lie_relation_rank(p, c):
    """Rank of the span of [x,y]^z + [y,z]^x + [z,x]^y in the wedge square."""
    return naive_rank(p, list(naive_lie_relation_rows(p, c)))


def naive_cube_relation_rows(p, t):
    """The relation generators in F^(n^3), one dense row each: squares with
    their polarizations, cyclic sums over every triple, and every 5-tuple
    of the derivation-style family."""
    n = len(t)
    nn = n * n

    def idx(i, j, k):
        return i * nn + j * n + k

    for i in range(n):
        for j in range(n):
            row = [0] * n**3
            row[idx(i, j, j)] = 1
            yield row
            for k in range(n):
                row = [0] * n**3
                row[idx(i, j, k)] += 1
                row[idx(i, k, j)] += 1
                yield _norm_row(p, row)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [0] * n**3
                row[idx(i, j, k)] += 1
                row[idx(j, k, i)] += 1
                row[idx(k, i, j)] += 1
                yield _norm_row(p, row)
    for a in range(n):
        for b in range(n):
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        row = [0] * n**3
                        for k, coeff in enumerate(t[x][a][b]):
                            row[idx(k, y, z)] += coeff
                        for k, coeff in enumerate(t[y][a][b]):
                            row[idx(x, k, z)] += coeff
                        for k, coeff in enumerate(t[z][a][b]):
                            row[idx(x, y, k)] += coeff
                        for k, coeff in enumerate(t[x][y][z]):
                            row[idx(k, a, b)] -= coeff
                        yield _norm_row(p, row)


def naive_cube_relation_rank(p, t):
    """Rank of the full relation span in F^(n^3)."""
    return naive_rank(p, list(naive_cube_relation_rows(p, t)))


def naive_binary_morphism(p, ext_table, base_table, mat):
    """Is v -> mat * v a bracket morphism? mat rows index the target."""
    n_src = len(ext_table)
    for i in range(n_src):
        for j in range(n_src):
            img = [0] * len(base_table)
            for k, coeff in enumerate(ext_table[i][j]):
                if coeff:
                    img = vadd(p, img, vscale(p, coeff, [r[k] for r in mat]))
            ci = [r[i] for r in mat]
            cj = [r[j] for r in mat]
            rhs = [0] * len(base_table)
            for a, ca in enumerate(ci):
                if not ca:
                    continue
                for b, cb in enumerate(cj):
                    if cb:
                        rhs = vadd(p, rhs, vscale(p, ca * cb, base_table[a][b]))
            if not is_zero_vec(vsub(p, img, rhs)):
                return False
    return True


def naive_ternary_morphism(p, ext_table, base_table, mat):
    n_src = len(ext_table)
    m = len(base_table)
    cols = [[r[i] for r in mat] for i in range(n_src)]
    for i in range(n_src):
        for j in range(n_src):
            for k in range(n_src):
                img = [0] * m
                for w, coeff in enumerate(ext_table[i][j][k]):
                    if coeff:
                        img = vadd(p, img, vscale(p, coeff, [r[w] for r in mat]))
                rhs = [0] * m
                for a, ca in enumerate(cols[i]):
                    if not ca:
                        continue
                    for b, cb in enumerate(cols[j]):
                        if not cb:
                            continue
                        for cc, cv in enumerate(cols[k]):
                            if cv:
                                rhs = vadd(
                                    p, rhs,
                                    vscale(p, ca * cb * cv, base_table[a][b][cc]),
                                )
                if not is_zero_vec(vsub(p, img, rhs)):
                    return False
    return True


def _scalar_str(p, x):
    if p:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def naive_algebra_dict(p, name, field, table, arity):
    """The JSON document of an algebra by walking its nested table: every
    basis pair (or triple) in lexicographic order, with one row for each
    that has a nonzero bracket, listing the nonzero coordinates."""
    dim = len(table)
    rows = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim) if arity == 3 else [None]:
                vec = table[i][j] if k is None else table[i][j][k]
                pairs = [
                    [l, _scalar_str(p, x)]
                    for l, x in enumerate(vec)
                    if _norm(p, x) != 0
                ]
                if pairs:
                    rows.append([i, j, pairs] if k is None else [i, j, k, pairs])
    key = "binary" if arity == 2 else "ternary"
    return {"name": name, "field": field, "dim": dim, key: rows}


def naive_algebra_doc(alg):
    """The JSON document of an algebra by a per-entry walk over the nonzeros
    of its structure tensor (alg.tensor(): arr, scale, p), opening a row
    wherever the bracketed basis vectors change."""
    t = alg.tensor()
    nz = t.arr.nonzero()
    rows = []
    for *head, k, x in zip(*(ax.tolist() for ax in nz), t.arr[nz].tolist()):
        if not rows or rows[-1][:-1] != head:
            rows.append(head + [[]])
        scalar = x if t.p is not None else Fraction(x, t.scale)
        rows[-1][-1].append([k, _scalar_str(t.p, scalar)])
    kind = "binary" if alg.arity == 2 else "ternary"
    return {"name": alg.name, "field": alg.field.spec_str(), "dim": alg.dim, kind: rows}
