import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import numpy as np

from conftest import rebased_sl3
from naive_checks import _norm, naive_rank, naive_reduce, naive_rref, vadd, vscale, vsub

from uce3 import (
    QQ,
    DimensionMismatch,
    Matrix,
    SpanAccumulator,
    Subspace,
    derived_lts,
    field_of,
    kernel,
    lts_tensor_cube,
    right_inverse,
    solve_columns,
)
from uce3 import linalg
from uce3.linalg import left_kernel
from uce3.tensorops import exact_tensor

FIELDS = ["Q", "GF(2)", "GF(3)", "GF(7)"]


def rand_mat(f, rng, nrows, ncols):
    return Matrix(
        f, [[f.random_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
    )


@pytest.mark.parametrize("spec", FIELDS)
def test_rank_nullity_random(spec):
    f = field_of(spec)
    rng = random.Random(42)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_mat(f, rng, nrows, ncols)
        ker = kernel(m)
        assert m.rank() + ker.dim == ncols
        for v in ker.basis_vectors():
            assert all(f.is_zero(x) for x in m.apply(v))


@pytest.mark.parametrize("spec", FIELDS)
def test_rref_canonical_under_row_shuffle(spec):
    f = field_of(spec)
    rng = random.Random(7)
    for _ in range(15):
        rows = [[f.random_scalar(rng) for _ in range(6)] for _ in range(5)]
        a = Subspace.from_vectors(f, 6, rows)
        rng.shuffle(rows)
        units = []
        while len(units) < len(rows):
            c = f.random_scalar(rng)
            if not f.is_zero(c):
                units.append(c)
        scaled = [vscale(f.characteristic, c, r) for c, r in zip(units, rows)]
        b = Subspace.from_vectors(f, 6, scaled)
        assert a == b
        assert a.equals(b)


@pytest.mark.parametrize("spec", FIELDS)
def test_subspace_modular_law_dims(spec):
    # dim(U) + dim(W) = dim(U+W) + dim(U cap W)
    f = field_of(spec)
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 7)
        u = Subspace.from_vectors(
            f, n, [[f.random_scalar(rng) for _ in range(n)] for _ in range(3)]
        )
        w = Subspace.from_vectors(
            f, n, [[f.random_scalar(rng) for _ in range(n)] for _ in range(3)]
        )
        s = u.sum_with(w)
        i = u.intersect(w)
        assert u.dim + w.dim == s.dim + i.dim
        assert i.is_subspace_of(u) and i.is_subspace_of(w)
        assert u.is_subspace_of(s) and w.is_subspace_of(s)
        for v in i.basis_vectors():
            assert v in u and v in w


def test_subspace_contains_and_reduce():
    f = QQ
    u = Subspace.from_vectors(f, 3, [[1, 0, 1], [0, 1, 1]])
    assert [1, 1, 2] in u
    assert [1, 1, 1] not in u
    red = u.reduce([1, 1, 1])
    assert not all(f.is_zero(x) for x in red)


def test_subspace_scaled_and_image():
    f = field_of("GF(3)")
    u = Subspace.from_vectors(f, 2, [[1, 2]])
    assert u.scaled(2) == u
    assert u.scaled(0).dim == 0
    assert u.scaled(3).dim == 0  # 3 = 0 in GF(3)
    m = Matrix(f, [[1, 0], [1, 1], [0, 2]])
    img = u.image_under(m)
    assert img.dim == 1
    assert m.apply([1, 2]) in img


def test_span_accumulator_snapshot_isolated():
    f = field_of("GF(2)")
    acc = SpanAccumulator(f, 4)
    acc.add_vectors([[1, 0, 1, 0]])
    snap = acc.to_subspace()
    acc.add_vectors([[0, 1, 0, 0]])
    assert snap.dim == 1 and acc.dim == 2
    assert [0, 1, 0, 0] not in snap


@pytest.mark.parametrize("spec", FIELDS)
def test_solve_and_right_inverse(spec):
    f = field_of(spec)
    rng = random.Random(3)
    for _ in range(10):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(f, rng, n, m)
        # solvable systems: images of random vectors
        xs = [[f.random_scalar(rng) for _ in range(m)] for _ in range(3)]
        rhs = [a.apply(x) for x in xs]
        sols = solve_columns(a, rhs)
        for sol, b in zip(sols, rhs):
            assert sol is not None
            assert a.apply(sol) == [f.coerce(x) for x in b]
    a = Matrix(QQ, [[1, 0, 2], [0, 1, 1]])
    r = right_inverse(a)
    assert a @ r == Matrix.identity(QQ, 2)
    with pytest.raises(DimensionMismatch):
        right_inverse(Matrix(QQ, [[1, 0], [0, 1], [0, 0]]))
    # inconsistent right hand sides come back as None, not an exception
    assert solve_columns(Matrix(QQ, [[1, 0], [0, 0]]), [[0, 1]]) == [None]


def test_quotient_projection_section():
    f = QQ
    killed = Subspace.from_vectors(f, 4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    assert len(killed.free) == 2
    for x in range(2):
        unit = [f.zero] * 2
        unit[x] = f.one
        assert killed.project(killed.section(unit)) == unit
    # killed vectors map to zero
    assert all(f.is_zero(c) for c in killed.project([1, 1, 0, 0]))
    # projection is linear on a random combination
    v = killed.project([2, 3, 5, 7])
    w = killed.project([1, 1, 1, 1])
    both = killed.project([3, 4, 6, 8])
    assert both == vadd(f.characteristic, v, w)


def test_rref_idempotent():
    m = Matrix(QQ, [[2, 4, 6], [1, 2, 3], [0, 0, 5]])
    r, piv = m.rref()
    assert r.rref() == (r, piv)
    assert r.rank() == m.rank() == 2
    assert piv == (0, 2)


def _assert_rref_of(f, rows, sub):
    """sub is the span of rows over GF(p) or Q: the naive rank, every row
    inside, and a canonical basis in reduced row echelon form (increasing
    pivots, each a 1 with zeros before it and in every other row's pivot
    column; residues over GF(p))."""
    p = f.characteristic
    basis, piv = sub.basis_vectors(), sub.pivots
    assert sub.dim == len(basis) == naive_rank(p, rows)
    assert list(piv) == sorted(set(piv))
    for i, (row, q) in enumerate(zip(basis, piv)):
        assert row[q] == 1 and not any(row[:q])
        assert not p or all(0 <= x < p for x in row)
        assert all(basis[k][q] == 0 for k in range(len(basis)) if k != i)
    for v in rows:
        assert not any(sub.reduce(v))


def test_gf2_subspace_matches_naive_rank():
    f = field_of("GF(2)")
    rng = random.Random(99)
    rows = [[rng.randrange(2) for _ in range(9)] for _ in range(6)]
    a = Subspace.from_vectors(f, 9, rows)
    _assert_rref_of(f, rows, a)
    assert a == Subspace.from_vectors(f, 9, rows[::-1])


def test_matrix_operations():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert (a @ b) == Matrix(QQ, [[2, 1], [4, 3]])
    assert a.transpose().transpose() == a
    assert a.shape == (2, 2)
    assert a.apply([1, 0]) == [Fraction(1), Fraction(3)]
    with pytest.raises(DimensionMismatch):
        a @ Matrix(QQ, [[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        a.apply([1, 2, 3])


@pytest.mark.parametrize("spec", FIELDS)
def test_span_incremental_matches_batch(spec):
    f = field_of(spec)
    rng = random.Random(5)
    vecs = [[f.random_scalar(rng) for _ in range(8)] for _ in range(12)]
    s = Subspace.from_vectors(f, 8, iter(vecs))
    assert s == Subspace.from_vectors(f, 8, vecs)
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert Subspace.from_vectors(f, 8, shuffled) == s


def test_span_incremental_edge_cases():
    s = Subspace.from_vectors(QQ, 5, [])
    assert s.dim == 0 and s.ambient == 5
    # wrong-length dense vectors, as lists and as integer arrays, on every
    # backend: Q, packed GF(2) and GF(p)
    for spec in FIELDS:
        for bad in ([[1, 2, 3]], np.ones((2, 3), np.int64), np.ones(5, np.int64)):
            with pytest.raises(DimensionMismatch):
                Subspace.from_vectors(field_of(spec), 5, bad)


@pytest.mark.parametrize("spec", FIELDS)
def test_quotient_round_trip(spec):
    # v - section(project(v)) always lands back in the killed subspace
    f = field_of(spec)
    rng = random.Random(17)
    killed = Subspace.from_vectors(
        f, 7, [[f.random_scalar(rng) for _ in range(7)] for _ in range(3)]
    )
    for _ in range(40):
        v = [f.random_scalar(rng) for _ in range(7)]
        w = killed.section(killed.project(v))
        diff = vsub(f.characteristic, v, w)
        assert killed.contains(diff)


def _sparse_generators(rng, ambient, count, bases, p):
    """count generators of rank at most bases: each is a random combination
    of one to four sparse base vectors, written as raw (coordinate, value)
    terms, so coordinates repeat and values range over [-p**2, p**2)."""
    base = [
        [(rng.randrange(ambient), rng.randrange(1, p)) for _ in range(rng.randint(1, 6))]
        for _ in range(bases)
    ]
    gens = []
    for _ in range(count):
        terms = []
        for b in rng.sample(base, rng.randint(1, min(4, bases))):
            s = rng.randrange(-p + 1, p)
            terms += [(c, s * v) for c, v in b]
        gens.append(terms)
    return gens


def _arrays(gens):
    """Generators given as lists of (coordinate, value) terms, as the flat
    (cols, vals, lens) arrays add_pairs takes."""
    terms = [t for g in gens for t in g]
    cols = np.array([c for c, _ in terms], dtype=np.int64)
    vals = [v for _, v in terms]
    vals = np.array(vals, dtype=object if any(abs(v) >= 2**62 for v in vals) else np.int64)
    return cols, vals, np.array([len(g) for g in gens], dtype=np.int64)


def _fold_in_blocks(acc, gens, block, limit=None):
    for i in range(0, len(gens), block):
        acc.add_pairs(*_arrays(gens[i : i + block]), limit)
    return acc


def _dense(ambient, terms):
    v = [0] * ambient
    for c, x in terms:
        v[c] += x
    return v


@pytest.mark.parametrize("size", [9, 40, 128, 512])
def test_gf2_rref_and_fold_match_naive_randomized(size):
    f = field_of("GF(2)")
    rng = random.Random(size)
    reps = 3 if size <= 128 else 1
    for _ in range(reps):
        nrows = rng.randint(max(1, size - 5), size)
        rows = [[rng.randrange(2) for _ in range(size)] for _ in range(nrows)]
        red, piv = Matrix(f, rows, size).rref()
        sub = Subspace.from_vectors(f, size, rows)
        _assert_rref_of(f, rows, sub)
        assert red.rows == sub.basis_vectors() and piv == sub.pivots
        # sparse generator blocks through add_pairs, against the naive rank
        # of the same generators written densely
        gens = _sparse_generators(rng, size, 2 * size, size - size // 4, 2)
        block = rng.choice([1, 7, 64])
        acc = _fold_in_blocks(SpanAccumulator(f, size), gens, block)
        _assert_rref_of(f, [_dense(size, g) for g in gens], acc.to_subspace())


def test_gf2_fold_keeps_parity_past_the_byte():
    # 256 or more repeats of one coordinate wrap a uint8 sum; only the
    # parity of the count may decide the residue, on a free column (the
    # scatter-add) and on a pivot column (the XOR gather of K rows)
    f = field_of("GF(2)")
    first = [(1, 1), (3, 1)]
    for repeats, value in ((256, 1), (257, 1), (300, 3), (511, 1), (2, 257)):
        gen = [(1, value)] * repeats + [(2, 1)]
        for gens in ([gen], [first, gen]):
            acc = _fold_in_blocks(SpanAccumulator(f, 4), gens, 1)
            dense = [_dense(4, g) for g in gens]
            _assert_rref_of(f, dense, acc.to_subspace())
            assert acc.to_subspace() == Subspace.from_vectors(f, 4, dense)


def _greedy_independent_gf2(rows):
    """The indices of the rows that are independent of the rows before
    them over GF(2), by elimination on Python-int bit rows."""
    lead_rows, out = {}, []
    for i, r in enumerate(rows):
        v = sum(1 << c for c, x in enumerate(r) if x % 2)
        while v and v.bit_length() in lead_rows:
            v ^= lead_rows[v.bit_length()]
        if v:
            lead_rows[v.bit_length()] = v
            out.append(i)
    return out


# around the 64-column words of the packed GF(2) fold
@pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129, 200])
def test_packed_gf2_fold_against_textbook_elimination(monkeypatch, width):
    f = field_of("GF(2)")
    rng = random.Random(width)
    compactions = []
    narrow = linalg._EchelonGF2._narrow

    def spy(self, live, out):
        compactions.append(len(live) < len(self._cols))
        narrow(self, live, out)

    monkeypatch.setattr(linalg._EchelonGF2, "_narrow", spy)
    for _ in range(1 if width > 100 else 3):
        # rank below the width and twice as many generators, folded in
        # small blocks: more than half the columns die mid-stream, and K
        # is compacted between blocks
        bases = max(1, width - 1 - rng.randrange(3))
        gens = _sparse_generators(rng, width, 2 * width + 2, bases, 2)
        dense = [_dense(width, g) for g in gens]
        block = rng.choice([1, 3, 17])
        compactions.clear()
        acc = _fold_in_blocks(SpanAccumulator(f, width), gens, block)
        assert width == 1 or any(compactions)
        sub = acc.to_subspace()
        picks = _greedy_independent_gf2(dense)
        assert sub.dim == len(picks) == naive_rank(2, dense)
        assert (sub.basis_vectors(), sub.pivots) == naive_rref(2, [dense[i] for i in picks])
        # one block, stopped by limit between two of its pivots
        limit = rng.randint(1, sub.dim - 1) if sub.dim > 1 else sub.dim
        acc, picked = SpanAccumulator(f, width), []
        assert acc.add_pairs(*_arrays(gens), limit, picked) == limit == acc.dim
        assert picked == picks[:limit]
        part = acc.to_subspace()
        assert (part.basis_vectors(), part.pivots) == naive_rref(2, [dense[i] for i in picked])


def _dot(f, xs, ys):
    return _norm(f.characteristic,
                 sum((f.coerce(x) * f.coerce(y) for x, y in zip(xs, ys)), f.zero))


def _times_k(f, k, v):
    """v K / scale evaluated entry by entry in field scalars."""
    inv = f.coerce(Fraction(1, k.scale))
    return [
        _norm(f.characteristic, _dot(f, v, [int(x) for x in k.arr[:, j]]) * inv)
        for j in range(k.shape[1])
    ]


def _rows_not_killed(f, killed, fmap):
    """Pivot columns of the killed basis rows r with r F != 0."""
    cols = list(zip(*fmap))
    return [
        p for p, row in zip(killed.pivots, killed.basis_vectors())
        if any(not f.is_zero(_dot(f, row, col)) for col in cols)
    ]


def _span_row_by_row(f, ambient, rows):
    """The span of rows, each folded as its own block, so every row after
    the first is reduced through the rows of K gathered so far."""
    acc = SpanAccumulator(f, ambient)
    for row in rows:
        acc.add_vectors([row])
    return acc.to_subspace()


# (field, per_row): over GF(2), where a gather through K is an XOR, the
# span is built both in one block and row by row, and the two K must agree;
# per_row says which of the two builds is the killed span
K_BUILDS = [("Q", None), ("GF(3)", None), ("GF(2)", True), ("GF(2)", False)]


@pytest.mark.parametrize("spec,per_row", K_BUILDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    ambient=st.integers(1, 12),
    nrows=st.integers(0, 7),
)
def test_projection_matrix_against_reduce(spec, per_row, seed, ambient, nrows):
    f = field_of(spec)
    rng = random.Random(seed)
    rows = [[f.random_scalar(rng) for _ in range(ambient)] for _ in range(nrows)]
    builds = (Subspace.from_vectors, _span_row_by_row)
    killed = builds[bool(per_row)](f, ambient, rows)
    k = killed.projection()
    assert k.shape == (ambient, len(killed.free))
    if per_row is not None:
        other = builds[not per_row](f, ambient, rows)
        assert (other.projection().arr == k.arr).all()
    for _ in range(4):
        v = [f.random_scalar(rng) for _ in range(ambient)]
        red = killed.reduce(v)
        want = [red[c] for c in killed.free]
        assert _times_k(f, k, v) == want
        assert killed.project(v) == want
    # F = K A / scale factors through the quotient, so it kills the span;
    # a random F usually does not
    width = rng.randint(1, 3)
    a = [[f.random_scalar(rng) for _ in range(width)] for _ in range(len(killed.free))]
    a_cols = list(zip(*a)) or [()] * width
    units = [[f.one if t == i else f.zero for t in range(ambient)]
             for i in range(ambient)]
    through = [[_dot(f, _times_k(f, k, e), col) for col in a_cols]
               for e in units]
    noise = [[f.random_scalar(rng) for _ in range(width)] for _ in range(ambient)]
    for fmap in (through, noise):
        wit = killed.kill_witness(exact_tensor(f, fmap))
        bad = _rows_not_killed(f, killed, fmap)
        assert (wit is None) == (not bad)
        if wit is not None:
            assert wit in bad


def test_block_fold_keeps_its_canonical_form_after_a_dependent_block():
    f = field_of("GF(5)")
    acc = SpanAccumulator(f, 6)
    acc.add_pairs(*_arrays([[(0, 1), (3, 2)], [(1, 1)]]))
    first = acc.to_subspace()
    # in-span generators (one of them sums to zero) make room for pivots
    # that never come
    acc.add_pairs(*_arrays(
        [[(0, 2), (3, 4)], [(1, 3), (1, 2)], [(0, 1), (3, 2), (1, 4)]] * 10
    ))
    again = acc.to_subspace()
    assert again == first
    assert again.basis_vectors() == first.basis_vectors()
    assert again.projection().shape == (6, 4)


def test_gfp_fold_chunks_a_wide_block_by_rows_and_terms(monkeypatch):
    # the 196 slabs of the 14-dim carrier of a dense sl3/GF(3) cube, one
    # generator of up to 196 terms each, as the derivation witness folds
    # them (rank 7): a chunk is as many generators as there are residual
    # rows, and terms, that fit one block temporary, so the block takes
    # few chunks and no temporary outgrows _BLOCK_BYTES
    e = lts_tensor_cube(derived_lts(rebased_sl3(0))).algebra
    d = e.dim
    by_slab = e.tensor().arr.transpose(1, 2, 0, 3).reshape(d * d, d * d)
    g, c = by_slab.nonzero()
    acc = SpanAccumulator(e.field, d * d)
    room = acc._ech._room()
    residuals = linalg._EchelonGFp._residuals
    chunks = []

    def spy(self, cols, vals, lens, room):
        out = residuals(self, cols, vals, lens, room)
        chunks.append((out.nbytes, cols.nbytes, vals.nbytes))
        return out

    monkeypatch.setattr(linalg._EchelonGFp, "_residuals", spy)
    acc.add_pairs(c, by_slab[g, c], np.bincount(g, minlength=d * d))
    assert (d, acc.dim) == (14, 7)
    assert len(chunks) <= -(-d * d // room)
    assert max(max(chunk) for chunk in chunks) <= linalg._BLOCK_BYTES


# up to the modulus limit: products of two residues approach 2**62; over Q
# terms near 2**40 send K to python ints in the middle of the fold
@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(65521)", "GF(2147483647)", "Q"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    ambient=st.integers(1, 16),
    count=st.integers(0, 40),
    block=st.integers(1, 9),
)
def test_block_fold_exact_to_the_modulus_limit(spec, seed, ambient, count, block):
    f = field_of(spec)
    p = f.characteristic
    rng = random.Random(seed)
    gens = _sparse_generators(rng, ambient, count, rng.randint(1, ambient), p or 2**20)
    dense = [_dense(ambient, g) for g in gens]
    rank = naive_rank(p, dense)
    acc = _fold_in_blocks(SpanAccumulator(f, ambient), gens, block)
    sub = acc.to_subspace()
    _assert_rref_of(f, dense, sub)
    # a limit stops the fold mid-block on a subspace of the full span
    limit = rng.randint(0, rank)
    part = _fold_in_blocks(SpanAccumulator(f, ambient), gens, block, limit)
    assert part.dim == limit
    for v in part.to_subspace().basis_vectors():
        assert sub.contains(v)


def test_rational_fold_past_int64_keeps_a_positive_scale():
    big = 2**70
    # a residual of one python-int entry, negative: the reduce of that one
    # entry is the entry itself, not its absolute value
    assert Subspace.from_vectors(QQ, 1, [[-3 * big]]) == Subspace.from_vectors(QQ, 1, [[1]])
    # a scale past int64, then a block of generators without terms
    acc = SpanAccumulator(QQ, 2)
    acc.add_vectors([[big, 1]])
    assert acc.to_subspace().k.scale == big
    assert acc.add_pairs(np.zeros(0, np.int64), np.zeros(0, np.int64), [0, 0]) == 0
    assert acc.to_subspace() == Subspace.from_vectors(QQ, 2, [[big, 1]])


def _assert_same_subspace(rng, got, want):
    """got and want are one subspace, down to every view of the K-form."""
    f, n = want.field, want.ambient
    assert got == want and got.equals(want) and hash(got) == hash(want)
    assert (got.pivots, got.free) == (want.pivots, want.free)
    assert got.k.scale == want.k.scale and got.k.arr.dtype == want.k.arr.dtype
    assert got.basis_vectors() == want.basis_vectors()
    for _ in range(3):
        v = [f.random_scalar(rng) for _ in range(n)]
        assert got.reduce(v) == want.reduce(v)
    a, b = got.projection(), want.projection()
    assert a.scale == b.scale and np.array_equal(a.arr, b.arr)


def _left_kernel_by_fold(arr):
    """{x : x arr = 0} by the exact fold: the kernel of arr's transpose."""
    return kernel(Matrix(QQ, arr.T.tolist(), arr.shape[0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    ambient=st.integers(1, 9),
    rank=st.integers(1, 9),
    bits=st.sampled_from([2, 40]),
)
def test_left_kernel_is_the_exact_fold(seed, ambient, rank, bits):
    # route A reads the K-form off arr; the exact fold reaches it through
    # primitive rows: the two must agree on everything, object K included
    rng = random.Random(seed)
    rank = min(rank, ambient)
    top = 2**bits
    arr = np.array([[rng.randint(-top, top) for _ in range(rank)]
                    for _ in range(ambient)], dtype=object)
    assume(Matrix(QQ, arr.tolist()).rank() == rank)
    want = _left_kernel_by_fold(arr)
    _assert_same_subspace(rng, left_kernel(arr, want.free), want)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(2147483647)"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), ambient=st.integers(1, 9), rank=st.integers(1, 9))
def test_left_kernel_over_gfp_is_the_fold(spec, seed, ambient, rank):
    # over GF(p) too, left_kernel reads off arr what the fold reaches, takes
    # only the canonical free rows, and quotient_kernel picks those itself
    f = field_of(spec)
    rng = random.Random(seed)
    rank = min(rank, ambient)
    arr = np.array([[rng.randrange(f.p) for _ in range(rank)] for _ in range(ambient)],
                   dtype=np.int64)
    assume(Matrix.from_raw(f, arr).rank() == rank)
    want = kernel(Matrix.from_raw(f, arr.T.copy()))
    _assert_same_subspace(rng, left_kernel(arr, want.free, f), want)
    _assert_same_subspace(rng, linalg.quotient_kernel(f, arr), want)
    others = [c for c in combinations(range(ambient), rank) if c != want.free]
    for free in rng.sample(others, min(len(others), 12)):
        assert left_kernel(arr, free, f) is None, free


@pytest.mark.parametrize("column", [[2**70, 1], [1, 2**70], [3, 2**64 + 1]])
def test_left_kernel_with_python_int_k_forms(column):
    # K = 2**70 (object entries), scale 2**70 (an object projection), and
    # both at once
    rng = random.Random(1)
    arr = np.array([[x] for x in column], dtype=object)
    want = _left_kernel_by_fold(arr)
    got = left_kernel(arr, want.free)
    assert got.k.arr.dtype == object or got.k.scale >= 2**62
    _assert_same_subspace(rng, got, want)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(7)", "Q"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    ambient=st.integers(1, 10),
    nrows=st.integers(0, 8),
)
def test_k_form_against_textbook_rref(spec, seed, ambient, nrows):
    f = field_of(spec)
    p = f.characteristic
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(ambient)] for _ in range(nrows)]
    sub = Subspace.from_vectors(f, ambient, rows)
    basis, piv = naive_rref(p, rows)
    assert (sub.basis_vectors(), sub.pivots) == (basis, piv)
    red, rpiv = Matrix(f, rows, ambient).rref()
    assert (red.rows, rpiv) == (basis, piv)
    for _ in range(3):
        v = [rng.randint(-100, 100) for _ in range(ambient)]
        assert sub.reduce(v) == naive_reduce(p, basis, piv, v)


def test_solve_columns_rejects_a_right_hand_side_of_the_wrong_length():
    m = Matrix(QQ, [[1, 0], [0, 1]])
    for bad in ([[1]], [[1, 2, 99]], [[1, 2], [3]]):
        with pytest.raises(DimensionMismatch):
            solve_columns(m, bad)
    assert solve_columns(m, [[1, 2]]) == [[1, 2]]


def test_matrix_entries_are_canonical():
    f = field_of("GF(3)")
    assert Matrix(f, [[4]]) == Matrix(f, [[1]])
    assert Matrix(f, [[4, -1]]).rows == [[1, 2]]
    half = Matrix(QQ, [["1/2"]])
    assert half == Matrix(QQ, [[Fraction(1, 2)]])
    assert half.rows == [[Fraction(1, 2)]] and half.rank() == 1
    assert (half @ half).rows == [[Fraction(1, 4)]]
    # an all-zero product keeps scale 1 however large its factors' scales
    tiny = Fraction(1, 2**40)
    zero = Matrix(QQ, [[tiny, 0]]) @ Matrix(QQ, [[0], [tiny]])
    assert zero == Matrix(QQ, [[0]]) and zero.tensor().scale == 1


def _random_matrix(f, rng, nrows, ncols, top):
    """A random nrows x ncols matrix of rank at most a random r, as the
    textbook product of two random factors; half their entries are zero,
    the rest of size up to top (over Q, with denominators up to 12)."""
    def scalar():
        if rng.random() < 0.5:
            return f.zero
        x = rng.randint(-top, top)
        return f.coerce(x) if f.characteristic else Fraction(x, rng.randint(1, 12))

    r = rng.randint(0, min(nrows, ncols))
    a = [[scalar() for _ in range(r)] for _ in range(nrows)]
    b = [[scalar() for _ in range(ncols)] for _ in range(r)]
    return Matrix(f, _textbook_product(f, a, b, ncols), ncols)


def _textbook_product(f, a, b, ncols):
    return [[_dot(f, row, [r[j] for r in b]) for j in range(ncols)] for row in a]


def _null_space(f, rows, ncols):
    """The null space of rows by textbook Gauss-Jordan: one vector per
    free column j, 1 there and -R[:, j] on the pivots."""
    p = f.characteristic
    basis, piv = naive_rref(p, rows)
    vecs = []
    for j in (c for c in range(ncols) if c not in piv):
        v = [f.zero] * ncols
        v[j] = f.one
        for row, q in zip(basis, piv):
            v[q] = f.coerce(-row[j])
        vecs.append(v)
    return Subspace.from_vectors(f, ncols, vecs), len(piv)


# Q entries up to 2**70 run the object-dtype route of every contraction
@pytest.mark.parametrize("spec", ["GF(2)", "GF(7)", "Q"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    nrows=st.integers(1, 5),
    ncols=st.integers(1, 5),
    big=st.booleans(),
)
def test_dense_layer_against_textbook_algebra(spec, seed, nrows, ncols, big):
    f = field_of(spec)
    p = f.characteristic
    rng = random.Random(seed)
    top = 2**70 if big else 9
    m = _random_matrix(f, rng, nrows, ncols, top)
    rows = m.rows
    assert Matrix(f, rows) == m
    other = _random_matrix(f, rng, ncols, rng.randint(1, 4), top)
    assert (m @ other).rows == _textbook_product(f, rows, other.rows, other.ncols)

    ker = kernel(m)
    want, rank = _null_space(f, rows, ncols)
    assert ker == want and ker.dim == ncols - rank == ncols - m.rank()

    if rank == nrows:
        assert m @ right_inverse(m) == Matrix.identity(f, nrows)
    else:
        with pytest.raises(DimensionMismatch):
            right_inverse(m)

    rhs = [m.apply([f.coerce(rng.randint(-top, top)) for _ in range(ncols)])]
    rhs += [[f.coerce(rng.randint(-9, 9)) for _ in range(nrows)] for _ in range(3)]
    for b, x in zip(rhs, solve_columns(m, rhs)):
        aug = [row + [t] for row, t in zip(rows, b)]
        assert (x is None) == (naive_rank(p, aug) > rank)
        assert x is None or m.apply(x) == b

    u = Subspace.from_vectors(f, ncols, rows)
    w_rows = _random_matrix(f, rng, rng.randint(1, 5), ncols, top).rows
    w = Subspace.from_vectors(f, ncols, w_rows)
    s, i = u.sum_with(w), u.intersect(w)
    assert s.dim == naive_rank(p, rows + w_rows)
    assert u.dim + w.dim == s.dim + i.dim
    assert i.is_subspace_of(u) and i.is_subspace_of(w)
    assert u.is_subspace_of(s) and w.is_subspace_of(s)
    assert u.is_subspace_of(w) == (naive_rank(p, w_rows + rows) == w.dim)

    image = u.image_under(other.transpose())
    by_row = [_textbook_product(f, [v], other.rows, other.ncols)[0]
              for v in u.basis_vectors()]
    assert image == Subspace.from_vectors(f, other.ncols, by_row)
    assert image == Subspace.from_vectors(
        f, other.ncols, [other.transpose().apply(v) for v in u.basis_vectors()]
    )
