"""Every exact contraction route against the object route.

tensorops picks float64 BLAS while a contraction's bound stays below 2**52,
int64 below 2**62 and python ints beyond. Here each route that its bound
allows is forced in turn and compared entry by entry with the python-int
route, which is exact by construction. The identity witnesses and the
tables also have a sparse route, from the nonzeros of their tensors: it is
forced in turn against the dense one, and both against the naive checks or
an exact einsum.
"""

import random
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import rebased_sl3, rebased_ternary
from naive_checks import naive_derivation_witness

from uce3 import QQ, PrimeField, catalog, derived_lts, field_of, lts_tensor_cube
from uce3 import tensorops
from uce3.tensorops import (
    _F64_LIMIT,
    _I64_LIMIT,
    ExactTensor,
    _spanning_slabs,
    escaping_generators,
    exact_tensor,
    exact_tensordot,
    lts_derivation_witness,
    rescaled,
    unscale,
)

# (modulus or None, bits of the largest entry): residues of small, medium
# and the largest supported prime, and integers over Q whose products pass
# 2**52 (the int64 route), 2**62 (python ints) and int64 storage itself
CASES = [
    (3, None), (65521, None), (2**31 - 1, None),
    (None, 27), (None, 32), (None, 70),
]


def _entries(rng, shape, p, bits):
    n = int(np.prod(shape))
    if p is not None:
        vals = [rng.randrange(p) for _ in range(n)]
    else:
        vals = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
    # a third of the entries zero, as in structure constants
    vals = [0 if rng.random() < 0.33 else v for v in vals]
    dtype = object if max(map(abs, vals), default=0) >= 2**62 else np.int64
    return np.array(vals, dtype=dtype).reshape(shape)


def _allowed(k, a, b):
    """The routes exact for sums of k products of entries of a and b."""
    bound = k * tensorops._maxabs(a) * tensorops._maxabs(b)
    plain = a.dtype != object and b.dtype != object
    routes = [dt for dt, limit in ((np.float64, _F64_LIMIT), (np.int64, _I64_LIMIT))
              if plain and bound < limit]
    return routes + [object]


def _forced(dtype):
    return mock.patch.object(tensorops, "_contraction_dtype",
                             lambda k, a, b: dtype)


def _routed(sparse):
    return mock.patch.object(tensorops, "_sparse_route",
                             lambda products, dense: sparse)


def _same(x, y):
    return x.shape == y.shape and (
        np.asarray(x, dtype=object) == np.asarray(y, dtype=object)).all()


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**31),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4),
                   st.integers(1, 3)),
    two_axes=st.booleans(),
    reduce=st.booleans(),
)
def test_exact_tensordot_routes_match_the_object_route(p, bits, seed, dims,
                                                       two_axes, reduce):
    rng = random.Random(seed)
    m, k, w, k2 = dims
    if two_axes:
        a = _entries(rng, (m, k, k2), p, bits)
        b = _entries(rng, (k, k2, w), p, bits)
        axes, terms = ([1, 2], [0, 1]), k * k2
    else:
        a = _entries(rng, (m, k), p, bits)
        b = _entries(rng, (k, w), p, bits)
        axes, terms = ([1], [0]), k
    mod = p if reduce else None
    with _forced(object):
        want = exact_tensordot(a, b, axes, mod)
    if mod is not None:
        assert (want >= 0).all() and (want < mod).all()
    for dtype in _allowed(terms, a, b):
        with _forced(dtype):
            assert _same(exact_tensordot(a, b, axes, mod), want), dtype
    assert _same(exact_tensordot(a, b, axes, mod), want)


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), count=st.integers(0, 40),
       ambient=st.integers(1, 9), width=st.integers(0, 4))
def test_escaping_generators_routes_match_python_sums(p, bits, seed, count,
                                                      ambient, width):
    # the gather-sum behind the ev check and the certificate over Q: the
    # generators whose product with m is not zero, summed in python ints
    rng = random.Random(seed)
    m = _entries(rng, (ambient, width), p, bits)
    lens = np.array([rng.randrange(6) for _ in range(count)], dtype=np.int64)
    cols = np.array([rng.randrange(ambient) for _ in range(int(lens.sum()))],
                    dtype=np.int64)
    vals = _entries(rng, (len(cols),), p, bits)
    # a last generator whose two terms cancel: its product is zero
    if len(cols):
        cols = np.concatenate([cols, cols[:1], cols[:1]])
        vals = np.concatenate([vals, vals[:1], -vals[:1]])
        lens = np.concatenate([lens, [2]])
    want, t = [], 0
    for g, n in enumerate(lens.tolist()):
        row = [sum(int(vals[i]) * int(m[cols[i], j]) for i in range(t, t + n))
               for j in range(width)]
        if any(row):
            want.append(g)
        t += n
    k = int(lens.max()) if len(lens) else 1
    for dtype in _allowed(k, vals, m):
        with _forced(dtype):
            assert escaping_generators(cols, vals, lens, m).tolist() == want
    assert escaping_generators(cols, vals, lens, m).tolist() == want


def test_the_bound_reaches_every_route():
    # the cases above cover each route: residues of 3 fit float64, 2**27
    # entries only int64, 2**32 entries and p = 2**31 - 1 only python ints
    small = np.full((2, 2), 2, dtype=np.int64)
    assert _allowed(2, small, small)[0] is np.float64
    mid = np.full((2, 2), 2**27, dtype=np.int64)
    assert _allowed(2, mid, mid) == [np.int64, object]
    for big in (np.full((2, 2), 2**32, dtype=np.int64),
                np.full((2, 2), 2**31 - 2, dtype=np.int64)):
        assert _allowed(2, big, big) == [object]


def _witness_on_every_route(t):
    d = t.arr.shape[0]
    with _forced(object), _routed(False):
        want = lts_derivation_witness(t)
    for dtype in _allowed(4 * d, t.arr, t.arr):
        with _forced(dtype), _routed(False):
            assert lts_derivation_witness(t) == want, dtype
    with _routed(True):
        assert lts_derivation_witness(t) == want, "sparse"
    assert lts_derivation_witness(t) == want
    return want


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), d=st.integers(2, 3),
       density=st.sampled_from([0.05, 0.3, 1.0]))
def test_derivation_witness_is_the_same_on_every_route(p, bits, seed, d,
                                                       density):
    rng = random.Random(seed)
    arr = _entries(rng, (d, d, d, d), p, bits)
    # sparse tensors move the first defect away from (0, 0, 0, 0, 0)
    arr[np.array([rng.random() > density for _ in range(d**4)]).reshape(arr.shape)] = 0
    _witness_on_every_route(ExactTensor(arr, 1, p))


@pytest.mark.parametrize("p,bits", CASES)
def test_derivation_witness_of_an_lts_and_of_a_defect(p, bits):
    f = QQ if p is None else field_of(f"GF({p})")
    arr = derived_lts(catalog("sl2", f)).tensor().arr
    if p is None:
        # the same LTS, its entries (at most 4) scaled to about 2**bits
        arr = arr.astype(object) * 2 ** (bits - 2)
        if bits < 62:
            arr = arr.astype(np.int64)
    assert _witness_on_every_route(ExactTensor(arr, 1, p)) is None
    bad = arr.copy()
    bad[1, 2, 0, 1] += 1
    if p is not None:
        bad %= p
    assert _witness_on_every_route(ExactTensor(bad, 1, p)) is not None


def test_derivation_witness_of_a_perturbed_sl3_on_every_route():
    # the 42 nonzero slabs of the derived sl3 LTS span 7 dimensions, so
    # every forced route checks a strict subset of them
    arr = derived_lts(catalog("sl3", field_of("GF(3)"))).tensor().arr.copy()
    assert len(_spanning_slabs(ExactTensor(arr, 1, 3))) == 7
    arr[4, 1, 2, 6] = (arr[4, 1, 2, 6] + 1) % 3
    want = naive_derivation_witness(3, arr.tolist())
    assert want is not None
    assert _witness_on_every_route(ExactTensor(arr, 1, 3)) == want


def _rebased_sl2_lts(rng, extra):
    """The derived LTS of sl2 plus extra central coordinates, in a random
    unitriangular basis: an LTS over every field, whose nonzero slabs are
    many but span at most 3 dimensions."""
    d = 3 + extra
    t = np.zeros((d,) * 4, dtype=object)
    t[:3, :3, :3, :3] = derived_lts(catalog("sl2", QQ)).tensor().arr
    return rebased_ternary(rng, t), 3


def _combined_slabs(rng, d, rank):
    """A tensor whose (a, b) slabs are integer combinations of rank random
    d x d matrices, about half of the slabs zero."""
    basis = [np.array([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)],
                      dtype=object) for _ in range(rank)]
    t = np.zeros((d,) * 4, dtype=object)
    for a in range(d):
        for b in range(d):
            if rng.random() < 0.5:
                t[:, a, b, :] = sum(rng.randint(-2, 2) * m for m in basis)
    return t, rank


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, None])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), lts=st.booleans(), extra=st.integers(0, 2),
       rank=st.integers(1, 3), defect=st.booleans(), lead=st.booleans())
def test_derivation_witness_on_spanning_slabs_is_the_full_loop_witness(
        p, seed, lts, extra, rank, defect, lead):
    rng = random.Random(seed)
    if lts:
        arr, span = _rebased_sl2_lts(rng, extra)
    else:
        arr, span = _combined_slabs(rng, 2 + extra, rank)
    if defect:
        # one entry moved: its slab leaves the span by at most one dimension
        arr[tuple(rng.randrange(len(arr)) for _ in range(4))] += rng.randint(1, 5)
        span += 1
    if lead:
        # a direct sum with an LTS on the first coordinates: its slabs come
        # first in (a, b) order and pass, so a defect lies past them
        head, more = _rebased_sl2_lts(rng, 0)
        k = len(head)
        arr, tail = np.zeros((k + len(arr),) * 4, dtype=object), arr
        arr[:k, :k, :k, :k] = head
        arr[k:, k:, k:, k:] = tail
        span += more
    arr = np.array((arr % p if p else arr).tolist(), dtype=np.int64)
    t = ExactTensor(arr, 1, p)
    assert len(_spanning_slabs(t)) <= span
    want = naive_derivation_witness(p or 0, arr.tolist())
    assert _witness_on_every_route(t) == want
    if lts and not defect:
        assert want is None


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), den=st.integers(1, 2**40),
       common=st.sampled_from([1, 2, 6, 2**20]),
       dims=st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_rescaled_is_the_exact_tensor_of_the_field_scalars(p, bits, seed, den,
                                                           common, dims):
    # raw / den read as field scalars and converted back by exact_tensor
    # must give the very array, dtype and scale rescaled keeps
    f = QQ if p is None else PrimeField(p)
    raw = _entries(random.Random(seed), tuple(dims), p, bits)
    if p is None:
        # a factor shared by raw and den, which rescaled divides out
        raw, den = raw * common, den * common
    else:
        # unreduced, as a contraction leaves it
        raw, den = raw * 3 - 5 * p, 1
    want = exact_tensor(f, unscale(f, raw, den))
    got = rescaled(f, raw.copy(), den)
    assert (got.scale, got.p, got.arr.dtype) == (want.scale, want.p, want.arr.dtype)
    assert _same(got.arr, want.arr)


def _tensor(rng, shape, p, bits, density):
    """A random ExactTensor of the given shape and density; over Q with a
    random scale, which the witnesses cross-multiply."""
    arr = _entries(rng, shape, p, bits)
    arr[np.array([rng.random() > density for _ in range(arr.size)],
                 dtype=bool).reshape(shape)] = 0
    return ExactTensor(arr, 1 if p else rng.randint(1, 6), p)


def _witness_calls(rng, p, bits, n, density):
    """(name, call) for every witness with a sparse route, on random
    tensors of dimension n (the carrier m of an extension one more)."""
    def t(*shape):
        return _tensor(rng, shape, p, bits, density)

    m = n + 1
    c, tern, act, small = t(n, n, n), t(n, n, n, n), t(m, n, m), t(n, n, n)
    arity = rng.choice((2, 3))
    ext, base, proj = t(*(m,) * (arity + 1)), t(*(n,) * (arity + 1)), t(n, m)
    slot, cube, zmat, fmat = rng.randrange(3), t(m, m, m, m), t(2, m), t(n, m)
    return [
        ("leibniz", lambda: tensorops.leibniz_witness(c)),
        ("jacobi", lambda: tensorops.jacobi_witness(c)),
        ("lts_cyclic", lambda: tensorops.lts_cyclic_witness(tern)),
        ("lts_derivation", lambda: lts_derivation_witness(tern)),
        ("derived_mismatch", lambda: tensorops.derived_mismatch_witness(tern, c)),
        ("morphism", lambda: tensorops.morphism_witness(ext, base, proj)),
        ("central_slot", lambda: tensorops.central_slot_witness(cube, zmat, slot)),
        ("action_law", lambda: tensorops.action_law_witness(act, c)),
        ("action_derivation",
         lambda: tensorops.action_derivation_witness(small, tern)),
        ("equivariance", lambda: tensorops.equivariance_witness(act, fmat, c)),
    ]


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 4),
       density=st.sampled_from([0.05, 0.2, 0.6, 1.0]))
def test_sparse_and_dense_routes_give_one_witness(p, bits, seed, n, density):
    # each witness of the same tensors, forced onto each route in turn
    for name, call in _witness_calls(random.Random(seed), p, bits, n, density):
        with _routed(False):
            want = call()
        with _routed(True):
            assert call() == want, name


def _table_calls(rng, p, bits, density, dims):
    """(name, call, operands, einsum) for tables of the engine on random
    tensors: chains of _chain_table (the nested bracket, slotwise images in
    two and three slots, a chain contracting two slots of its first tensor)
    and exact_tensordot on one axis, on a middle axis and on two axes. Any
    dimension may be 0, and density 0 makes every operand zero."""
    def t(*shape):
        return _tensor(rng, shape, p, bits, density)

    n0, n1, n2, n3 = dims
    nest, sw, sw3, m = t(n1, n1, n1), t(n1, n1, n2), t(n1, n1, n1, n2), t(n0, n1)
    a, b, c = t(n0, n1, n2), t(n3, n1), t(n2, n0)
    x, y, z, w = t(n0, n1), t(n1, n2), t(n3, n1, n2), t(n1, n2, n3)

    def chain(links, perm):
        return lambda: tensorops._chain_table(links, p, perm)

    def dot(u, v, axes):
        return lambda: exact_tensordot(u.arr, v.arr, axes, p)

    return [
        ("nested", chain((nest, (2, nest, 1)), (0, 1, 2, 3)), [nest, nest],
         "yzk,xkw->xyzw"),
        ("slotwise2", chain((sw, (0, m, 1), (1, m, 1)), (1, 0, 2)), [sw, m, m],
         "abw,ra,sb->rsw"),
        ("slotwise3", chain((sw3, (0, m, 1), (1, m, 1), (2, m, 1)), (2, 1, 0, 3)),
         [sw3, m, m, m], "abcw,ra,sb,tc->rstw"),
        ("two-slot", chain((a, (1, b, 1), (2, c, 0)), (1, 0, 2)), [a, b, c],
         "xyz,uy,zv->xuv"),
        ("tensordot", dot(x, y, ([1], [0])), [x, y], "ik,kj->ij"),
        ("middle", dot(x, z, ([1], [1])), [x, z], "ik,ukv->iuv"),
        ("two-axes", dot(a, w, ([1, 2], [0, 1])), [a, w], "xyz,yzv->xv"),
    ]


# GF(2), the packed fold's field, besides the moduli and bit sizes above
TABLE_CASES = [(2, None)] + CASES


@pytest.mark.parametrize("p,bits", TABLE_CASES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), dims=st.tuples(*[st.integers(0, 4)] * 4),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_sparse_and_dense_routes_give_one_table(p, bits, seed, dims, density):
    # each table forced onto each route, against the exact einsum of the
    # operands in python ints (residues over GF(p), where the table holds
    # int64 residues already), and as canonical tensors of the product scale
    f = QQ if p is None else PrimeField(p)
    for name, call, ops, spec in _table_calls(random.Random(seed), p, bits,
                                              density, dims):
        den = prod(o.scale for o in ops) if p is None else 1
        exact = np.einsum(spec, *(o.arr.astype(object) for o in ops))
        if p is not None:
            exact %= p
        want = rescaled(f, exact, den)
        for sparse in (False, True):
            with _routed(sparse):
                raw = call()
            assert _same(raw, exact) and (p is None or raw.dtype == np.int64), (name, sparse)
            got = rescaled(f, raw, den)
            assert (got.scale, got.arr.dtype) == (want.scale, want.arr.dtype), name
            assert _same(got.arr, want.arr), (name, sparse)


def test_table_sums_past_2_62_stay_exact():
    # each product of 2**30 + 1 and 2**31 - 1 fits int64, the sum of 8 of
    # them does not: the scatter sums them in python ints
    a = np.full((2, 8), 2**30 + 1, dtype=np.int64)
    b = np.full((8, 3), 2**31 - 1, dtype=np.int64)
    want = np.full((2, 3), 8 * (2**30 + 1) * (2**31 - 1), dtype=object)
    assert want[0, 0] >= 2**63
    for sparse in (False, True):
        with _routed(sparse):
            assert _same(exact_tensordot(a, b, ([1], [0])), want), sparse


def _table_routes(build):
    """The route each left_nested and uce._slotwise call of build() took:
    the last decision of the rule inside the call, in a list that is empty
    when the call asked the rule nothing."""
    import uce3.uce as uce_mod

    decisions, taken = [], {"left_nested": [], "_slotwise": []}
    rule = tensorops._sparse_route

    def spy(products, dense):
        decisions.append(rule(products, dense))
        return decisions[-1]

    def recorded(name, builder):
        def call(*args):
            start = len(decisions)
            out = builder(*args)
            taken[name].append(decisions[start:][-1:])
            return out
        return call

    with mock.patch.object(tensorops, "_sparse_route", spy), \
            mock.patch.object(tensorops, "left_nested",
                              recorded("left_nested", tensorops.left_nested)), \
            mock.patch.object(uce_mod, "_slotwise",
                              recorded("_slotwise", uce_mod._slotwise)):
        build()
    return taken


def test_the_rule_takes_each_route_on_real_tables():
    # forced sl4 over GF(2): its derived table and the cube's quotient
    # table are sparse; the re-based sl3 over GF(3), the dense-gf3
    # benchmark's input, stays dense for both
    sl4 = catalog("sl4", field_of("GF(2)"))
    assert _table_routes(lambda: lts_tensor_cube(derived_lts(sl4), force=True)) == {
        "left_nested": [[True]], "_slotwise": [[True]]}
    assert _table_routes(lambda: lts_tensor_cube(derived_lts(rebased_sl3(0)))) == {
        "left_nested": [[False]], "_slotwise": [[False]]}


def _corrupted(rng, arr, p):
    """arr with one seeded entry moved by one (mod p)."""
    bad = arr.copy()
    ix = tuple(rng.randrange(len(arr)) for _ in range(4))
    bad[ix] = (bad[ix] + 1) % p
    return bad


@pytest.mark.parametrize("name,spec,seed", [
    ("sl3", "GF(3)", 0), ("sl3", "GF(3)", 1), ("sl4", "GF(2)", 2),
])
def test_both_routes_find_the_naive_witness_of_a_corrupted_lts(name, spec, seed):
    # a derived LTS and its LTS cube, each with one entry moved
    p = field_of(spec).characteristic
    d = derived_lts(catalog(name, field_of(spec)))
    cube = lts_tensor_cube(d, force=True).algebra
    rng = random.Random(seed)
    for arr in (d.tensor().arr, cube.tensor().arr):
        bad = _corrupted(rng, arr, p)
        want = naive_derivation_witness(p, bad.tolist())
        assert want is not None
        for sparse in (False, True):
            with _routed(sparse):
                assert lts_derivation_witness(ExactTensor(bad, 1, p)) == want


def _route_of_the_derivation_check(t):
    routes = []
    rule = tensorops._sparse_route

    def spy(products, dense):
        routes.append(rule(products, dense))
        return routes[-1]

    with mock.patch.object(tensorops, "_sparse_route", spy):
        lts_derivation_witness(ExactTensor(t.arr.copy(), t.scale, t.p))
    # the last call decides; _cost asks first whether counting can matter
    return routes[-1:]


def test_the_rule_takes_each_route_on_a_real_cube():
    # the LTS cube of forced sl4 over GF(2) is 0.5% nonzero: sparse; the
    # cube of the re-based sl3 over GF(3) is 2.5% nonzero, but its 7 slabs
    # meet 828,188 pairs of nonzeros, against 15,059,072 multiply-adds
    # dense: dense
    sl4 = lts_tensor_cube(derived_lts(catalog("sl4", field_of("GF(2)"))), force=True)
    assert _route_of_the_derivation_check(sl4.algebra.tensor()) == [True]
    cube = lts_tensor_cube(derived_lts(rebased_sl3(0))).algebra
    assert _route_of_the_derivation_check(cube.tensor()) == [False]


def test_an_array_with_a_sparse_view_is_read_only():
    arr = np.arange(8, dtype=np.int64).reshape(2, 2, 2) % 3
    t = ExactTensor(arr, 1, 3)
    arr[0, 0, 0] = 2
    coords, vals = t.sparse()
    assert vals.tolist() == [2, 1, 2, 1, 2, 1]
    with pytest.raises(ValueError):
        arr[0, 0, 1] = 0
    with pytest.raises(ValueError):
        t.arr += 1
    assert t.sparse() is t.sparse()


@pytest.mark.parametrize("p,bits", CASES)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31), d=st.integers(1, 4),
       density=st.sampled_from([0.1, 0.5, 1.0]))
def test_jacobiator_terms_are_the_sums_on_every_route(p, bits, seed, d, density):
    # the nonzero sums of the Jacobi chain, on each route, against the
    # sum of the three rotations of an exact einsum of [x,[y,z]]
    rng = random.Random(seed)
    arr = _entries(rng, (d, d, d), p, bits)
    arr[np.array([rng.random() > density for _ in range(d**3)]).reshape(arr.shape)] = 0
    nested = np.einsum("yzu,xuw->xyzw", arr.astype(object), arr.astype(object))
    jac = nested + nested.transpose(1, 2, 0, 3) + nested.transpose(2, 0, 1, 3)
    flat = (jac if p is None else jac % p).reshape(-1, d)
    want = [(r, c, int(flat[r, c])) for r, c in zip(*flat.nonzero())]
    t = ExactTensor(arr, 1, p)
    for dtype in _allowed(d * d, arr, arr):
        for sparse in (False, True):
            with _forced(dtype), _routed(sparse):
                rows, cols, vals = tensorops.jacobiator_terms(t)
            got = [(int(r), int(c), int(v)) for r, c, v in zip(rows, cols, vals)]
            assert got == want, (dtype, sparse)


def test_a_plain_tensor_is_priced_by_its_size_and_nonzeros():
    # the cyclic sum of an LTS cube is three uses of one plain tensor: 3
    # times its size dense, 3 times its nonzeros as products. The cube of
    # forced sl4 over GF(2) (21^4 entries, 0.5% nonzero) takes the sparse
    # route
    cube = lts_tensor_cube(derived_lts(catalog("sl4", field_of("GF(2)"))), force=True)
    t = cube.algebra.tensor()
    t = ExactTensor(t.arr.copy(), t.scale, t.p)
    staged = tensorops._staged([((t,), tensorops._CYCLIC)])
    nnz = int(np.count_nonzero(t.arr))
    assert tensorops._cost(staged) == (3 * nnz, 3 * t.arr.size)
    routes = []
    rule = tensorops._sparse_route

    def spy(products, dense):
        routes.append(rule(products, dense))
        return routes[-1]

    with mock.patch.object(tensorops, "_sparse_route", spy):
        assert tensorops.lts_cyclic_witness(t) is None
    assert routes[-1] is True


@pytest.mark.parametrize("listed", [False, True])
def test_counts_are_kept_with_the_tensor(listed):
    # each axis set is counted once, from the array or from the cached
    # nonzeros, and the array turns read-only so the counts cannot go stale
    rng = random.Random(5)
    arr = _entries(rng, (3, 4, 5), 7, None)
    t = ExactTensor(arr, 1, 7)
    if listed:
        t.sparse()
    passes = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        passes.append(args[2])
        return einsum(*args, **kwargs)

    with mock.patch.object(np, "einsum", counted):
        for axes in ([0, 2], [1], (), [0, 2], [1], ()):
            got = tensorops._counts(t, axes)
            want = np.count_nonzero(arr, axis=tuple(
                a for a in range(3) if a not in axes))
            assert np.array_equal(got, want) and got is tensorops._counts(t, axes)
    assert passes == ([] if listed else [(0, 2), (1,), ()])
    with pytest.raises(ValueError):
        arr[0, 0, 0] = 1
