"""Exact multilinear identity checks on structure-constant tensors.

Axiom checks reduce to contracting a structure tensor with itself and
testing a signed combination for zero. Doing this entrywise in Fraction
arithmetic is exact but slow, so tensors are first put into integer form:

  * over GF(p) entries are canonical residues;
  * over Q the whole tensor is scaled by the lcm of its denominators.

Algebras, subspaces and matrices all hold their entries in this form
(ExactTensor), built by nested_tensor or exact_tensor from field scalars or
by rescaled from a raw contraction; unscale reads field scalars back only
at the API edge (Matrix.rows, basis vectors, reduced and projected
vectors).

Every identity checked here is homogeneous in each input tensor, so a
positive integer rescale never changes a zero/nonzero verdict; checks that
mix tensors with different scales cross-multiply before comparing.

Contractions pick the fastest exact route available: float64 BLAS while
k*max|A|*max|B| stays below 2**52 (integer-valued floats are exact below
2**53), int64 below 2**62, and object-dtype python integers beyond that.
The same routes serve the gather-sums of sparse relation generators
against an integer matrix (escaping_generators). Identity witnesses also
have an exact sparse route for mostly-zero tensors: each product of two
cached nonzeros (ExactTensor.sparse) that share a contracted index is
formed once, reduced mod p over GF(p), and the signed products are summed
by one sort of their indices. It is taken when an exact count of those
products, times 128, plus 2**17, is below the dense multiply-adds
(_sparse_route); both routes give the same witness tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import DimensionMismatch
from .fields import QQ, PrimeField, Rationals

__all__ = [
    "ExactTensor",
    "exact_tensor",
    "nested_tensor",
    "exact_tensordot",
    "escaping_generators",
    "rescaled",
    "unscale",
    "left_nested",
    "alternating_witness",
    "leibniz_witness",
    "jacobi_witness",
    "lts_pair_witness",
    "lts_cyclic_witness",
    "lts_derivation_witness",
    "derived_mismatch_witness",
    "morphism_witness",
    "central_slot_witness",
    "action_law_witness",
    "action_derivation_witness",
    "equivariance_witness",
]

_F64_LIMIT = 2**52
_I64_LIMIT = 2**62
_ONE = np.ones(1, dtype=np.int64)

# Every temporary of a blocked contraction or of a GF(p) block filter (the
# residual block, each gathered slice of K) stays below this many bytes,
# under glibc's default mmap threshold of 128 KiB: freeing a larger, mmapped
# block raises that threshold, after which freed heap memory is kept
# instead of returned.
_BLOCK_BYTES = 1 << 16


class ExactTensor:
    """Integer tensor equal to scale * true entries (scale a positive int).

    Over GF(p) the scale is always 1 and entries are residues in [0, p).
    """

    __slots__ = ("arr", "scale", "p", "_nonzeros", "_slabs")

    def __init__(self, arr, scale, p):
        self.arr = arr
        self.scale = scale
        self.p = p
        self._nonzeros = None
        self._slabs = None

    @property
    def shape(self):
        return self.arr.shape

    def sparse(self):
        """(np.nonzero(arr), the entries there), built once; arr turns
        read-only, so an in-place write cannot leave the view stale."""
        if self._nonzeros is None:
            self.arr.flags.writeable = False
            coords = np.nonzero(self.arr)
            self._nonzeros = coords, self.arr[coords]
        return self._nonzeros


def exact_tensor(field, nested):
    """The canonical ExactTensor (see rescaled) of nested lists, or an
    object array, of field scalars; over GF(p), of any integers."""
    if isinstance(field, PrimeField):
        # moduli are below 2**31, so residues fit int64 without an object
        # pass; rescaled reduces wider integers
        try:
            return rescaled(field, np.array(nested, dtype=np.int64))
        except OverflowError:
            return rescaled(field, np.array(nested, dtype=object))
    if not isinstance(field, Rationals):
        raise TypeError(f"unsupported field {field!r}")
    a = np.array(nested, dtype=object)
    at = np.nonzero(a)
    vals = a[at].tolist()
    den = lcm(1, *{x.denominator for x in vals if type(x) is Fraction})
    ints = [
        x.numerator * (den // x.denominator) if type(x) is Fraction else int(x) * den
        for x in vals
    ]
    wide = max(map(abs, ints), default=0) >= _I64_LIMIT
    raw = np.zeros(a.shape, dtype=object if wide else np.int64)
    raw[at] = ints
    return rescaled(field, raw, den)


def nested_tensor(field, table, shape):
    """The exact tensor of a dense nested table of field scalars, each read
    once through field.coerce, once its nesting is checked to have exactly
    the given shape."""
    a = np.array(table, dtype=object)
    # an empty table is only as deep as its first empty level
    if a.shape != shape and (a.size or a.shape != shape[: a.ndim]):
        raise DimensionMismatch(f"expected a table of shape {shape}, got {a.shape}")
    return exact_tensor(field, np.frompyfunc(field.coerce, 1, 1)(a).reshape(shape))


def _maxabs(a):
    # abs and max are exact on python ints too
    return int(np.abs(a).max()) if a.size else 0


def _contraction_dtype(k, a, b):
    """The exact route for sums of k products of an entry of a and an entry
    of b: float64 while k*max|a|*max|b| < 2**52, int64 below 2**62, python
    ints beyond."""
    plain = a.dtype != object and b.dtype != object
    bound = k * _maxabs(a) * _maxabs(b)
    if plain and bound < _F64_LIMIT:
        return np.float64
    if plain and bound < _I64_LIMIT:
        return np.int64
    return object


def exact_tensordot(a, b, axes, p=None):
    """np.tensordot with the result guaranteed exact (reduced mod p if given)."""
    k = prod(a.shape[ax] for ax in axes[0]) if axes[0] else 1
    dtype = _contraction_dtype(k, a, b)
    c = np.tensordot(a.astype(dtype, copy=False), b.astype(dtype, copy=False), axes)
    if dtype is np.float64:
        c = np.rint(c, out=c).astype(np.int64)
    if p is not None:
        if c.dtype == object:
            c = (c % p).astype(np.int64)
        else:
            # in place: the result can be the largest array of a whole check
            np.remainder(c, p, out=c)
    return c


def escaping_generators(cols, vals, lens, m):
    """The indices of the generators of a (cols, vals, lens) block of
    sparse (coordinate, value) terms whose product with the integer matrix
    m (one row per coordinate) is not zero. Each product is the sum of
    value * m[coordinate] over the generator's terms, a gather-sum taken
    exactly on the route chosen for sums of that many products, for whole
    generators at a time within one block temporary."""
    width = m.shape[1]
    if not len(cols) or not width:
        return np.zeros(0, dtype=np.int64)
    dtype = _contraction_dtype(int(lens.max()), vals, m)
    m = m.astype(dtype, copy=False)
    vals = vals.astype(dtype, copy=False)
    gen = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    room = max(1, _BLOCK_BYTES // (8 * width))
    out = []
    t = 0
    while t < len(cols):
        # the generators that end within room terms, at least the first
        last = max(int(np.searchsorted(ends, t + room, "right")) - 1, int(gen[t]))
        e = int(ends[last])
        g = gen[t:e]
        heads = _run_heads(g)
        part = m[cols[t:e]]
        part *= vals[t:e, None]
        sums = np.add.reduceat(part, heads, axis=0)
        out.append(g[heads][(sums != 0).any(axis=1)])
        t = e
    return np.concatenate(out)


def rescaled(field, raw, den=1):
    """The canonical ExactTensor of raw / den, for raw an integer array (an
    exact contraction whose inputs carried the total scale den).

    Canonical means: over GF(p), int64 residues in [0, p) with scale 1;
    over Q, scale the lcm of the reduced denominators of the entries, which
    is den / gcd(den, *raw), with int64 entries below 2**62 and python ints
    beyond. exact_tensor gives the same form, so two tensors of equal
    entries are equal arrays with equal scales. raw is the caller's
    temporary: it may be reduced in place and kept."""
    if field.characteristic:
        p = field.characteristic
        if raw.dtype == object:
            raw = raw % p
        arr = np.ascontiguousarray(raw, dtype=np.int64)
        return ExactTensor(np.remainder(arr, p, out=arr), 1, p)
    g = gcd(den, int(np.gcd.reduce(raw, axis=None)))
    # an all-zero raw is 0 / 1 whatever den is: nothing to divide
    if g > 1 and raw.any():
        raw = raw // g
    dtype = np.int64 if _maxabs(raw) < _I64_LIMIT else object
    return ExactTensor(np.ascontiguousarray(raw, dtype=dtype), den // g, None)


def unscale(field, raw, den=1):
    """Canonical field scalars raw / den as nested python lists: python int
    over GF(p) (where den is 1), Fraction over Q, never numpy scalars. raw
    is an exact contraction whose inputs carried the total scale den. Only
    the API edge reads scalars this way; everything inside keeps
    rescaled."""
    a = np.asarray(raw)
    if field.characteristic:
        p = field.characteristic
        # exact contractions already return residues; copy only if not
        if a.size and not (a.min() >= 0 and a.max() < p):
            a = a % p
        return a.tolist()
    zero = Fraction(0)

    def scalars(x):
        if type(x) is list:
            return [scalars(y) for y in x]
        return Fraction(x, den) if x else zero

    return scalars(a.tolist())


def _scaled(a, s):
    if s == 1:
        return a
    if a.dtype != object and _maxabs(a) * abs(s) < _I64_LIMIT:
        return a * np.int64(s)
    return a.astype(object) * int(s)


def _witness(res, p):
    """None when res vanishes (mod p), else the index tuple of a nonzero.

    res must be a temporary of the caller's: over GF(p) it is reduced in
    place, so a caller holding a view of stored data passes a copy."""
    if p is not None:
        if res.dtype == object:
            res = res % p
        else:
            if res.dtype == np.float64:
                # the float64 route keeps integers below 2**52; integer
                # residues are cheaper than float ones
                res = res.astype(np.int64)
            if p == 2:
                # two's complement: the low bit is the residue mod 2
                res &= 1
            else:
                np.remainder(res, p, out=res)
    # vanishing is the common case, and cheaper to confirm than nonzero
    if not res.any():
        return None
    return tuple(int(ax[0]) for ax in np.nonzero(res))


def _first_nonzero(shape, terms, p):
    """_witness of the sum of the sparse terms (lin, vals), linear indices
    into shape and values: one sort of the indices, one sum per index."""
    lin, vals = (np.concatenate(x) for x in zip(*terms))
    if vals.dtype != object and _maxabs(vals) * len(vals) >= _I64_LIMIT:
        vals = vals.astype(object)
    order = np.argsort(lin)
    lin = lin[order]
    heads = np.flatnonzero(np.diff(lin, prepend=-1))
    sums = np.add.reduceat(vals[order], heads)
    if p is not None:
        sums %= p
    hit = np.flatnonzero(sums)
    return tuple(map(int, np.unravel_index(lin[heads[hit[0]]], shape))) if len(hit) else None


def _staged(identity):
    """(chain, uses, stages) per chain of an identity, stages per contraction:
    the slot s of t0, its axis pos so far, the next t, its axis j, the shape."""
    out = []
    for chain, uses in identity:
        shape, at, stages = chain[0].shape, list(range(chain[0].arr.ndim)), []
        for s, t, j in chain[1:]:
            pos = at[s]
            at = [j + a - (a > pos) for a in at]
            shape = t.shape[:j] + shape[:pos] + shape[pos + 1:] + t.shape[j + 1:]
            stages.append((s, pos, t, j, shape))
        out.append((chain, uses, stages))
    return out


def _matmul(a, pos, b, j):
    """Axis pos of a contracted with axis j of b, in _staged's order, by one
    np.matmul: a is copied only when pos is not its last axis, b never."""
    n = a.shape[pos]
    if pos != a.ndim - 1:
        a = np.moveaxis(a, pos, -1)
    rest = a.shape[:-1]
    c = np.matmul(a.reshape(prod(rest), n),
                  b.reshape(prod(b.shape[:j]), n, prod(b.shape[j + 1:])))
    return c.reshape(b.shape[:j] + rest + b.shape[j + 1:])


def _runs(start, count):
    """The runs start[i], ..., start[i] + count[i] - 1, concatenated: the i
    of each position, and the positions."""
    e = np.repeat(np.arange(len(count)), count)
    return e, start[e] + np.arange(len(e)) - (np.cumsum(count) - count)[e]


def _run_heads(g):
    """The start of each run of equal values in g."""
    head = np.ones(len(g), dtype=bool)
    np.not_equal(g[1:], g[:-1], out=head[1:])
    return head.nonzero()[0]


def _join(a, i, b, j, n, p):
    """Axis i of A, as (coords, vals), contracted with axis j of B, both n
    long: one coordinate (_staged's order) and exact product per pair of
    entries sharing the index, unsummed, reduced mod p over GF(p)."""
    (ca, va), (cb, vb) = a, b
    cnt = np.bincount(cb[j], minlength=n)
    # entry e of A meets the run of B's entries with its index, in order
    ea, at = _runs((np.cumsum(cnt) - cnt)[ca[i]], cnt[ca[i]])
    eb = np.argsort(cb[j], kind="stable")[at]
    dtype = object if _contraction_dtype(1, va, vb) is object else np.int64
    prods = va[ea].astype(dtype) * vb[eb].astype(dtype)
    if p is not None:
        prods %= p
    return ([c[eb] for c in cb[:j]] + [c[ea] for k, c in enumerate(ca) if k != i]
            + [c[eb] for c in cb[j + 1:]]), prods


def _cost(staged):
    """(products, dense): the exact count of the products of nonzeros the
    sparse route forms, a bincount dot over each contracted index, and the
    multiply-adds of the dense route. products is counted only where the
    sparse route could win with none (the rule grows with products)."""
    dense = sum(prod(shape) * t.shape[j]
                for _, _, stages in staged for _, _, t, j, shape in stages)
    products = 0
    for chain, _, stages in staged if _sparse_route(0, dense) else ():
        first = chain[0].sparse()[0]
        # per nonzero of the first tensor, the products that reach it
        weight = np.ones(len(first[0]), dtype=np.int64)
        for s, _, t, j, _ in stages:
            weight *= np.bincount(t.sparse()[0][j], minlength=t.shape[j])[first[s]]
            products += int(weight.sum())
    return products, dense


def _sparse_route(products, dense):
    """Sparse when 128 * products + 2**17 < dense. On a 2-core Xeon a sparse
    product costs 100-200 ns, a dense float64 multiply-add 0.5-1 ns, the
    sparse route's own numpy calls about 0.1 ms; on the witnesses of theorem
    runs and a re-based sl3's LTS cube this is within 1% of the faster
    route's total, and random tensors 10% nonzero (routes cross) stay dense."""
    return 128 * products + 2**17 < dense


def _chain_witness(identity, p, keep=None):
    """The first nonzero (mod p), cut to keep indices, of an identity: a
    list of (chain, uses). A chain (t0, (s, t, j), ...) of ExactTensors
    contracts slot s of t0 with axis j of each next t in np.matmul's axis
    order; (t0,) is t0. Its value sums coef * chain.transpose(perm)."""
    staged = _staged(identity)
    if _sparse_route(*_cost(staged)):
        w = _sparse_witness(staged, p)
    else:
        w = _dense_witness(staged, p)
    return None if w is None else w[:keep]


def _sparse_witness(staged, p):
    terms = []
    for chain, uses, stages in staged:
        shape = chain[0].shape
        coords, vals = chain[0].sparse()
        for _, pos, t, j, shape in stages:
            coords, vals = _join((coords, vals), pos, t.sparse(), j, t.shape[j], p)
        for coef, perm in uses:
            out = tuple(shape[k] for k in perm)
            lin = np.ravel_multi_index(tuple(coords[k] for k in perm), out)
            terms.append((lin, _scaled(vals, coef)))
    return _first_nonzero(out, terms, p)


def _dense_witness(staged, p, dtype=None, out=None):
    """_witness of the staged identity's sum, into out if given, on one
    exact route: dtype, else the widest _contraction_dtype picks for any
    chain, bounded for weight = sum of |coef| times each chain's products."""
    weight = sum(abs(c) for _, uses, _ in staged for c, _ in uses)
    routes = []
    for chain, _, stages in staged if dtype is None else ():
        # a plain tensor is a product with 1, summed in integers
        vals = [chain[0].arr, *(t.arr for _, _, t, _, _ in stages), _ONE]
        k = prod(t.shape[j] for _, _, t, j, _ in stages) * prod(map(_maxabs, vals[2:-1]))
        routes += [_contraction_dtype(weight * k, vals[0], vals[1])] + [np.int64] * (not stages)
    dtype = dtype or max(routes, key=(np.float64, np.int64, object).index)
    res = None
    for chain, uses, stages in staged:
        arr = chain[0].arr.astype(dtype, copy=False)
        for _, pos, t, j, _ in stages:
            arr = _matmul(arr, pos, t.arr.astype(dtype, copy=False), j)
        for coef, perm in uses:
            x = arr.transpose(perm).astype(dtype, copy=False)
            if abs(coef) != 1:
                x = x * np.array(abs(coef), dtype=dtype)[()]
            if res is None:
                res = np.empty(x.shape, dtype) if out is None else out
                np.negative(x, out=res) if coef < 0 else np.copyto(res, x)
            elif coef < 0:
                res -= x
            else:
                res += x
        arr = x = None  # a third live array refaults its pages every call
    return _witness(res, p)


def _polarized_witness(t, s):
    """First index tuple where swapping slots s and s+1 does not negate the
    bracket, or where the bracket with equal entries in both slots is not
    zero, reported with those two entries equal; None when the bracket is
    alternating in the two slots, in a form sound in characteristic 2."""
    a = t.arr
    w = _witness(a + np.swapaxes(a, s, s + 1), t.p)
    if w is not None:
        return w[: a.ndim - 1]
    r = np.arange(a.shape[0])
    w = _witness(a[(slice(None),) * s + (r, r)], t.p)
    if w is not None:
        return w[:s] + (w[s], w[s])
    return None


def alternating_witness(t):
    """First (i, j) with [e_i, e_j] + [e_j, e_i] != 0, or (i, i) with
    [e_i, e_i] != 0; None when the bracket is alternating."""
    return _polarized_witness(t, 0)


_ID4 = (0, 1, 2, 3)
# the uses that sum a three-slot chain over the rotations of its slots
_CYCLIC = [(1, _ID4), (1, (1, 2, 0, 3)), (1, (2, 0, 1, 3))]


def _nested(t):
    """The chain L[x, y, z, w] = coefficient of e_w in [e_x, [e_y, e_z]]."""
    return (t, (2, t, 1))


def left_nested(t):
    """L[x, y, z, w] = coefficient of e_w in [e_x, [e_y, e_z]], as raw
    integers carrying scale t.scale**2."""
    return exact_tensordot(t.arr, t.arr, ([2], [1]), t.p).transpose(2, 0, 1, 3)


def leibniz_witness(t):
    """Defect of [x,[y,z]] = [[x,y],z] - [[x,z],y]; None when it holds."""
    # (t, (2, t, 0)) is u[x, y, z, w] = [[x,y],z]
    return _chain_witness([
        (_nested(t), [(1, _ID4)]),
        ((t, (2, t, 0)), [(-1, _ID4), (1, (0, 2, 1, 3))]),
    ], t.p, 3)


def jacobi_witness(t):
    """Defect of [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0; None when it holds."""
    return _chain_witness([(_nested(t), _CYCLIC)], t.p, 3)


def lts_pair_witness(t):
    """Vanishing in the last two slots, polarized so it is meaningful in
    characteristic 2: {x,y,z} + {x,z,y} = 0 and {x,y,y} = 0."""
    return _polarized_witness(t, 1)


def lts_cyclic_witness(t):
    """Defect of {x,y,z} + {y,z,x} + {z,x,y} = 0; None when it holds."""
    return _chain_witness([((t,), _CYCLIC)], t.p, 3)


def _spanning_slabs(t):
    """The (a, b), in row-major order, of the slabs T[:, a, b, :] not in
    the span of the slabs before them: a greedy basis of the span of all
    slabs over the tensor's field. Each nonzero slab is one sparse row of
    length d*d, read off np.nonzero of a transposed view of T (no copy).
    Picked once per tensor, and kept with it."""
    # linalg builds on this module, so it is imported at the call
    from .linalg import SpanAccumulator

    if t._slabs is not None:
        return t._slabs
    d = t.arr.shape[0]
    by_slab = t.arr.transpose(1, 2, 0, 3)
    a, b, x, y = nz = np.nonzero(by_slab)
    slabs, lens = np.unique(a * d + b, return_counts=True)
    field = QQ if t.p is None else PrimeField(t.p)
    picked = []
    SpanAccumulator(field, d * d).add_pairs(
        x * d + y, by_slab[nz], lens, picked=picked
    )
    t._slabs = [divmod(int(s), d) for s in slabs[picked]]
    return t._slabs


def lts_derivation_witness(t):
    """Defect of the five-variable identity

        {{x,y,z},a,b} = {{x,a,b},y,z} + {x,{y,a,b},z} + {x,y,{z,a,b}}

    as (x, y, z, a, b); None when it holds.

    The defect is linear in the slab m = T[:, a, b, :], so the identity
    holds on every slab once it holds on a basis of their span: only the
    greedy spanning subset of _spanning_slabs is checked, which is exact.
    The witness is the one a loop over every (a, b) would return, since the
    first failing slab in (a, b) order is always a greedy pivot: a slab in
    the span of earlier slabs that all pass passes too.

    The picked slabs are stacked as M[s, :, :] and the defect is indexed
    (s, x, y, z, w), the slab first. The sparse route joins all of M at
    once; the dense one runs a few slabs at a time, so memory stays at d^4."""
    slabs = _spanning_slabs(t)
    pa, pb = np.array(slabs, dtype=np.int64).reshape(-1, 2).T
    m = np.ascontiguousarray(t.arr[:, pa, pb, :].transpose(1, 0, 2))

    def defect(m, tt):  # tt: T, or T on the dense sum's route
        m = ExactTensor(m, t.scale, t.p)
        return [
            ((tt, (3, m, 1)), [(1, (0, 1, 2, 3, 4))]),
            ((m, (2, tt, 0)), [(-1, (0, 1, 2, 3, 4))]),
            ((m, (2, tt, 1)), [(-1, (1, 0, 2, 3, 4))]),
            ((m, (2, tt, 2)), [(-1, (2, 0, 1, 3, 4))]),
        ]

    whole = _staged(defect(m, t))
    if _sparse_route(*_cost(whole)):
        w = _sparse_witness(whole, t.p)
        return None if w is None else (*w[1:4], *slabs[w[0]])
    # the sum is exact on the route of 4d products of entries of T, which
    # is converted once: each slab is then four matmuls into one array
    dtype = _contraction_dtype(4 * len(t.arr), t.arr, t.arr)
    tt = ExactTensor(t.arr.astype(dtype, copy=False), t.scale, t.p)
    step = max(1, 2**15 // max(t.arr.size, 1))  # slabs a block: 2**15 entries, or one
    out = np.empty((min(step, len(m)),) + t.shape, dtype)
    for s in range(0, len(m), step):
        block = m[s : s + step]
        w = _dense_witness(_staged(defect(block, tt)), t.p, dtype, out[: len(block)])
        if w is not None:
            return (*w[1:4], *slabs[s + w[0]])
    return None


def derived_mismatch_witness(tern, bina):
    """First (x, y, z) where {x,y,z} != [x,[y,z]]; None when they agree."""
    return _chain_witness([
        (_nested(bina), [(tern.scale, _ID4)]),
        ((tern,), [(-bina.scale**2, _ID4)]),
    ], tern.p, 3)


def morphism_witness(ext, base, proj):
    """Defect of proj({x,..}_ext) = {proj x,..}_base on basis tuples, for
    algebras ext and base of one arity and proj given as a 2d tensor
    P[a, r] (coordinates of the image of the r-th basis vector); None when
    proj is a bracket morphism.

    Both sides come out indexed (a, x, y, ...): the left side contracts P
    into the output slot of ext, the right side into each slot of base in
    turn. The left side carries ext.scale * proj.scale, the right side
    proj.scale**arity * base.scale: they are cross-multiplied."""
    arity = base.arr.ndim - 1
    out = (*range(1, arity + 1), 0)
    return _chain_witness([
        ((ext, (arity, proj, 1)), [(proj.scale ** (arity - 1) * base.scale, out)]),
        ((base, *((s, proj, 0) for s in range(arity))), [(-ext.scale, out)]),
    ], ext.p, arity)


def central_slot_witness(ext, zmat, slot):
    """First nonzero of the ext bracket with the rows of zmat substituted
    into the given slot; None when every such bracket vanishes."""
    # the contraction puts the slots of ext before this one first
    perm = (slot, *range(slot), *range(slot + 1, ext.arr.ndim))
    return _chain_witness([((zmat, (1, ext, slot)), [(1, perm)])], ext.p)


def action_law_witness(act, bina):
    """Defect of (m*x)*y - (m*y)*x = m*[x,y] for an action tensor
    act[u, x, v] (coefficient of e_v in e_u * e_x); None when it holds."""
    # (m*x)*y and m*[x,y], both indexed (u, x, y, v)
    return _chain_witness([
        ((act, (2, act, 0)), [(bina.scale, _ID4), (-bina.scale, (0, 2, 1, 3))]),
        ((bina, (2, act, 1)), [(-act.scale, _ID4)]),
    ], act.p, 3)


def action_derivation_witness(act, tern):
    """Defect of {x,y,z}*g = {x*g,y,z} + {x,y*g,z} + {x,y,z*g} for an action
    on the carrier of the ternary algebra tern; None when it holds."""
    # both sides carry the same scale factor, so no cross-multiplication;
    # the left side is indexed (x, y, z, g, v)
    return _chain_witness([
        ((tern, (3, act, 0)), [(1, (0, 1, 2, 3, 4))]),
        ((act, (2, tern, 0)), [(-1, (0, 2, 3, 1, 4))]),
        ((act, (2, tern, 1)), [(-1, (0, 1, 3, 2, 4))]),
        ((act, (2, tern, 2)), [(-1, (0, 1, 2, 3, 4))]),
    ], act.p, 4)


def equivariance_witness(act, fmat, bina):
    """Defect of f(m*x) = [f(m), x] for f given as a 2d tensor
    fmat[k, u] (coefficient of e_k in f(e_u)); None when it holds."""
    # f(m*x) is indexed (k, u, x), [f(m), x] (u, x, w)
    return _chain_witness([
        ((act, (2, fmat, 1)), [(bina.scale, (1, 2, 0))]),
        ((fmat, (0, bina, 0)), [(-act.scale, (0, 1, 2))]),
    ], act.p, 2)
