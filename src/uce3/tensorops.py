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
against an integer matrix (escaping_generators).

The LTS derivation identity is checked slab by slab, on the slabs
T[:, a, b, :] of a greedy spanning subset picked in (a, b) order by the
span accumulator of linalg. The defect is linear in the slab, so this is
exact, and the witness is the one of a loop over every slab, because the
first failing slab in (a, b) order is always one of the picked pivots.
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

    __slots__ = ("arr", "scale", "p")

    def __init__(self, arr, scale, p):
        self.arr = arr
        self.scale = scale
        self.p = p

    @property
    def shape(self):
        return self.arr.shape


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
    den = lcm(1, *(x.denominator for x in a.flat if type(x) is Fraction))
    ints = [
        x.numerator * (den // x.denominator) if type(x) is Fraction else int(x) * den
        for x in a.flat
    ]
    return rescaled(field, np.array(ints, dtype=object).reshape(a.shape), den)


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
        head = np.ones(len(g), dtype=bool)
        np.not_equal(g[1:], g[:-1], out=head[1:])
        heads = head.nonzero()[0]
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
    if a.dtype != object and _maxabs(a) * s < _I64_LIMIT:
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
    if res.dtype == object:
        flat = res.ravel()
        for pos, x in enumerate(flat):
            if x:
                return tuple(int(i) for i in np.unravel_index(pos, res.shape))
        return None
    return tuple(int(ax[0]) for ax in np.nonzero(res))


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


def left_nested(t):
    """L[x, y, z, w] = coefficient of e_w in [e_x, [e_y, e_z]], as raw
    integers carrying scale t.scale**2."""
    c = t.arr
    m = exact_tensordot(c, c, ([2], [1]), t.p)  # m[y, z, x, w]
    return m.transpose(2, 0, 1, 3)


def leibniz_witness(t):
    """Defect of [x,[y,z]] = [[x,y],z] - [[x,z],y]; None when it holds."""
    c = t.arr
    u = exact_tensordot(c, c, ([2], [0]), t.p)  # u[x, y, z, w] = [[x,y],z]
    res = left_nested(t) - u + u.transpose(0, 2, 1, 3)
    w = _witness(res, t.p)
    return None if w is None else w[:3]


def _cyclic_witness(a, p):
    """First (x, y, z) where a[x, y, z] + a[y, z, x] + a[z, x, y] != 0 for
    a raw tensor a with three input slots; None when the sum vanishes."""
    w = _witness(a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3), p)
    return None if w is None else w[:3]


def jacobi_witness(t):
    """Defect of [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0; None when it holds."""
    return _cyclic_witness(left_nested(t), t.p)


def lts_pair_witness(t):
    """Vanishing in the last two slots, polarized so it is meaningful in
    characteristic 2: {x,y,z} + {x,z,y} = 0 and {x,y,y} = 0."""
    return _polarized_witness(t, 1)


def lts_cyclic_witness(t):
    """Defect of {x,y,z} + {y,z,x} + {z,x,y} = 0; None when it holds."""
    return _cyclic_witness(t.arr, t.p)


def _spanning_slabs(t):
    """The (a, b), in row-major order, of the slabs T[:, a, b, :] not in
    the span of the slabs before them: a greedy basis of the span of all
    slabs over the tensor's field. Each nonzero slab is one sparse row of
    length d*d, read off np.nonzero of a transposed view of T (no copy)."""
    # linalg builds on this module, so it is imported at the call
    from .linalg import SpanAccumulator

    d = t.arr.shape[0]
    by_slab = t.arr.transpose(1, 2, 0, 3)
    a, b, x, y = nz = np.nonzero(by_slab)
    slabs, lens = np.unique(a * d + b, return_counts=True)
    field = QQ if t.p is None else PrimeField(t.p)
    picked = []
    SpanAccumulator(field, d * d).add_pairs(
        x * d + y, by_slab[nz], lens, picked=picked
    )
    return [divmod(int(s), d) for s in slabs[picked]]


def lts_derivation_witness(t):
    """Defect of the five-variable identity

        {{x,y,z},a,b} = {{x,a,b},y,z} + {x,{y,a,b},z} + {x,y,{z,a,b}}

    as (x, y, z, a, b); None when it holds.

    The defect is linear in the slab m = T[:, a, b, :], so the identity
    holds on every slab once it holds on a basis of their span: only the
    greedy spanning subset of _spanning_slabs is checked, which is exact.
    The witness is the one a loop over every (a, b) would return, since
    the first failing slab in (a, b) order is always a greedy pivot: a
    slab in the span of earlier slabs that all pass passes too.

    Runs blocked over (a, b) so memory stays at d^4 instead of d^6. Each
    defect entry is a sum of 4d products of two tensor entries, so the
    exact route is chosen, and the tensor converted to it, once per call;
    the four contractions are matmuls on reshaped views and accumulate
    into one array."""
    a4 = t.arr
    d = a4.shape[0]
    av = a4.astype(_contraction_dtype(4 * d, a4, a4), copy=False)
    shape = (d, d, d, d)
    by_first = av.reshape(d, d**3)
    by_second = av.reshape(d, d, d * d)
    by_third = av.reshape(d * d, d, d)
    by_last = av.reshape(d**3, d)
    for a, b in _spanning_slabs(t):
        m = av[:, a, b, :]
        res = (by_last @ m).reshape(shape)
        res -= (m @ by_first).reshape(shape)
        res -= (m @ by_second).reshape(shape)
        res -= (m @ by_third).reshape(shape)
        w = _witness(res, t.p)
        if w is not None:
            return (w[0], w[1], w[2], a, b)
    return None


def derived_mismatch_witness(tern, bina):
    """First (x, y, z) where {x,y,z} != [x,[y,z]]; None when they agree."""
    lhs = left_nested(bina)  # scale bina.scale**2
    res = _scaled(lhs, tern.scale) - _scaled(tern.arr, bina.scale**2)
    w = _witness(res, tern.p)
    return None if w is None else w[:3]


def morphism_witness(ext, base, proj):
    """Defect of proj({x,..}_ext) = {proj x,..}_base on basis tuples, for
    algebras ext and base of one arity and proj given as a 2d tensor
    P[a, r] (coordinates of the image of the r-th basis vector); None when
    proj is a bracket morphism.

    The right side contracts P into each slot of the base tensor in turn;
    each contraction puts its new axis first, so the slot axes come out
    reversed. The left side carries ext.scale * proj.scale, the right side
    proj.scale**arity * base.scale: they are cross-multiplied."""
    m = proj.arr
    p = ext.p
    arity = base.arr.ndim - 1
    lhs = exact_tensordot(ext.arr, m, ([arity], [1]), p)
    rhs = base.arr
    for slot in range(arity):
        rhs = exact_tensordot(m, rhs, ([0], [slot]), p)
    rhs = rhs.transpose(tuple(range(arity))[::-1] + (arity,))
    res = (_scaled(lhs, proj.scale ** (arity - 1) * base.scale)
           - _scaled(rhs, ext.scale))
    w = _witness(res, p)
    return None if w is None else w[:arity]


def central_slot_witness(ext, zmat, slot):
    """First nonzero of the ext bracket with the rows of zmat substituted
    into the given slot; None when every such bracket vanishes."""
    res = exact_tensordot(zmat.arr, ext.arr, ([1], [slot]), ext.p)
    w = _witness(res, ext.p)
    return None if w is None else w


def action_law_witness(act, bina):
    """Defect of (m*x)*y - (m*y)*x = m*[x,y] for an action tensor
    act[u, x, v] (coefficient of e_v in e_u * e_x); None when it holds."""
    a = act.arr
    c = bina.arr
    p = act.p
    lhs = exact_tensordot(a, a, ([2], [0]), p)  # (u, x, y, v)
    rhs = exact_tensordot(c, a, ([2], [1]), p).transpose(2, 0, 1, 3)
    left = lhs - lhs.transpose(0, 2, 1, 3)
    res = _scaled(left, bina.scale) - _scaled(rhs, act.scale)
    w = _witness(res, p)
    return None if w is None else w[:3]


def action_derivation_witness(act, tern):
    """Defect of {x,y,z}*g = {x*g,y,z} + {x,y*g,z} + {x,y,z*g} for an action
    on the carrier of the ternary algebra tern; None when it holds."""
    a = act.arr
    t = tern.arr
    p = act.p
    lhs = exact_tensordot(t, a, ([3], [0]), p)  # (x, y, z, g, v)
    r1 = exact_tensordot(a, t, ([2], [0]), p).transpose(0, 2, 3, 1, 4)
    r2 = exact_tensordot(a, t, ([2], [1]), p).transpose(2, 0, 3, 1, 4)
    r3 = exact_tensordot(a, t, ([2], [2]), p).transpose(2, 3, 0, 1, 4)
    # both sides carry the same scale factor, so no cross-multiplication
    w = _witness(lhs - r1 - r2 - r3, p)
    return None if w is None else w[:4]


def equivariance_witness(act, fmat, bina):
    """Defect of f(m*x) = [f(m), x] for f given as a 2d tensor
    fmat[k, u] (coefficient of e_k in f(e_u)); None when it holds."""
    a = act.arr
    f = fmat.arr
    c = bina.arr
    p = act.p
    e1 = exact_tensordot(a, f, ([2], [1]), p)  # (u, x, k)
    e2 = exact_tensordot(f, c, ([0], [0]), p)  # (u, x, w)
    res = _scaled(e1, bina.scale) - _scaled(e2, act.scale)
    w = _witness(res, p)
    return None if w is None else w[:2]
