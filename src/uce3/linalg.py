"""Exact dense linear algebra over the package's ground fields.

Every finished subspace, over Q and over GF(p) alike, is held in one form,
its K-form: the sorted pivots of its reduced row echelon form R, the free
(non-pivot) columns F, and K = -R[:, F] as one canonical ExactTensor (see
tensorops.rescaled): residues with scale 1 over GF(p), and over Q integers
whose scale is the lcm of R's denominators. K sends a vector v to its
residual v[F] + v[pivots] K / scale modulo the span, so the basis rows,
reduction, the quotient projection and equality are all read off it, and
equal subspaces have equal K-forms.

One block fold accumulates a span over every field, and hands its state
over as a K-form. It holds K itself, filtered by blocks: only the pivot
rows are stored, a whole block of vectors or sparse generators is
filtered with one gather-sum against K, and each new pivot is a rank-1
update of K, so K stays the RREF up to the order of its rows. Three
arithmetics share it:

  * GF(p): int64 residues, exact because every product of two residues
    is below p**2 < 2**62 and is reduced mod p before it is summed;
  * GF(2): K packed 64 columns to a word, its gather-sum an XOR of words;
  * Q: fraction-free (Bareiss, Math. Comp. 22, 1968), K as integers over
    one positive scale, int64 below 2**62 and python ints beyond.

Relation streams over Q are instead folded mod a prime by the GF(p)
arithmetic, which picks generators that are independent over Q (see
uce._fold_relations). When they span the kernel of the evaluation map ev,
its K-form is read off ev and the free columns by ``left_kernel``, as the
cube's is off its quotient map (``quotient_kernel``); otherwise the picked
generators are folded exactly and certified block by block against K.

Dense vectors enter through one door, SpanAccumulator.add_vectors: an
integer array goes straight in, anything else is read by exact_tensor
one block-sized run of rows at a time, and each run is folded as sparse
generators by the fold. A Matrix is one canonical ExactTensor too, so
products, comparisons, kernels and solves are exact contractions and
K-form reads; field scalars appear only at the API edge (``Matrix.rows``,
``basis_vectors``, ``reduce``).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, InternalAssertionFailed
from .fields import QQ, PrimeField, Rationals, ensure_same_field
from .tensorops import (
    _BLOCK_BYTES,
    _I64_LIMIT,
    ExactTensor,
    _chain_witness,
    _maxabs,
    _run_heads,
    _runs,
    _scaled,
    exact_tensor,
    exact_tensordot,
    nested_tensor,
    rescaled,
    unscale,
)

__all__ = [
    "Matrix",
    "Subspace",
    "SpanAccumulator",
    "left_kernel",
    "quotient_kernel",
    "take_generators",
    "kernel",
    "solve_columns",
    "right_inverse",
]


def take_generators(cols, vals, lens, idx):
    """The generators idx of a (cols, vals, lens) block, in that order, as
    a block of their own."""
    idx = np.asarray(idx, dtype=np.int64)
    _, take = _runs((np.cumsum(lens) - lens)[idx], lens[idx])
    return cols[take], vals[take], lens[idx]


# the word of a packed GF(2) row
_WORD = np.dtype("<u8")


class _EchelonGFp:
    """A span held as its quotient projection K, filtered by blocks: the
    fold of every field, with GF(p)'s arithmetic.

    K sends an ambient vector to its residual modulo the span, read on the
    free (non-pivot) columns F. The row of a free column is its unit vector
    and is not stored; the row of pivot column q is -R_q[F], R_q the RREF
    row with pivot q. So the residual of v is v[F] + sum over pivots q of
    v[q] K_q, and v lies in the span exactly when that is zero.

    ``_k`` holds the pivot rows in the order ``pivots`` found them
    (``finalize`` sorts them) over the working columns ``_cols``, ascending
    in the ambient order, so the leading nonzero of a residual is its
    leading free column. A column that becomes a pivot stays in place as
    zeros until half the width is dead, and row capacity grows
    geometrically, so a new pivot reallocates nothing.

    K's residues are int64; _EchelonGF2 packs them into words instead, and
    _EchelonRationals holds integers over one scale.
    """

    __slots__ = ("n", "p", "pivots", "_k", "_cols", "_pos", "_row", "_final")
    # residues need no scale
    scale = 1

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.pivots = []
        self._k = self._blank(0, n)
        # room for the first pivots within one block temporary
        self._k = self._blank(min(n, self._room()), n)
        self._cols = np.arange(n)
        # K column of each free ambient column and K row of each pivot
        # ambient column, -1 elsewhere
        self._pos = np.arange(n)
        self._row = np.full(n, -1)
        # canonical once the spare rows are trimmed
        self._final = False

    @staticmethod
    def _blank(rows, width):
        """A zero K of rows pivot rows over width working columns."""
        return np.zeros((rows, width), dtype=np.int64)

    def _room(self):
        """Rows of K, or of a residual block, that fit one block temporary."""
        return max(1, _BLOCK_BYTES // max(8, self._k.itemsize * self._k.shape[1]))

    def add_terms(self, cols, vals, lens, limit=None, picked=None):
        """Fold generators given as flat (column, value) terms, lens[g] of
        them for generator g, summing repeated columns. Returns the number
        of new pivots; stops the moment there are limit pivots. picked,
        when given, receives the generators that became pivots."""
        n = self.n
        vals = self._values(vals)
        # terms that vanish add nothing
        keep = vals.nonzero()[0]
        if len(keep) < len(vals):
            gen = np.repeat(np.arange(len(lens)), lens)
            lens = np.bincount(gen[keep], minlength=len(lens))
            cols, vals = cols[keep], vals[keep]
        ends = np.cumsum(lens)
        limit = n if limit is None else min(limit, n)
        start = len(self.pivots)
        g = t = 0
        while g < len(ends) and len(self.pivots) < limit:
            # each generator is a row of the residual block, each term of
            # a pivot column one gathered row of K: a chunk is the rows and
            # the int64 terms that fit one block temporary
            room = self._room()
            e = int(np.searchsorted(ends, t + _BLOCK_BYTES // 8, "right"))
            e = min(max(e, g + 1), g + room)
            self._reserve(e - g, limit)
            te = int(ends[e - 1])
            res = self._residuals(cols[t:te], vals[t:te], lens[g:e], self._room())
            rows = self._eliminate(res, limit)
            if picked is not None:
                picked.extend(g + i for i in rows)
            g, t = e, te
        return len(self.pivots) - start

    def _values(self, vals):
        """Term values as K's arithmetic reads them: int64 residues."""
        return np.remainder(vals, self.p).astype(np.int64)

    def _reserve(self, b, limit):
        """Make room for b more pivot rows, limit in all. Dead columns are
        dropped before growing, and once they are half the width."""
        free = self.n - len(self.pivots)
        need = min(limit, len(self.pivots) + b)
        width = len(self._cols)
        if need > self._k.shape[0]:
            self._resize(min(limit, max(need, 2 * self._k.shape[0])))
        elif free < width and 2 * free <= width:
            self._resize(self._k.shape[0])

    def _resize(self, capacity):
        """Reallocate K with room for capacity pivot rows, keeping only the
        columns that are still free."""
        live = (self._pos[self._cols] >= 0).nonzero()[0]
        k = self._blank(capacity, len(live))
        self._narrow(live, k[: len(self.pivots)])
        self._k = k
        self._cols = self._cols[live]
        self._pos[self._cols] = np.arange(len(live))
        # spare rows: the canonical form trims them
        self._final = False

    def _narrow(self, live, out):
        """The pivot rows of K over the working columns live, into out."""
        np.take(self._k[: len(out)], live, axis=1, out=out)

    def _residuals(self, cols, vals, lens, room):
        """One residual row per generator over the working columns, of
        vals' dtype: the sum of value * K[column] over its terms, gathered
        room rows of K at a time, reduced mod p unless p is None."""
        p = self.p
        gen = np.repeat(np.arange(len(lens)), lens)
        row = self._row[cols]
        out = np.zeros((len(lens), len(self._cols)), dtype=vals.dtype)
        free = row < 0
        np.add.at(out, (gen[free], self._pos[cols[free]]), vals[free])
        piv = (~free).nonzero()[0]
        for a in range(0, len(piv), room):
            sel = piv[a : a + room]
            g = gen[sel]
            heads = _run_heads(g)
            # products of residues stay below p**2 < 2**62; reduce each one
            # before the sum (over Q the caller bounds the sums)
            part = self._k[row[sel]].astype(out.dtype, copy=False)
            part *= vals[sel, None]
            if p is not None:
                part %= p
            out[g[heads]] += np.add.reduceat(part, heads, axis=0)
        if p is not None:
            out %= p
        return out

    def _eliminate(self, res, limit):
        """Turn the nonzero residual rows into pivots in order, each one a
        rank-1 update of the rows after it and of K; returns the rows that
        became pivots."""
        rows = []
        for i in res.any(axis=1).nonzero()[0].tolist():
            j = self._lead(res[i])
            if j < 0:
                continue
            rank = len(self.pivots)
            res = self._pivot(res, i, j, rank)
            q = int(self._cols[j])
            self._pos[q] = -1
            self._row[q] = rank
            self.pivots.append(q)
            self._final = False
            rows.append(i)
            if rank + 1 >= limit:
                break
        return rows

    @staticmethod
    def _lead(v):
        """The working column of v's leading nonzero, -1 for v = 0."""
        nz = v.nonzero()[0]
        return int(nz[0]) if len(nz) else -1

    def _pivot(self, res, i, j, rank):
        """Make res[i], led by working column j, pivot row rank: clear
        column j from the rows after it and from K, and store its row of K.
        Returns the residual block."""
        p = self.p
        v, rest = res[i], res[i + 1 :]
        r = v * pow(int(v[j]), -1, p) % p
        for block in (rest, self._k[:rank]):
            c = block[:, j]
            hit = c.nonzero()[0]
            if len(hit):
                block[hit] = (block[hit] - c[hit, None] * r) % p
        kr = self._k[rank]
        np.subtract(p, r, out=kr)
        kr %= p
        kr[j] = 0
        return res

    def finalize(self):
        if self._final:
            return
        self._resize(len(self.pivots))
        order = np.argsort(self.pivots)
        self._k = self._k[order]
        self.pivots = [self.pivots[i] for i in order]
        self._row[self.pivots] = np.arange(len(order))
        self._final = True

    def kform(self):
        """The K-form as (pivots, raw, scale): the pivot rows of K, sorted,
        over the free columns. raw is K itself, not a copy."""
        self.finalize()
        return self.pivots, self._k, self.scale


class _EchelonGF2(_EchelonGFp):
    """The GF(p) block fold for p = 2, K packed into words: working column
    w is bit w & 63 of word w >> 6 of its row, little-endian. The
    residues are bits, so a gather-sum is an XOR of word rows and a pivot
    needs no inverse: its K row is its residual with its own bit cleared.
    Every generator term left after add_terms's filter has value 1."""

    __slots__ = ()

    @staticmethod
    def _blank(rows, width):
        return np.zeros((rows, -(-width // 64)), dtype=_WORD)

    def _narrow(self, live, out):
        bits = _unpacked(self._k[: len(out)], len(self._cols))[:, live]
        out.view(np.uint8)[:, : -(-len(live) // 8)] = np.packbits(
            bits, axis=1, bitorder="little")

    def _residuals(self, cols, vals, lens, room):
        gen = np.repeat(np.arange(len(lens)), lens)
        row = self._row[cols]
        out = self._blank(len(lens), len(self._cols))
        free = row < 0
        pos = self._pos[cols[free]]
        np.bitwise_xor.at(out, (gen[free], pos >> 6),
                          np.left_shift(_WORD.type(1), (pos & 63).astype(_WORD)))
        piv = (~free).nonzero()[0]
        for a in range(0, len(piv), room):
            sel = piv[a : a + room]
            g = gen[sel]
            heads = _run_heads(g)
            out[g[heads]] ^= np.bitwise_xor.reduceat(self._k[row[sel]], heads, axis=0)
        return out

    @staticmethod
    def _lead(v):
        nz = v.nonzero()[0]
        if not len(nz):
            return -1
        word = int(v[nz[0]])
        return 64 * int(nz[0]) + (word & -word).bit_length() - 1

    def _pivot(self, res, i, j, rank):
        v, rest = res[i], res[i + 1 :]
        w, bit = j >> 6, _WORD.type(1 << (j & 63))
        for block in (rest, self._k[:rank]):
            block[(block[:, w] & bit).nonzero()[0]] ^= v
        kr = self._k[rank]
        kr[:] = v
        kr[w] ^= bit
        return res

    def kform(self):
        """The K-form as (pivots, raw, 1), raw the sorted pivot rows of K
        unpacked to one uint8 bit per free column."""
        self.finalize()
        return self.pivots, _unpacked(self._k, len(self._cols)), 1


def _unpacked(k, width):
    """Packed GF(2) rows as one uint8 bit per column, width columns."""
    return np.unpackbits(k.view(np.uint8), axis=1, count=width, bitorder="little")


class _EchelonRationals(_EchelonGFp):
    """The block fold over Q, fraction-free: K holds -R[:, F] * scale as
    integers over one positive ``scale`` with no common factor, so its
    sorted rows are the canonical K-form.

    A residual is scale * v[F] + v[pivots] K, the gather-sum of GF(p)
    without the modulus. A residual v, divided by its content and signed so
    that its leading entry d (working column j) is positive, becomes a
    pivot by K <- d K - K[:, j] v, its own row -scale * v with column j
    cleared and scale <- scale * d, all then divided by their gcd; the later
    rows w of its block become d w - w[j] v.

    K, and a residual block, are int64 while a running bound on their
    entries and on the products that build them stays below 2**62. Past it
    the bound is read exactly (a block's rows first divided by their
    content), and only then do they hold python ints.
    """

    __slots__ = ("scale", "_top", "_rtop")

    def __init__(self, n):
        self.scale = 1
        # bounds on max|K| and on the entries of the residual block
        self._top = self._rtop = 0
        # _blank keeps K's dtype
        self._k = np.zeros((0, n), dtype=np.int64)
        super().__init__(n, None)

    def _blank(self, rows, width):
        return np.zeros((rows, width), dtype=self._k.dtype)

    def _values(self, vals):
        return vals

    def _fits(self, a, b):
        """Whether a * max|K| and b are below 2**62, max|K| read exactly
        when _top does not show it."""
        if a * self._top >= _I64_LIMIT:
            self._top = _maxabs(self._k[: len(self.pivots)])
        return max(a * self._top, b) < _I64_LIMIT

    def _residuals(self, cols, vals, lens, room):
        s = self.scale
        # an entry sums at most lens.max() products
        most = int(lens.max()) * _maxabs(vals)
        vals = vals.astype(np.int64 if self._fits(most, most * s) else object)
        # no terms, no bound on s
        if s > 1 and len(vals):
            vals[self._row[cols] < 0] *= s
        self._rtop = most * max(s, self._top)
        return super()._residuals(cols, vals, lens, room)

    def _pivot(self, res, i, j, rank):
        v = res[i]
        d = int(v[j])
        # abs: the reduce of one entry is that entry
        g = 1 if abs(d) == 1 else abs(int(np.gcd.reduce(v)))
        if d < 0:
            g = -g
        if g != 1:
            v //= g
            d //= g
        top = self._rtop
        if i + 1 < len(res):
            if (d + top) * top >= _I64_LIMIT and res.dtype != object:
                res = self._tightened(res, i)
                v, top = res[i], self._rtop
            _clear(res[i + 1 :], j, d, v)
            # over python ints the running bound, squared each pivot, would
            # outgrow the entries
            self._rtop = (d + top) * top if res.dtype != object else _maxabs(res[i + 1 :])
        s, k = self.scale, self._k
        if k.dtype != object and not self._fits(d + top, s * top):
            # the running bound on v is loose: read it exactly first
            top = _maxabs(v)
            if not self._fits(d + top, s * top):
                k = self._k = k.astype(object)
        if v.dtype != k.dtype:
            v = v.astype(k.dtype)
        if rank:
            _clear(k[:rank], j, d, v)
        np.multiply(v, -s, out=k[rank])
        k[rank, j] = 0
        self._top = max((d + top) * self._top, s * top)
        self.scale = s * d
        # v is primitive, so gcd(K, scale) divides the old scale
        g = gcd(s, int(np.gcd.reduce(k[:rank], axis=None))) if s > 1 else 1
        if g > 1:
            k[: rank + 1] //= g
            self.scale //= g
            self._top //= g
        return res

    def _tightened(self, res, i):
        """res with the rows after i divided by their content and _rtop read
        exactly from row i on; as python ints if that is still too large."""
        rest = res[i + 1 :]
        rest //= np.maximum(np.gcd.reduce(rest, axis=1), 1)[:, None]
        self._rtop = top = _maxabs(res[i:])
        return res if 2 * top * top < _I64_LIMIT else res.astype(object)


def _clear(rows, j, d, v):
    """rows <- d rows - rows[:, j] v in place, clearing column j when v has
    d there: all rows at once when they fit one block temporary, else only
    the rows with a nonzero in column j."""
    hit = slice(None) if rows.nbytes <= _BLOCK_BYTES else rows[:, j].nonzero()[0]
    sub = rows[hit, j, None] * v
    if d != 1:
        rows *= d
    rows[hit] -= sub


def _make_echelon(field, ambient):
    if isinstance(field, Rationals):
        return _EchelonRationals(ambient)
    if not isinstance(field, PrimeField):
        raise FieldMismatch(f"unsupported field {field!r}")
    return (_EchelonGF2 if field.p == 2 else _EchelonGFp)(ambient, field.p)


class SpanAccumulator:
    """Stream vectors into a growing canonical span.

    Memory scales with dim * ambient regardless of how many generators are
    folded: the span is the projection K, filtered by blocks, which holds
    dim * (ambient - dim) entries (residues over GF(p), bits packed 64 to a
    word over GF(2), integers over one scale over Q). ``dim`` and
    ``pivots`` are valid mid-stream; ``to_subspace`` hands the span over as
    its K-form.
    """

    def __init__(self, field, ambient):
        self.field = field
        self.ambient = ambient
        self._ech = _make_echelon(field, ambient)

    @property
    def dim(self):
        return len(self._ech.pivots)

    @property
    def pivots(self):
        return tuple(sorted(self._ech.pivots))

    def add_vectors(self, vectors, limit=None):
        """Fold dense vectors in one call: an integer array with one row
        per vector (over Q, any nonzero multiples of the vectors), or rows
        of field scalars. Each run of rows that fits a block temporary is
        read through exact_tensor (over Q, one scale per run, which leaves
        the span unchanged) and folded as one block of sparse generators.
        Stops the moment the span has dimension limit; returns the number
        of new pivots."""
        n = self.ambient
        if not (isinstance(vectors, np.ndarray) and vectors.dtype.kind in "iu"):
            vectors = list(vectors)
            if any(len(v) != n for v in vectors):
                raise DimensionMismatch(f"a vector's length is not {n}")
        elif vectors.ndim != 2 or vectors.shape[1] != n:
            raise DimensionMismatch(f"vectors {vectors.shape}, ambient {n}")
        step = max(1, _BLOCK_BYTES // (8 * max(1, n)))
        start = self.dim
        for a in range(0, len(vectors), step):
            if limit is not None and self.dim >= limit:
                break
            w = vectors[a : a + step]
            if isinstance(w, list):
                w = exact_tensor(self.field, w).arr.reshape(len(w), n)
            g, c = w.nonzero()
            self._ech.add_terms(c, w[g, c], np.bincount(g, minlength=len(w)), limit)
        return self.dim - start

    def add_pairs(self, cols, vals, lens, limit=None, picked=None):
        """Fold a block of sparse generators given as flat arrays: generator
        g is the next lens[g] (coordinate, value) terms of cols and vals,
        repeated coordinates summed. vals are integers (object dtype where
        they exceed int64) that reduce to field scalars. Stops the moment
        the span has dimension limit; returns the number of new pivots.
        picked, when given, is a list that receives the indices in the
        block of the generators that became pivots, which are linearly
        independent. Over every field the block is filtered against the
        projection K a block temporary's worth of generators at a time."""
        cols = np.asarray(cols, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        if int(lens.sum()) != len(cols) or len(vals) != len(cols):
            raise DimensionMismatch("term counts do not match the term arrays")
        if len(cols) and (cols.min() < 0 or cols.max() >= self.ambient):
            raise DimensionMismatch(f"coordinate outside the ambient {self.ambient}")
        return self._ech.add_terms(cols, np.asarray(vals), lens, limit, picked)

    def to_subspace(self):
        pivots, raw, den = self._ech.kform()
        # a copy, so folding on into this accumulator cannot reach the
        # finished subspace
        return Subspace(self.field, self.ambient, pivots, raw.copy(), den)


class Subspace:
    """A linear subspace held as its K-form (see the module docstring):
    ``pivots`` (sorted), ``free`` (the other columns, ascending) and ``k``,
    the canonical ExactTensor of -R[:, free], one row per pivot.

    It also presents the quotient F^ambient / self: the coset coordinates
    are the free columns, ``project`` maps a vector to them through the
    ``projection`` K and ``section`` embeds them back.

    Built from raw, an integer array with raw / den = -R[:, free], which
    becomes the subspace's own, so the caller passes a temporary."""

    def __init__(self, field, ambient, pivots, raw, den=1):
        self.field = field
        self.ambient = ambient
        self.pivots = tuple(pivots)
        piv = set(self.pivots)
        self.free = tuple(c for c in range(ambient) if c not in piv)
        self.k = rescaled(field, raw, den)
        self._projection = None

    @classmethod
    def zero(cls, field, ambient):
        return cls.from_vectors(field, ambient, [])

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        acc = SpanAccumulator(field, ambient)
        acc.add_vectors(vectors)
        return acc.to_subspace()

    @property
    def dim(self):
        return len(self.pivots)

    def _zeros(self, shape):
        """Zeros of a dtype that holds K's entries and its scale."""
        k = self.k
        return np.zeros(shape, dtype=k.arr.dtype if k.scale < _I64_LIMIT else object)

    def basis(self):
        """The RREF rows as one canonical ExactTensor (dim x ambient): 1 at
        the pivot, -K / scale on the free columns."""
        rows = self._zeros((self.dim, self.ambient))
        rows[:, list(self.free)] = -self.k.arr
        rows[np.arange(self.dim), list(self.pivots)] = self.k.scale
        return rescaled(self.field, rows, self.k.scale)

    def basis_vectors(self):
        """The RREF rows as lists of field scalars."""
        b = self.basis()
        return unscale(self.field, b.arr, b.scale)

    def projection(self):
        """The ExactTensor (ambient x codim) of v -> v K / scale, the
        residual of v on the free columns: scale * e_j in the row of the
        j-th free column, K in the pivot rows. Built once and kept."""
        if self._projection is None:
            self._projection = self._spread()
        return self._projection

    def _spread(self):
        """The tensor of projection, built anew."""
        out = self._zeros((self.ambient, len(self.free)))
        out[list(self.free), np.arange(len(self.free))] = self.k.scale
        out[list(self.pivots)] = self.k.arr
        return ExactTensor(out, self.k.scale, self.k.p)

    def project(self, v):
        """The coordinates of v's class in the quotient by this subspace,
        one per free column: v K / scale."""
        return _times(self.field, v, self.projection())

    def section(self, x):
        """The vector supported on the free columns with coordinates x, so
        that project(section(x)) == x on the nose."""
        if len(x) != len(self.free):
            raise DimensionMismatch(f"coset vector length {len(x)} != {len(self.free)}")
        v = [self.field.zero] * self.ambient
        for c, val in zip(self.free, x):
            v[c] = val
        return v

    def reduce(self, v):
        """Canonical residual of v modulo this subspace: v K / scale on the
        free columns, zero on the pivots."""
        return self.section(self.project(v))

    def kill_witness(self, fmap):
        """None when fmap, an ExactTensor with one row per ambient
        coordinate, kills this subspace; otherwise the pivot column of a
        basis vector that fmap does not send to zero. fmap kills it exactly
        when scale * fmap == K fmap[free], checked as one product."""
        k = self.projection()
        cols = ExactTensor(fmap.arr[list(self.free)], 1, k.p)
        w = _chain_witness([((fmap,), [(k.scale, (0, 1))]),
                            ((k, (1, cols, 0)), [(-1, (0, 1))])], k.p)
        return None if w is None else w[0]

    def contains(self, v):
        return not any(self.reduce(v))

    def __contains__(self, v):
        return self.contains(v)

    def _same_space(self, other):
        """other as a subspace of the same F^ambient, or an error."""
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {type(other).__name__}")
        ensure_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )
        return other

    def equals(self, other):
        return self == self._same_space(other)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        # array_equal, not bytes: an object K's bytes are pointers
        return (self.field, self.ambient, self.pivots, self.k.scale) == (
            other.field, other.ambient, other.pivots, other.k.scale
        ) and np.array_equal(self.k.arr, other.k.arr)

    def __hash__(self):
        return hash((self.field, self.ambient, self.pivots))

    def sum_with(self, other):
        both = (self.basis().arr, self._same_space(other).basis().arr)
        return Subspace.from_vectors(self.field, self.ambient, np.concatenate(both))

    def intersect(self, other):
        """Zassenhaus: echelonize [U|U] stacked on [W|0]; rows with zero left
        half carry an intersection basis in their right half."""
        u, w = self.basis().arr, self._same_space(other).basis().arr
        n = self.ambient
        rows = np.concatenate([np.hstack([u, u]), np.hstack([w, np.zeros_like(w)])])
        both = Subspace.from_vectors(self.field, 2 * n, rows).basis().arr
        return Subspace.from_vectors(
            self.field, n, both[~(both[:, :n] != 0).any(axis=1), n:]
        )

    def scaled(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Subspace.zero(self.field, self.ambient)
        return self

    def image_under(self, m):
        if m.ncols != self.ambient:
            raise DimensionMismatch(
                f"map expects {m.ncols} coordinates, subspace has {self.ambient}"
            )
        ensure_same_field(self.field, m.field)
        t = m.tensor()
        images = exact_tensordot(self.basis().arr, t.arr, ([1], [1]), t.p)
        return Subspace.from_vectors(self.field, m.nrows, images)

    def is_subspace_of(self, other):
        k = self._same_space(other).projection()
        return not exact_tensordot(self.basis().arr, k.arr, ([1], [0]), k.p).any()

    def __repr__(self):
        return f"<Subspace dim {self.dim} of F^{self.ambient} over {self.field.spec_str()}>"


def _times(field, v, k):
    """v K / scale, exactly, for a vector v of field scalars and the
    projection K of a subspace."""
    if len(v) != k.shape[0]:
        raise DimensionMismatch(f"vector length {len(v)} != ambient {k.shape[0]}")
    vt = exact_tensor(field, v)
    raw = exact_tensordot(vt.arr, k.arr, ([0], [0]), k.p)
    return unscale(field, raw, vt.scale * k.scale)


class Matrix:
    """Dense exact matrix over a Field; represents a map F^ncols -> F^nrows.

    Held as one canonical ExactTensor of shape nrows x ncols (see
    tensorops.rescaled), like an algebra or a subspace: products,
    comparisons and solves are exact contractions and array operations, and
    ``rows`` reads the entries back as field scalars."""

    __slots__ = ("field", "_t", "_span", "_kernel")

    def __init__(self, field, rows, ncols=None):
        rows = list(rows)
        if ncols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit ncols")
            ncols = len(rows[0])
        self._init(field, nested_tensor(field, rows, (len(rows), ncols)))

    def _init(self, field, t):
        self.field = field
        self._t = t
        # the row space, folded once for rank, rref and kernel, and the
        # kernel, computed once by kernel
        self._span = self._kernel = None
        return self

    @classmethod
    def from_raw(cls, field, raw, den=1):
        """The matrix raw / den, for raw a 2-d exact integer contraction
        whose inputs carried the total scale den; raw becomes the matrix's
        own, so the caller passes a temporary."""
        return cls.__new__(cls)._init(field, rescaled(field, raw, den))

    @classmethod
    def identity(cls, field, n):
        return cls.from_raw(field, np.eye(n, dtype=np.int64))

    def tensor(self):
        return self._t

    @property
    def rows(self):
        return unscale(self.field, self._t.arr, self._t.scale)

    @property
    def shape(self):
        return self._t.shape

    @property
    def nrows(self):
        return self._t.shape[0]

    @property
    def ncols(self):
        return self._t.shape[1]

    def apply(self, v):
        t = self._t
        return _times(self.field, v, ExactTensor(t.arr.T, t.scale, t.p))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        ensure_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        a, b = self._t, other._t
        raw = exact_tensordot(a.arr, b.arr, ([1], [0]), a.p)
        return Matrix.from_raw(self.field, raw, a.scale * b.scale)

    def transpose(self):
        return Matrix.from_raw(self.field, self._t.arr.T, self._t.scale)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        a, b = self._t, other._t
        # array_equal, not bytes: an object tensor's bytes are pointers
        return (self.field, a.shape, a.scale) == (
            other.field, b.shape, b.scale
        ) and np.array_equal(a.arr, b.arr)

    def __hash__(self):
        return hash((self.field, self.shape))

    def _row_space(self):
        if self._span is None:
            self._span = Subspace.from_vectors(self.field, self.ncols, self._t.arr)
        return self._span

    def rank(self):
        return self._row_space().dim

    def rref(self):
        sub = self._row_space()
        b = sub.basis()
        return Matrix.from_raw(self.field, b.arr, b.scale), sub.pivots

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} over {self.field.spec_str()}>"


def kernel(m):
    """Null space of m as a canonical Subspace of F^ncols, computed once and
    kept with m, read off m's row space R from the smaller side:
      * when the nullity is more than twice the rank, as {x : x R^T = 0}
        by quotient_kernel of R's basis, which folds rank rows and then
        rank more for an inverse;
      * otherwise by folding the nullity vectors read off R's projection:
        its column j is, up to its scale, the kernel vector of the j-th free
        column, 1 there and -R[:, j] on the pivots."""
    if m._kernel is not None:
        return m._kernel
    rows = m._row_space()
    nullity = m.ncols - rows.dim
    # a zero matrix has no rows to pick from: its kernel is the fold's
    if nullity > 2 * rows.dim > 0:
        sub = quotient_kernel(m.field, rows.basis().arr.T)
    else:
        # a temporary: m keeps its row space, which need not keep this
        sub = Subspace.from_vectors(m.field, m.ncols, rows._spread().arr.T)
    if sub.dim != nullity:
        raise InternalAssertionFailed(
            "rank-nullity-violated", f"kernel dim {sub.dim}, rank {rows.dim}"
        )
    m._kernel = sub
    return sub


def left_kernel(arr, free, field=QQ):
    """{x : x arr = 0} in F^ambient, arr an integer matrix (ambient x r) over
    field, as a canonical Subspace read off arr when free (r ascending rows)
    is the RREF's free set; None when it is not. With M = arr[free]
    invertible, M^-1 = N / D (D = 1 over GF(p)) and Y = arr[piv] N, the rows
    D e_q - Y[q] lie in the kernel, of dimension ambient - r, and are its
    RREF up to D exactly when no row has a nonzero in a free column left of
    its pivot: as the RREF is unique, these two exact checks prove free."""
    n, r = arr.shape
    free = np.asarray(free, dtype=np.int64)
    if len(free) != r:
        return None
    try:
        inv = right_inverse(Matrix.from_raw(field, arr[free])).tensor()
    except DimensionMismatch:
        return None
    piv = np.ones(n, dtype=bool)
    piv[free] = False
    piv = piv.nonzero()[0]
    y = exact_tensordot(arr[piv], inv.arr, ([1], [0]), inv.p)
    if (y[free[None, :] < piv[:, None]] != 0).any():
        return None
    return Subspace(field, n, piv.tolist(), y, inv.scale)


def quotient_kernel(field, phi, rows=None):
    """{x : x phi = 0} for phi (ambient x r) of rank r, by left_kernel, which
    must accept: column q of the kernel's RREF is a pivot exactly when row q
    of phi is in the span of the later rows, so the free set is the greedy
    pick of phi's rows from the last. rows, ascending, when given, are the
    only rows that can be free, every other row being in the span of the
    rows after it: the pick then reads those alone."""
    back = np.arange(len(phi))[::-1] if rows is None else np.asarray(rows)[::-1]
    pick = Subspace.from_vectors(field, len(back), phi[back].T)
    out = left_kernel(phi, np.sort(back[list(pick.pivots)]), field)
    if out is None:
        raise InternalAssertionFailed("quotient-kernel-not-canonical", f"rank {pick.dim}")
    return out


def _solve(m, b):
    """The canonical x with m x = b, for b a matrix of m.nrows rows: free
    coordinates zero, and on the pivots -K[:, b's columns] / scale, read
    off the K-form of the rows of [m | b]. None when a pivot of [m | b]
    lands in b, that is, when a column of b is outside the column space."""
    n, k = m.ncols, b.ncols
    a, c = m.tensor(), b.tensor()
    aug = np.concatenate([_scaled(a.arr, c.scale), _scaled(c.arr, a.scale)], axis=1)
    red = Subspace.from_vectors(m.field, n + k, aug)
    if red.pivots and red.pivots[-1] >= n:
        return None
    # b's columns are free, and the last k of the free columns
    x = red._zeros((n, k))
    x[list(red.pivots)] = -red.k.arr[:, len(red.free) - k :]
    return Matrix.from_raw(m.field, x, red.k.scale)


def solve_columns(m, rhs_cols):
    """Solve m @ x = b for each b in rhs_cols, each of length m.nrows;
    returns columns or None.

    Solutions are the canonical particular ones: free coordinates zero,
    pivot coordinates read off the reduced augmented matrix, one fold per
    right-hand side. A None entry means that rhs is outside the column
    space; a right-hand side of another length is a DimensionMismatch.
    """
    b = Matrix(m.field, rhs_cols, m.nrows).tensor()
    outs = []
    for t in range(b.shape[0]):
        x = _solve(m, Matrix.from_raw(m.field, b.arr[[t]].T, b.scale))
        outs.append(None if x is None else x.transpose().rows[0])
    return outs


def right_inverse(m):
    """A section of a surjective m: columns solve m @ s_j = e_j."""
    s = _solve(m, Matrix.identity(m.field, m.nrows))
    if s is None:
        raise DimensionMismatch("matrix is not surjective; no right inverse")
    return s
