"""Exact dense linear algebra over the package's ground fields.

Subspaces are canonicalized to reduced row echelon form, which turns subspace
equality into literal row comparison. Three elimination backends share that
contract:

  * rationals: primitive integer rows (fraction-free steps, content gcd'd
    out, pivot entries positive); the textbook RREF with pivot entries 1 is
    recovered on export;
  * GF(p): dense numpy int64 rows reduced mod p, pivots normalized to 1;
    exact because every intermediate product stays below 2**62;
  * GF(2): rows packed into python ints, one bit per column.

Over GF(2) the packed backend is the default; ``packed=False`` forces the
generic numpy path so the two implementations can be cross-checked.

Accumulators keep only a forward echelon while vectors stream in and
back-eliminate once when the canonical form is first needed.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, InternalAssertionFailed
from .fields import Field, PrimeField, Rationals, ensure_same_field
from .tensorops import (
    _I64_LIMIT,
    ExactTensor,
    _scaled,
    _witness,
    exact_tensor,
    exact_tensordot,
    unscale,
)

__all__ = [
    "Matrix",
    "Subspace",
    "QuotientSpace",
    "SpanAccumulator",
    "span_incremental",
    "rref",
    "kernel",
    "quotient",
    "solve_columns",
    "right_inverse",
    "generic_gf2",
]


def _first_nonzero(v, start):
    for t in range(start, len(v)):
        if v[t]:
            return t
    return -1


def _strip_content(v, start):
    g = 0
    for t in range(start, len(v)):
        x = v[t]
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for t in range(start, len(v)):
            if v[t]:
                v[t] //= g


def _int_vector(v):
    """Clear denominators: scale a rational vector to a primitive-free int one."""
    den = 1
    for x in v:
        if type(x) is Fraction:
            den = lcm(den, x.denominator)
    if den == 1:
        return [int(x) for x in v]
    out = []
    for x in v:
        if type(x) is Fraction:
            out.append(int(x.numerator * (den // x.denominator)))
        else:
            out.append(int(x) * den)
    return out


def _projection_tensor(n, pivots, cols, block, scale, p):
    """The ambient x len(cols) projection matrix: scale * e_j in the row of
    the j-th coset column, block (one row per pivot) in the pivot rows."""
    k = np.zeros((n, len(cols)), dtype=block.dtype)
    k[list(cols), np.arange(len(cols))] = scale
    k[list(pivots)] = block
    return ExactTensor(k, scale, p)


class _EchelonQ:
    """Forward echelon over Q held as primitive integer rows."""

    __slots__ = ("n", "rows", "pivots", "supports", "_col", "_final")

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.pivots = []
        self.supports = []
        self._col = {}
        self._final = False

    def add_dense(self, v):
        v = _int_vector(v)
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.n}")
        j = _first_nonzero(v, 0)
        steps = 0
        while j >= 0:
            k = self._col.get(j)
            if k is None:
                break
            row = self.rows[k]
            a = row[j]
            c = v[j]
            g = gcd(a, c)
            am = a // g
            cm = c // g
            if am != 1:
                for t in range(j, self.n):
                    if v[t]:
                        v[t] *= am
            for t in self.supports[k]:
                v[t] -= cm * row[t]
            steps += 1
            if steps % 24 == 0:
                _strip_content(v, j + 1)
            j = _first_nonzero(v, j + 1)
        if j < 0:
            return False
        _strip_content(v, j)
        if v[j] < 0:
            for t in range(j, self.n):
                if v[t]:
                    v[t] = -v[t]
        pos = bisect_left(self.pivots, j)
        self.rows.insert(pos, v)
        self.pivots.insert(pos, j)
        self.supports.insert(pos, [t for t in range(j, self.n) if v[t]])
        self._col = {p: i for i, p in enumerate(self.pivots)}
        self._final = False
        return True

    def finalize(self):
        if self._final:
            return
        for i in range(len(self.rows) - 1, 0, -1):
            p = self.pivots[i]
            low = self.rows[i]
            a = low[p]
            for k in range(i):
                up = self.rows[k]
                c = up[p]
                if not c:
                    continue
                g = gcd(a, c)
                am = a // g
                cm = c // g
                pk = self.pivots[k]
                if am != 1:
                    for t in range(pk, self.n):
                        if up[t]:
                            up[t] *= am
                for t in range(p, self.n):
                    if low[t]:
                        up[t] -= cm * low[t]
                _strip_content(up, pk)
        self.supports = [
            [t for t in range(p, self.n) if row[t]]
            for row, p in zip(self.rows, self.pivots)
        ]
        self._final = True

    def canonical_rows(self):
        self.finalize()
        out = []
        for row, p in zip(self.rows, self.pivots):
            a = row[p]
            out.append([Fraction(x, a) for x in row])
        return out

    def reduce_exact(self, v):
        self.finalize()
        w = [x if type(x) is Fraction else Fraction(x) for x in v]
        for i, p in enumerate(self.pivots):
            c = w[p]
            if c:
                row = self.rows[i]
                f = c / row[p]
                for t in self.supports[i]:
                    w[t] -= f * row[t]
        return w

    def projection(self, cols):
        self.finalize()
        scale = lcm(*(row[p] for row, p in zip(self.rows, self.pivots)))
        vals = [
            -row[c] * (scale // row[p])
            for row, p in zip(self.rows, self.pivots)
            for c in cols
        ]
        top = max(max(map(abs, vals), default=0), scale)
        block = np.array(vals, dtype=np.int64 if top < _I64_LIMIT else object)
        block = block.reshape(len(self.rows), len(cols))
        return _projection_tensor(self.n, self.pivots, cols, block, scale, None)

    def key(self):
        self.finalize()
        return tuple(tuple(row) for row in self.rows)

    def snapshot(self):
        out = _EchelonQ(self.n)
        out.rows = [row[:] for row in self.rows]
        out.pivots = self.pivots[:]
        out.supports = [s[:] for s in self.supports]
        out._col = dict(self._col)
        out._final = self._final
        return out


class _EchelonGFp:
    """Forward echelon over GF(p) on dense numpy int64 rows."""

    __slots__ = ("n", "p", "rows", "pivots", "_col", "_final")

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.rows = []
        self.pivots = []
        self._col = {}
        self._final = False

    def _coerce(self, v):
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.n}")
        w = np.array([int(x) % self.p for x in v], dtype=np.int64)
        return w

    def add_dense(self, v):
        return self._add_arr(self._coerce(v))

    def _add_arr(self, w):
        p = self.p
        while True:
            nz = np.nonzero(w)[0]
            if len(nz) == 0:
                return False
            j = int(nz[0])
            k = self._col.get(j)
            if k is None:
                w = (w * pow(int(w[j]), -1, p)) % p
                pos = bisect_left(self.pivots, j)
                self.rows.insert(pos, w)
                self.pivots.insert(pos, j)
                self._col = {q: i for i, q in enumerate(self.pivots)}
                self._final = False
                return True
            w = (w - int(w[j]) * self.rows[k]) % p

    def finalize(self):
        if self._final:
            return
        p_mod = self.p
        for i in range(len(self.rows) - 1, 0, -1):
            p = self.pivots[i]
            low = self.rows[i]
            for k in range(i):
                c = int(self.rows[k][p])
                if c:
                    self.rows[k] = (self.rows[k] - c * low) % p_mod
        self._final = True

    def canonical_rows(self):
        self.finalize()
        return [[int(x) for x in row] for row in self.rows]

    def reduce_exact(self, v):
        self.finalize()
        w = self._coerce(v)
        for i, p in enumerate(self.pivots):
            c = int(w[p])
            if c:
                w = (w - c * self.rows[i]) % self.p
        return [int(x) for x in w]

    def projection(self, cols):
        self.finalize()
        c = list(cols)
        block = np.array([row[c] for row in self.rows], dtype=np.int64)
        block = (-block.reshape(len(self.rows), len(c))) % self.p
        return _projection_tensor(self.n, self.pivots, cols, block, 1, self.p)

    def key(self):
        self.finalize()
        return tuple(tuple(int(x) for x in row) for row in self.rows)

    def snapshot(self):
        out = _EchelonGFp(self.n, self.p)
        out.rows = [row.copy() for row in self.rows]
        out.pivots = self.pivots[:]
        out._col = dict(self._col)
        out._final = self._final
        return out


class _EchelonGF2:
    """Forward echelon over GF(2), one python int bitmask per row."""

    __slots__ = ("n", "rows", "pivots", "_col", "_final")

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.pivots = []
        self._col = {}
        self._final = False

    def pack(self, v):
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.n}")
        m = 0
        for i, x in enumerate(v):
            if int(x) & 1:
                m |= 1 << i
        return m

    def add_dense(self, v):
        return self.add_mask(self.pack(v))

    def add_mask(self, m):
        while m:
            j = (m & -m).bit_length() - 1
            k = self._col.get(j)
            if k is None:
                pos = bisect_left(self.pivots, j)
                self.rows.insert(pos, m)
                self.pivots.insert(pos, j)
                self._col = {q: i for i, q in enumerate(self.pivots)}
                self._final = False
                return True
            m ^= self.rows[k]
        return False

    def finalize(self):
        if self._final:
            return
        for i in range(len(self.rows) - 1, 0, -1):
            bit = 1 << self.pivots[i]
            low = self.rows[i]
            for k in range(i):
                if self.rows[k] & bit:
                    self.rows[k] ^= low
        self._final = True

    def canonical_rows(self):
        self.finalize()
        return [[(m >> t) & 1 for t in range(self.n)] for m in self.rows]

    def reduce_mask(self, m):
        self.finalize()
        for i, p in enumerate(self.pivots):
            if (m >> p) & 1:
                m ^= self.rows[i]
        return m

    def reduce_exact(self, v):
        m = self.reduce_mask(self.pack(v))
        return [(m >> t) & 1 for t in range(self.n)]

    def projection(self, cols):
        self.finalize()
        # bit t of a row mask is bit t % 8 of its byte t // 8, little endian
        width = (self.n + 7) // 8
        packed = np.frombuffer(
            b"".join(m.to_bytes(width, "little") for m in self.rows), np.uint8
        ).reshape(len(self.rows), width)
        c = np.array(cols, dtype=np.intp)
        block = ((packed[:, c >> 3] >> (c & 7)) & 1).astype(np.int64)
        return _projection_tensor(self.n, self.pivots, cols, block, 1, 2)

    def key(self):
        self.finalize()
        return tuple(self.rows)

    def snapshot(self):
        out = _EchelonGF2(self.n)
        out.rows = self.rows[:]
        out.pivots = self.pivots[:]
        out._col = dict(self._col)
        out._final = self._final
        return out


# Packed bitset rows are the default over GF(2); generic_gf2 switches it off
# for the length of a block.
_GF2_PACKED_DEFAULT = True


@contextmanager
def generic_gf2():
    """Within the block, every packed=None construction over GF(2) runs on
    the generic modular backend, so a whole pipeline can be replayed on the
    second implementation and compared. The previous default is restored
    on exit, also when the block raises."""
    global _GF2_PACKED_DEFAULT
    prev = _GF2_PACKED_DEFAULT
    _GF2_PACKED_DEFAULT = False
    try:
        yield
    finally:
        _GF2_PACKED_DEFAULT = prev


def _make_echelon(field, ambient, packed):
    if isinstance(field, Rationals):
        return _EchelonQ(ambient)
    if not isinstance(field, PrimeField):
        raise FieldMismatch(f"unsupported field {field!r}")
    if packed is None:
        packed = field.p == 2 and _GF2_PACKED_DEFAULT
    if packed:
        if field.p != 2:
            raise FieldMismatch("packed rows exist only over GF(2)")
        return _EchelonGF2(ambient)
    return _EchelonGFp(ambient, field.p)


class SpanAccumulator:
    """Stream vectors into a growing canonical span.

    Memory scales with dim * ambient regardless of how many generators are
    folded. ``dim`` and ``pivots`` are valid mid-stream; the canonical RREF
    is produced lazily by ``to_subspace``.
    """

    def __init__(self, field, ambient, packed=None):
        self.field = field
        self.ambient = ambient
        self._ech = _make_echelon(field, ambient, packed)

    @property
    def dim(self):
        return len(self._ech.pivots)

    @property
    def pivots(self):
        return tuple(self._ech.pivots)

    def add_dense(self, v):
        return self._ech.add_dense(v)

    def add_pairs(self, pairs):
        ech = self._ech
        if isinstance(ech, _EchelonGF2):
            m = 0
            for i, c in pairs:
                if int(c) & 1:
                    m ^= 1 << i
            return ech.add_mask(m)
        if isinstance(ech, _EchelonGFp):
            w = np.zeros(self.ambient, dtype=np.int64)
            for i, c in pairs:
                w[i] = (w[i] + int(c)) % ech.p
            return ech._add_arr(w)
        v = [0] * self.ambient
        for i, c in pairs:
            v[i] = v[i] + c if v[i] else c
        return ech.add_dense(v)

    def to_subspace(self):
        # snapshot so a later add/finalize on this accumulator cannot mutate
        # rows the returned subspace also references
        self._ech.finalize()
        return Subspace(self.field, self.ambient, self._ech.snapshot())


class Subspace:
    """A linear subspace held in canonical reduced row echelon form."""

    def __init__(self, field, ambient, echelon):
        self.field = field
        self.ambient = ambient
        self._ech = echelon
        self._ech.finalize()

    @classmethod
    def zero(cls, field, ambient, packed=None):
        return cls(field, ambient, _make_echelon(field, ambient, packed))

    @classmethod
    def from_vectors(cls, field, ambient, vectors, packed=None):
        acc = SpanAccumulator(field, ambient, packed)
        for v in vectors:
            acc.add_dense(v)
        return acc.to_subspace()

    @property
    def dim(self):
        return len(self._ech.pivots)

    @property
    def pivots(self):
        return tuple(self._ech.pivots)

    def basis_vectors(self):
        return self._ech.canonical_rows()

    def reduce(self, v):
        """Canonical residual of v modulo this subspace."""
        return self._ech.reduce_exact(v)

    def contains(self, v):
        return not any(self.reduce(v))

    def __contains__(self, v):
        return self.contains(v)

    def _key(self):
        # one canonical key per (field, ambient) so packed and generic
        # representations over GF(2) compare equal
        if self.field.characteristic == 2:
            if isinstance(self._ech, _EchelonGF2):
                return self._ech.key()
            masks = []
            for row in self._ech.canonical_rows():
                m = 0
                for i, x in enumerate(row):
                    if x & 1:
                        m |= 1 << i
                masks.append(m)
            return tuple(masks)
        return self._ech.key()

    def equals(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("subspace comparison needs a Subspace")
        ensure_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )
        return self.pivots == other.pivots and self._key() == other._key()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.field != other.field or self.ambient != other.ambient:
            return False
        return self.pivots == other.pivots and self._key() == other._key()

    def __hash__(self):
        return hash((self.field, self.ambient, self.pivots))

    def _packed_pref(self):
        return isinstance(self._ech, _EchelonGF2)

    def sum_with(self, other):
        ensure_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspace sum needs equal ambient dimensions")
        acc = SpanAccumulator(self.field, self.ambient, self._packed_pref() or None)
        for v in self.basis_vectors():
            acc.add_dense(v)
        for v in other.basis_vectors():
            acc.add_dense(v)
        return acc.to_subspace()

    def intersect(self, other):
        """Zassenhaus: echelonize [U|U] stacked on [W|0]; rows with zero left
        half carry an intersection basis in their right half."""
        ensure_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch("intersection needs equal ambient dimensions")
        n = self.ambient
        acc = SpanAccumulator(self.field, 2 * n)
        for v in self.basis_vectors():
            acc.add_dense(list(v) + list(v))
        for v in other.basis_vectors():
            acc.add_dense(list(v) + [self.field.zero] * n)
        out = SpanAccumulator(self.field, n, self._packed_pref() or None)
        for row in acc.to_subspace().basis_vectors():
            if not any(row[:n]):
                out.add_dense(row[n:])
        return out.to_subspace()

    def scaled(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Subspace.zero(self.field, self.ambient, self._packed_pref() or None)
        return self

    def image_under(self, m):
        if m.ncols != self.ambient:
            raise DimensionMismatch(
                f"map expects {m.ncols} coordinates, subspace has {self.ambient}"
            )
        ensure_same_field(self.field, m.field)
        acc = SpanAccumulator(self.field, m.nrows, self._packed_pref() or None)
        for v in self.basis_vectors():
            acc.add_dense(m.apply(v))
        return acc.to_subspace()

    def is_subspace_of(self, other):
        return all(other.contains(v) for v in self.basis_vectors())

    def __repr__(self):
        return f"<Subspace dim {self.dim} of F^{self.ambient} over {self.field.spec_str()}>"


class QuotientSpace:
    """Coordinates for ambient/killed with an explicit coordinate section.

    Coset coordinates are the non-pivot columns C of the killed subspace in
    increasing order; ``section`` embeds a coset vector back supported on
    exactly those columns, so project(section(x)) == x on the nose.

    Projection is one exact matrix K (``projection``, an ExactTensor of
    shape ambient x dim) read off the RREF of the killed subspace: row c_j
    of K is scale * e_j, and for RREF row i with pivot column p_i and pivot
    entry a_i, row p_i of K is -R[i, C] * scale / a_i. Then
    project(v) = v K / scale exactly, and a map F (one row per ambient
    coordinate) kills the killed subspace exactly when
    scale * F == K F[C], which ``kill_witness`` checks as one product.
    """

    def __init__(self, killed):
        self.killed = killed
        self.field = killed.field
        self.ambient = killed.ambient
        piv = set(killed.pivots)
        self.coset_coords = tuple(i for i in range(self.ambient) if i not in piv)
        self.dim = len(self.coset_coords)
        self._projection = None

    @property
    def projection(self):
        if self._projection is None:
            self._projection = self.killed._ech.projection(self.coset_coords)
        return self._projection

    def project(self, v):
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        vt = exact_tensor(self.field, v)
        k = self.projection
        raw = exact_tensordot(vt.arr, k.arr, ([0], [0]), k.p)
        return unscale(self.field, raw, vt.scale * k.scale)

    def kill_witness(self, fmap):
        """None when fmap, an ExactTensor with one row per ambient
        coordinate, kills the killed subspace; otherwise the pivot column
        of a killed basis vector that fmap does not send to zero."""
        k = self.projection
        cols = fmap.arr[list(self.coset_coords)]
        res = _scaled(fmap.arr, k.scale) - exact_tensordot(
            k.arr, cols, ([1], [0]), k.p
        )
        w = _witness(res, k.p)
        return None if w is None else w[0]

    def section(self, x):
        if len(x) != self.dim:
            raise DimensionMismatch(f"coset vector length {len(x)} != {self.dim}")
        v = [self.field.zero] * self.ambient
        for c, val in zip(self.coset_coords, x):
            v[c] = val
        return v

    def __repr__(self):
        return (
            f"<QuotientSpace F^{self.ambient}/(dim {self.killed.dim}) "
            f"over {self.field.spec_str()}>"
        )


def quotient(ambient, killed):
    if killed.ambient != ambient:
        raise DimensionMismatch(
            f"killed subspace lives in F^{killed.ambient}, not F^{ambient}"
        )
    return QuotientSpace(killed)


def span_incremental(field, ambient, vectors, packed=None):
    acc = SpanAccumulator(field, ambient, packed)
    for v in vectors:
        acc.add_dense(v)
    return acc.to_subspace()


class Matrix:
    """Dense exact matrix over a Field; represents a map F^ncols -> F^nrows."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_rank")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise DimensionMismatch("ncols disagrees with row length")
        else:
            if ncols is None:
                raise DimensionMismatch("empty matrix needs an explicit ncols")
            self.ncols = ncols
        self._rank = None

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        if not cols:
            return cls(field, [[] for _ in range(nrows)], 0)
        rows = [[col[i] for col in cols] for i in range(nrows)]
        return cls(field, rows, len(cols))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j):
        return [r[j] for r in self.rows]

    def to_columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def apply(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch(f"vector length {len(v)} != ncols {self.ncols}")
        f = self.field
        out = []
        for r in self.rows:
            s = f.zero
            for a, x in zip(r, v):
                if a and x:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        ensure_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.shape} with {other.shape}"
            )
        f = self.field
        ocols = other.ncols
        out = []
        for r in self.rows:
            row = [f.zero] * ocols
            for k, a in enumerate(r):
                if a:
                    ork = other.rows[k]
                    for j in range(ocols):
                        b = ork[j]
                        if b:
                            row[j] = f.add(row[j], f.mul(a, b))
            out.append(row)
        return Matrix(f, out, ocols)

    def transpose(self):
        return Matrix(self.field, [self.col(j) for j in range(self.ncols)], self.nrows)

    def __eq__(self, other):
        # scalars are canonical residues (GF(p)) or Fraction/int (Q), where
        # python == is exact
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and all(a == b for r1, r2 in zip(self.rows, other.rows)
                    for a, b in zip(r1, r2))
        )

    def __hash__(self):
        return hash((self.field, self.shape))

    def rank(self):
        if self._rank is None:
            acc = SpanAccumulator(self.field, self.ncols)
            for r in self.rows:
                acc.add_dense(r)
            self._rank = acc.dim
        return self._rank

    def rref(self):
        acc = SpanAccumulator(self.field, self.ncols)
        for r in self.rows:
            acc.add_dense(r)
        sub = acc.to_subspace()
        self._rank = sub.dim
        return Matrix(self.field, sub.basis_vectors(), self.ncols), sub.pivots

    def kernel(self, packed=None):
        return kernel(self, packed)

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols} over {self.field.spec_str()}>"


def rref(m):
    """Unique reduced row echelon form of m (zero rows dropped) and pivots."""
    return m.rref()


def kernel(m, packed=None):
    """Null space of m as a canonical Subspace of F^ncols."""
    f = m.field
    red, piv = m.rref()
    pivset = set(piv)
    free = [j for j in range(m.ncols) if j not in pivset]
    vecs = []
    for fcol in free:
        v = [f.zero] * m.ncols
        v[fcol] = f.one
        for i, p in enumerate(piv):
            a = red.rows[i][fcol]
            if a:
                v[p] = f.neg(a)
        vecs.append(v)
    sub = Subspace.from_vectors(f, m.ncols, vecs, packed)
    if sub.dim != m.ncols - len(piv):
        raise InternalAssertionFailed(
            "rank-nullity-violated", f"kernel dim {sub.dim}, rank {len(piv)}"
        )
    return sub


def solve_columns(m, rhs_cols):
    """Solve m @ x = b for each b in rhs_cols; returns columns or None.

    Solutions are the canonical particular ones: free coordinates zero,
    pivot coordinates read off the reduced augmented matrix. A None entry
    means that rhs is outside the column space.
    """
    f = m.field
    k = len(rhs_cols)
    acc = SpanAccumulator(f, m.ncols + k)
    for i, r in enumerate(m.rows):
        acc.add_dense(list(r) + [col[i] for col in rhs_cols])
    red = acc.to_subspace()
    rows = red.basis_vectors()
    piv = red.pivots
    # a pivot landing inside the augmented block means at least one rhs is
    # inconsistent; in that case verify each candidate by multiplying back
    suspect = any(p >= m.ncols for p in piv)
    outs = []
    for t in range(k):
        x = [f.zero] * m.ncols
        for i, p in enumerate(piv):
            if p < m.ncols:
                x[p] = rows[i][m.ncols + t]
        if suspect and m.apply(x) != list(rhs_cols[t]):
            outs.append(None)
            continue
        outs.append(x)
    return outs


def right_inverse(m):
    """A section of a surjective m: columns solve m @ s_j = e_j."""
    f = m.field
    eye = Matrix.identity(f, m.nrows)
    cols = solve_columns(m, eye.to_columns())
    if any(c is None for c in cols):
        raise DimensionMismatch("matrix is not surjective; no right inverse")
    return Matrix.from_columns(f, cols, m.ncols)
