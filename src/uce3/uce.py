"""Universal central extensions in three categories, built as explicit
quotients of tensor powers.

All three constructions follow one recipe. Pick the ambient space (g (x) g,
the wedge square, or the triple tensor power), stream in the relation
generators, and quotient. Generators arrive in blocks of flat numpy
(coordinate, value) terms, built by index arithmetic on the nonzeros of
the structure tensor; repeated coordinates are summed by the fold:

  * Leibniz:  relations [x,y] (x) z - [x,z] (x) y - x (x) [y,z];
  * Lie:      relations [x,y] ^ z + [y,z] ^ x + [z,x] ^ y on the wedge,
              folded as the wedge image of the Leibniz relations (on a Lie
              algebra the two generators agree), x < y < z only: the
              generator is alternating in (x, y, z);
  * LTS:      the polarized squares, spanning S = L (x) Sym^2 L, the
              cyclic sums and the five-variable family {x,a,b} (x) y (x) z
              + x (x) {y,a,b} (x) z + x (x) y (x) {z,a,b} - {x,y,z} (x) a
              (x) b, the last two folded modulo S + L (x) W (W the slabs'
              linear relations) for i < j < k, y < z and (a, b) in a slab
              basis only, and lifted back (see lts_tensor_cube).

These reductions rest on the category's axioms, which each constructor
checks by admit before it folds anything.

The quotient comes with one exact projection matrix K (ambient x carrier,
read off the RREF of the relation span; see Subspace.projection). The
bracket on the quotient is the images under the evaluation map,
re-tensored and projected: one slotwise contraction of K with the image
matrix, not a loop over basis tuples. The projection to the base is the evaluation map itself,
and the kernel of that projection is the second homology of the base.

Everything a proof would normally guarantee is instead asserted on the
constructed objects: the evaluation map kills the relation span (which also
gives the ideal property, since the bracket factors slotwise through the
evaluation map), the carrier is perfect, the projection is surjective, and
the quotient is a central extension by CentralExtension.verify, the same
battery that checks hand-built extensions: category axioms, central kernel,
and a bracket morphism split by the stored section. A map F with one row
per ambient coordinate kills the relation span exactly when
scale * F == K F[C], C the coset coordinates; that single product is the
check both for the evaluation map here and for the canonical map in
universal_map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .algebra import (
    CATEGORIES,
    bracket_span_dim,
    require_category,
    wedge_index_pairs,
    wedge_map,
)
from .errors import (
    AxiomPrecondition,
    DimensionGuard,
    DimensionMismatch,
    InternalAssertionFailed,
    NotCentral,
    NotOverSameBase,
    NotPerfect,
    SemanticError,
    WellDefinednessFailed,
    WrongCategory,
)
from .fields import PrimeField, ensure_same_field
from .linalg import (
    Matrix,
    SpanAccumulator,
    kernel,
    left_kernel,
    quotient_kernel,
    right_inverse,
    take_generators,
)
from . import tensorops as tops

__all__ = [
    "UceResult",
    "HomologyReport",
    "CentralExtension",
    "leibniz_uce",
    "lie_uce",
    "lts_tensor_cube",
    "homology",
    "universal_map",
    "admit",
    "dimension_guard",
    "LTS_DIM_GUARD",
    "BINARY_DIM_GUARD",
]

# desk-scale limits on the base dimension: the cube folds up to r dim
# C(dim, 2) generators, r <= C(dim, 2) the slabs' rank, into dim r of its
# dim**3 coordinates, the binary categories up to dim**3 over dim**2
LTS_DIM_GUARD = 12
BINARY_DIM_GUARD = 25

# the prime of the shadow fold over Q: the largest whose products of two
# residues stay below 2**62, so the GF(p) block fold runs it exactly and
# the rank it misses (a minor divisible by it) is least likely
SHADOW_PRIME = 2**31 - 1


def dimension_guard(dim, category, force):
    """Refuse a base past the dimension guard of its category unless forced."""
    limit = LTS_DIM_GUARD if category == "lts" else BINARY_DIM_GUARD
    if dim > limit and not force:
        ambient = dim ** CATEGORIES[category][0].arity
        raise DimensionGuard(
            f"dim {dim} exceeds the {category} guard {limit} (ambient "
            f"{ambient}); pass --force (force=True) to proceed"
        )


def _row_nonzeros(m):
    """The nonzeros of a 2-d array in row-major order: their rows, columns
    and values, the place of each within its row, and the count per row."""
    r, k = m.nonzero()
    counts = np.bincount(r, minlength=m.shape[0])
    local = np.arange(len(r)) - (np.cumsum(counts) - counts)[r]
    return r, k, m[r, k], local, counts


def _terms(families):
    """Lay relation generators out as the flat (cols, vals, lens) arrays
    that SpanAccumulator.add_pairs folds. A family is (gen, local, col,
    val, count), broadcastable arrays: the term (col, val) is the local-th
    of the count[gen] terms the family gives generator gen. A generator's
    terms are its families' terms in family order.

    Values are raw structure constants carrying the tensor's scale; every
    relation generator is linear in them, so a common positive scale
    leaves the relation span unchanged."""
    lens = sum(f[4] for f in families)
    offset = np.cumsum(lens) - lens
    cols = np.empty(int(lens.sum()), dtype=np.int64)
    vals = np.empty(len(cols), dtype=families[0][3].dtype)
    for gen, local, col, val, count in families:
        pos = offset[gen] + local
        cols[pos] = col
        vals[pos] = val
        offset += count
    return cols, vals, lens


def _same_base(a, b):
    if type(a) is not type(b):
        raise NotOverSameBase("extensions live over algebras of different arity")
    ensure_same_field(a.field, b.field)
    if a.dim != b.dim:
        raise NotOverSameBase(f"base dimensions differ: {a.dim} vs {b.dim}")
    if a != b:
        raise NotOverSameBase("base structure constants differ")


class CentralExtension:
    """A surjection of algebras with split section and central kernel.

    This is the input shape universal_map accepts; every UceResult is one,
    and tests can hand-build them. Nothing about the data is trusted:
    verify() recomputes the kernel and checks every defining property,
    raising NotCentral on the first violation.
    """

    def __init__(self, category, base, algebra, projection, section):
        if category not in CATEGORIES:
            raise WrongCategory(f"category must be one of {tuple(CATEGORIES)}")
        self.category = category
        self.base = base
        self.algebra = algebra
        self.projection = projection
        self.section = section
        self.kernel = None
        self._verified = False

    @property
    def carrier_dim(self):
        return self.algebra.dim

    def verify(self):
        if self._verified:
            return self
        try:
            require_category(self.algebra, self.category)
        except AxiomPrecondition as e:
            raise NotCentral(f"carrier fails its category's axioms: {e}")
        if not isinstance(self.base, CATEGORIES[self.category][0]):
            raise WrongCategory(
                f"category {self.category} does not match the base's arity"
            )
        ensure_same_field(self.base.field, self.algebra.field)
        ensure_same_field(self.base.field, self.projection.field)
        m, n = self.algebra.dim, self.base.dim
        if self.projection.shape != (n, m):
            raise DimensionMismatch(
                f"projection must be {n} x {m}, got {self.projection.shape}"
            )
        if self.section.shape != (m, n):
            raise DimensionMismatch(
                f"section must be {m} x {n}, got {self.section.shape}"
            )
        if self.projection @ self.section != Matrix.identity(self.base.field, n):
            raise NotCentral("section is not split by the projection")
        wit = tops.morphism_witness(
            self.algebra.tensor(), self.base.tensor(), self.projection.tensor()
        )
        if wit is not None:
            raise NotCentral(f"projection is not a bracket morphism at {wit}")
        self.kernel = kernel(self.projection)
        if self.kernel.dim:
            zt = self.kernel.basis()
            et = self.algebra.tensor()
            for slot in range(self.algebra.arity):
                w = tops.central_slot_witness(et, zt, slot)
                if w is not None:
                    raise NotCentral(
                        f"kernel is not central: slot {slot} witness {w}"
                    )
        self._verified = True
        return self


@dataclass(frozen=True)
class HomologyReport:
    h1_dim: int
    h2_dim: int
    h2_basis: tuple


class UceResult(CentralExtension):
    """A constructed universal central extension, verified as a
    CentralExtension when it is built.

    relations: the relation span in the tensor ambient; the extension is
    the quotient by it, on the coset coordinates relations.free. algebra is
    the induced bracket there, projection evaluation onto the base, section
    a linear splitting of it, and kernel, the kernel of projection, is H2.
    """

    def __init__(self, category, base, algebra, projection, section, relations):
        super().__init__(category, base, algebra, projection, section)
        self.relations = relations

    def to_json(self):
        """The result as JSON text in json.dumps(..., sort_keys=True,
        indent=1) form, the extension's table rendered by dumps_algebra."""
        from .serialize import dumps_algebra, json_object

        return json_object({
            "category": json.dumps(self.category),
            "base": json.dumps(self.base.name),
            "carrier_dim": json.dumps(self.carrier_dim),
            "h2_dim": json.dumps(self.kernel.dim),
            "relation_dim": json.dumps(self.relations.dim),
            "algebra": dumps_algebra(self.algebra),
        })

    def to_dict(self):
        """The parse of to_json."""
        return json.loads(self.to_json())

    def __repr__(self):
        return (
            f"<UceResult {self.category} over {self.base.name or 'base'}: "
            f"carrier {self.carrier_dim}, h2 {self.kernel.dim}>"
        )


def homology(u):
    """H1 = coker of the bracket span, H2 = kernel of the projection."""
    lifts = tuple(tuple(u.relations.section(v)) for v in u.kernel.basis_vectors())
    return HomologyReport(
        h1_dim=u.base.dim - bracket_span_dim(u.base),
        h2_dim=u.kernel.dim,
        h2_basis=lifts,
    )


def _fold_relations(field, ambient, blocks, stop_dim, ev, rng=None):
    """Echelonize the relation generators; blocks() yields them one
    (cols, vals, lens) block at a time (see SpanAccumulator.add_pairs), and
    yields them again when called again.

    ev is the evaluation map (see _finish_extension) and stop_dim the
    dimension of its kernel, which contains the relation span (asserted
    afterwards), so the fold stops the moment it reaches stop_dim, also in
    the middle of a block, and later blocks are never built.

    Over Q the generators are folded mod SHADOW_PRIME by the GF(p) block
    fold, each block first checked exactly to evaluate to zero. A rank mod
    p is at most the rank over Q, so the generators that became pivots mod
    p (the picked ones) are independent over Q:
      * when they reach stop_dim they span the kernel of ev, read off ev
        and the free columns mod p by left_kernel, which checks them;
      * otherwise, or if they are not, the picked generators are folded
        exactly; short of stop_dim, the stream is replayed through the exact
        fold, which filters each block against the exact projection K and
        folds in what K does not kill. The span never depends on the prime.

    rng, when given, shuffles all the generators before folding; the
    subspace does not depend on their order, which the determinism tests
    exercise."""
    if rng is not None:
        shuffled = _shuffled(list(blocks()), rng)

        def blocks():
            return [shuffled]

    if field.characteristic:
        acc = SpanAccumulator(field, ambient)
        _fold(acc, blocks(), stop_dim)
        return acc.to_subspace()
    shadow = SpanAccumulator(PrimeField(SHADOW_PRIME), ambient)
    picked = []
    _fold(shadow, _evaluating_to_zero(blocks(), ev), stop_dim, picked)
    if shadow.dim == stop_dim:
        piv = set(shadow.pivots)
        relations = left_kernel(ev.arr, [c for c in range(ambient) if c not in piv])
        if relations is not None:
            return relations
    exact = SpanAccumulator(field, ambient)
    if picked:
        exact.add_pairs(*_concatenated(picked))
    if exact.dim < stop_dim:
        _fold(exact, blocks(), stop_dim)
    return exact.to_subspace()


def _fold(acc, blocks, stop_dim, picked=None):
    """Fold blocks into acc until it reaches stop_dim, building no block
    past that point; picked, when given, collects the generators of each
    block that became pivots, as blocks. Returns the number of new
    pivots."""
    start = acc.dim
    blocks = iter(blocks)
    while acc.dim < stop_dim:
        block = next(blocks, None)
        if block is None:
            break
        new = None if picked is None else []
        acc.add_pairs(*block, stop_dim, new)
        if picked is not None:
            picked.append(take_generators(*block, new))
    return acc.dim - start


def _evaluating_to_zero(blocks, ev):
    """The blocks, each checked exactly, as it passes, to evaluate to zero
    under ev."""
    for cols, vals, lens in blocks:
        bad = tops.escaping_generators(cols, vals, lens, ev.arr)
        if len(bad):
            raise InternalAssertionFailed(
                "relations-escape-evaluation-kernel",
                f"relation generator {int(bad[0])} of a block evaluates to a "
                "nonzero vector",
            )
        yield cols, vals, lens


def _concatenated(blocks):
    """The generators of the blocks, in order, as one block."""
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _shuffled(blocks, rng):
    """All the generators of the blocks as one block, permuted by rng."""
    cols, vals, lens = _concatenated(blocks)
    perm = list(range(len(lens)))
    rng.shuffle(perm)
    return take_generators(cols, vals, lens, perm)


def _slotwise(t, m, arity, p):
    """out[r_1..r_a, w] = sum over i of m[r_1, i_1]..m[r_a, i_a] t[i_1..i_a, w]."""
    for _ in range(arity):
        t = tops.exact_tensordot(t, m, ([0], [1]), p)
    return np.moveaxis(t, 0, -1)


def admit(base, category):
    """Refuse a base the constructions of category do not take: one outside
    the category (see require_category), the zero algebra, whose universal
    central extension is zero, and any base that is not perfect."""
    flags = require_category(base, category)
    if base.dim == 0:
        raise SemanticError("the base has dimension 0: the constructions "
                            "take a nonzero perfect base")
    if not flags.is_perfect:
        raise NotPerfect(f"{base.name or 'input'} is not perfect")


def _finish_extension(category, base, relations, ev):
    """Common tail of all three constructions: the UceResult of the
    quotient, verified as the CentralExtension it is, plus the assertions
    specific to the construction.

    ev is the evaluation map as an ExactTensor with one row per ambient
    coordinate (the base vector that ambient basis tensor evaluates to).
    """
    f = base.field
    n = base.dim
    col = relations.kill_witness(ev)
    if col is not None:
        # the quotient bracket factors slotwise through ev, so this one
        # check is also the ideal property of the relation span
        raise InternalAssertionFailed(
            "relations-escape-evaluation-kernel",
            f"the relation with pivot column {col} evaluates to a nonzero vector",
        )
    dim = len(relations.free)
    if dim == 0:
        raise InternalAssertionFailed(
            "quotient-collapsed", "carrier of a perfect base cannot be zero"
        )
    images = ev.arr[list(relations.free)]
    proj = Matrix.from_raw(f, images.T, ev.scale)

    k = relations.projection()
    cls, check = CATEGORIES[category][:2]
    arity = cls.arity
    if category == "lie":
        # lift K through the wedge map to an antisymmetric n x n x dim
        # tensor, so that class(u ^ v) = sum u_a v_b K[a, b] like Leibniz
        kt = tops.exact_tensordot(wedge_map(n), k.arr, ([1], [0]), k.p)
        kt = kt.reshape(n, n, dim)
    else:
        kt = k.arr.reshape((n,) * arity + (dim,))
    # no local keeps the raw table alive past the constructor: it would
    # sit on top of the axiom checks' peak memory
    ext = cls.from_raw(
        f,
        _slotwise(kt, images, arity, k.p),
        ev.scale**arity * k.scale,
        name=f"uce-{category}({base.name})",
    )

    try:
        section = right_inverse(proj)
    except DimensionMismatch as e:
        raise InternalAssertionFailed("projection-not-surjective", str(e))
    u = UceResult(category, base, ext, proj, section, relations)
    try:
        u.verify()
    except NotCentral as e:
        raise InternalAssertionFailed("quotient-not-a-central-extension", str(e))
    if not check(ext).is_perfect:
        raise InternalAssertionFailed("carrier-not-perfect")
    return u


def _leibniz_relations(c, x, y, z, yz=None):
    """The generators [x,y] (x) z - [x,z] (x) y - x (x) [y,z] on the tensor
    square, for c the raw structure tensor and one (x, y, z) per entry of
    the index arrays, as one block; the fold sums repeated coordinates.
    yz, when given, is _row_nonzeros of the rows [y,z], which the blocks of
    one stream share."""
    n = len(c)
    flat = c.reshape(n * n, n)
    families = []
    for u, v, w, s in ((x, y, z, 1), (x, z, y, -1)):
        r, k, val, local, cnt = _row_nonzeros(flat[u * n + v])
        families.append((r, local, k * n + w[r], s * val, cnt))
    r, k, val, local, cnt = _row_nonzeros(flat[y * n + z]) if yz is None else yz
    return _terms(families + [(r, local, x[r] * n + k, -val, cnt)])


def _mapped(blocks, image):
    """The blocks through the linear map image = (start, count, col, val):
    e_c -> sum of val[j] e_col[j] over the count[c] entries j from start[c]."""
    start, count, col, val = image
    top = tops._maxabs(val)
    for cols, vals, lens in blocks:
        num = count[cols]
        e, at = tops._runs(start[cols], num)
        vals = vals[e]
        if vals.dtype != object and tops._maxabs(vals) * top >= tops._I64_LIMIT:
            vals = vals.astype(object)
        gen = np.repeat(np.arange(len(lens)), lens)
        yield col[at], vals * val[at], np.bincount(gen, num, len(lens)).astype(np.int64)


def leibniz_uce(g, rng=None):
    """The Leibniz universal central extension: g (x) g modulo the lifted
    Leibniz identity, with bracket [A,B] = class of ev(A) (x) ev(B)."""
    admit(g, "leibniz")
    n = g.dim
    ambient = n * n
    t = g.tensor()
    ev = tops.ExactTensor(t.arr.reshape(ambient, n), t.scale, t.p)
    y, z = np.indices((n, n)).reshape(2, -1)

    def blocks():
        # (y, z) runs over all pairs in lex order, so the rows [y,z] are the
        # rows of ev: one set of their nonzeros serves every x
        yz = _row_nonzeros(ev.arr)
        for x in range(n):
            yield _leibniz_relations(t.arr, np.full_like(y, x), y, z, yz)

    relations = _fold_relations(g.field, ambient, blocks, ambient - n, ev, rng)
    return _finish_extension("leibniz", g, relations, ev)


def _increasing_triples(n):
    """The index triples x < y < z below n, lex order, as three arrays."""
    return np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3).T


def lie_uce(g, rng=None):
    """The Lie universal central extension: the wedge square modulo the
    lifted Jacobi identity, generated by the wedge image of the Leibniz
    relations."""
    admit(g, "lie")
    n = g.dim
    w = wedge_map(n)
    # each row of the wedge map has at most one nonzero, a sign
    col, sign = np.abs(w).argmax(1), w.sum(1)
    image = (np.arange(len(col)), np.ones_like(col), col, sign)
    # the Jacobi generator is alternating on a Lie algebra: x < y < z only
    xyz = _increasing_triples(n)
    ambient = w.shape[1]
    t = g.tensor()
    i, j = wedge_index_pairs(n)
    ev = tops.ExactTensor(t.arr[i, j], t.scale, t.p)
    relations = _fold_relations(
        g.field, ambient, lambda: _mapped([_leibniz_relations(t.arr, *xyz)], image),
        ambient - n, ev, rng,
    )
    return _finish_extension("lie", g, relations, ev)


def _cube_cycles(n):
    """The cyclic sums c(i,j,k) = e_i (x) e_j (x) e_k + its two rotations,
    only those with i < j < k: the C(n,3) of them span, modulo
    S = L (x) Sym^2 L, what all n^3 span. For sigma of lts_tensor_cube:
      * c is rotation-invariant, so every c(i,j,k) with distinct indices
        is c(i,j,k) or c(i,k,j) with i < j < k;
      * sigma(c(i,k,j)) = -sigma(c(i,j,k)), since each of the three terms
        of c(i,k,j) swaps the last two slots of a term of c(i,j,k);
      * with a repeated index, say c(i,i,k), the terms e_iik and e_iki
        cancel under sigma and e_kii maps to 0; by rotation the same holds
        for c(i,j,i) and c(i,j,j), and c(i,i,i) = 3 e_iii maps to 0."""
    i, j, k = _increasing_triples(n)
    rot = np.stack([(i * n + j) * n + k, (j * n + k) * n + i, (k * n + i) * n + j], 1)
    return rot.ravel(), np.ones(rot.size, dtype=np.int64), np.full(len(rot), 3)


def _pair_quotient(evk, field, scale):
    """The pairs modulo W = {u : D_u = 0}, for evk[:, p, :] the raw slab D_p
    of pair p in sigma's order, off the RREF of the slab matrix in lex order
    a < b: the greedy slab basis B, as (a, b) and as pairs, and tau (C(n,2) x
    |B|, raw, over Q up to one positive scale), D_p = sum tau[p, i] D_B[i]."""
    n, c = evk.shape[:2]
    a, b = np.triu_indices(n, 1)
    lex = b * (b - 1) // 2 + a
    m = evk[:, lex].transpose(0, 2, 1).reshape(n * n, c)
    r, piv = Matrix.from_raw(field, m, scale).rref()
    tau = r.tensor().arr.T[np.argsort(lex)]
    return [(int(a[q]), int(b[q])) for q in piv], lex[list(piv)], tau


def _cube_fundamentals(t, slabs):
    """The five-variable family as lts_tensor_cube streams it, for the raw
    n^4 tensor t of a Lie triple system and slabs, the (a, b) of a basis B
    of the slab span: one block per (a, b) of the generators
    g(x,y,z;a,b) = {x,a,b} (x) y (x) z + x (x) {y,a,b} (x) z
    + x (x) y (x) {z,a,b} - {x,y,z} (x) a (x) b with y < z, (x, y, z) in
    lex order. Modulo S + L (x) W, with S = L (x) Sym^2 L and W = {u :
    D_u = 0} in the pairs' space, they span the whole family, in every
    characteristic.

    First, y < z and a < b suffice: every D_ab = {., a, b} maps S into
    itself, and the axioms {x,y,z} = -{x,z,y}, {x,y,y} = 0 and D_ba = -D_ab
    put in S g(x,z,y;a,b) + g(x,y,z;a,b), g(x,y,y;a,b), g(x,y,z;a,a) and
    g(x,y,z;a,b) + g(x,y,z;b,a) = -{x,y,z} (x) (a (x) b + b (x) a).

    Then B suffices. The generator is linear in u = a (x) b: it is
    G(x,y,z;u) = D_u(x (x) y (x) z) - {x,y,z} (x) u, D_u = sum u_ab D_ab
    acting as a derivation on all three slots; the e_ab of B and W span
    the u, and G(x,y,z;w) = -{x,y,z} (x) w for w in W.

    Folding modulo L (x) W keeps the span, which contains it: the {x,y,z}
    with y < z span [L,L,L], which is L for the perfect systems admit lets
    in, so the G(x,y,z;w) span L (x) W. The relation span is the preimage
    of the span of the cycles and these fundamentals modulo S + L (x) W.

    Term family s of a block puts a nonzero t[r, a, b, k] in slot s: the
    kept generators with r in slot s, the coordinates with k there
    instead."""
    n = t.shape[0]
    y, z = np.triu_indices(n, 1)
    coords = [np.repeat(np.arange(n), len(y)), np.tile(y, n), np.tile(z, n)]
    flat = (coords[0] * n + coords[1]) * n + coords[2]
    # per slot: its weight in a coordinate, the slot index of every kept
    # generator, the generators sorted by it, and each index's run there
    slots = []
    for s, w in enumerate((n * n, n, 1)):
        num = np.bincount(coords[s], minlength=n)
        order = np.argsort(coords[s], kind="stable")
        slots.append((w, coords[s], order, np.cumsum(num) - num, num))
    whole, wk, wv, wlocal, wcnt = _row_nonzeros(t.reshape(n**3, n)[flat])
    wv = -wv
    for a, b in slabs:
        r, k, v, local, cnt = _row_nonzeros(t[:, a, b, :])
        families = []
        for w, coord, order, start, num in slots:
            # the term of nonzero e for each kept generator with r[e] in
            # slot s, nonzeros in turn
            e, at = tops._runs(start[r], num[r])
            gen = order[at]
            families.append(
                (gen, local[e], flat[gen] + ((k - r) * w)[e], v[e], cnt[coord])
            )
        yield _terms(families + [(whole, wlocal, wk * n * n + a * n + b, wv, wcnt)])


def lts_tensor_cube(lts, force=False, rng=None):
    """The non-abelian tensor cube of a perfect Lie triple system: the
    triple tensor power modulo the three relation families, realizing the
    universal central extension in the LTS category."""
    n = lts.dim
    dimension_guard(n, "lts", force)
    admit(lts, "lts")
    ambient = n**3
    t = lts.tensor()
    ev = tops.ExactTensor(t.arr.reshape(ambient, n), t.scale, t.p)
    # sigma sends e_xyz to e_xyz for y > z, to -e_xzy for y < z and to 0
    # for y = z: its kernel is S = L (x) Sym^2 L, which ev kills by the
    # axioms just checked. Kept coordinates (y > z) are in the ambient's
    # order, pair hi (hi - 1) / 2 + lo of x; then tau, for ev kills
    # L (x) W too: the fold runs on the n |B| coordinates (x, rep)
    x, y, z = np.indices((n, n, n)).reshape(3, -1)
    sign, hi, lo = np.sign(y - z), np.maximum(y, z), np.minimum(y, z)
    pair = np.where(sign, hi * (hi - 1) // 2 + lo, 0)
    evk = t.arr[(slice(None),) + np.tril_indices(n, -1)]
    slabs, reps, tau = _pair_quotient(evk, lts.field, ev.scale)
    width = n * len(reps)
    _, k, v, _, cnt = _row_nonzeros(tau)
    num = cnt[pair] * (sign != 0)
    e, at = tops._runs((np.cumsum(cnt) - cnt)[pair], num)
    image = (np.cumsum(num) - num, num, x[e] * len(reps) + k[at], sign[e] * v[at])
    red = _fold_relations(
        lts.field, width,
        lambda: _mapped(chain([_cube_cycles(n)], _cube_fundamentals(t.arr, slabs)), image),
        width - n, tops.ExactTensor(evk[:, reps].reshape(width, n), ev.scale, ev.p), rng,
    )
    # the relation span is red's preimage: the kernel of sigma tau P_red
    proj = red.projection().arr.reshape(n, len(reps), -1)
    phi = tops.exact_tensordot(tau, proj, ([1], [1]), t.p)[pair, x]
    phi *= sign[:, None]
    return _finish_extension("lts", lts, quotient_kernel(lts.field, phi), ev)


def universal_map(u, e):
    """The canonical map from the UCE u to any central extension e of the
    same base in the same category: a generator class goes to the bracket
    of section lifts in e. Returns the matrix carrier(u) -> carrier(e)."""
    if u.category != e.category:
        raise WrongCategory(
            f"cannot map a {u.category} extension into a {e.category} one"
        )
    _same_base(u.base, e.base)
    e.verify()
    f = u.base.field
    et = e.algebra.tensor()
    st = e.section.tensor()
    arity = e.algebra.arity
    # grid[i, j, (k,) w] / scale: coordinate w of the bracket of section lifts
    grid = _slotwise(et.arr, st.arr.T, arity, et.p)
    scale = st.scale**arity * et.scale
    if u.category == "lie":
        i, j = wedge_index_pairs(u.base.dim)
        rows = grid[i, j]
    else:
        rows = grid.reshape(-1, e.carrier_dim)
    # phi has one row per ambient coordinate of u: the image of that tensor
    col = u.relations.kill_witness(tops.ExactTensor(rows, scale, et.p))
    if col is not None:
        raise WellDefinednessFailed(
            f"the relation with pivot column {col} does not map to zero; the "
            "target is not a central extension or the source is not universal"
        )
    coset = rows[list(u.relations.free)]
    mat = Matrix.from_raw(f, coset.T, scale)
    wit = tops.morphism_witness(u.algebra.tensor(), et, mat.tensor())
    if wit is not None:
        raise InternalAssertionFailed(
            "universal-map-not-a-morphism", f"basis tuple {wit}"
        )
    if e.projection @ mat != u.projection:
        raise InternalAssertionFailed("universal-map-breaks-projections")
    return mat
