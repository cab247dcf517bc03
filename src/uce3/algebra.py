"""Binary and ternary algebras given by structure constants, their axiom
checkers, and the constructions that move between them: the derived ternary
bracket, Leibniz brackets on tensor and wedge squares, the canonical action
of the wedge square, and the Leibniz bracket induced by an equivariant map.

An algebra or action holds its structure constants only as one exact
integer tensor (tensorops.ExactTensor, in the canonical form of
tensorops.rescaled). Nested tables of field scalars are read once, by the
constructors; every derived structure is built from an exact contraction
of tensors, handed to from_raw without a pass through field scalars.

Conventions fixed here and relied on everywhere downstream:

  * tensor square basis e_i (x) e_j at index i*n + j (lex order);
  * wedge square basis e_i ^ e_j for i < j, lex order;
  * derived ternary bracket {x,y,z} = [x,[y,z]];
  * actions are right actions m * g, tensor a[m][g] = coordinates of m * g.

Every alternating-type axiom is checked in polarized form (diagonal zero AND
symmetric sums zero) so the verdicts are sound in characteristic 2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    AxiomPrecondition,
    DimensionMismatch,
    InternalAssertionFailed,
    JacobiFails,
    NotEquivariant,
    NotLeibniz,
    NotLie,
    NotLts,
    WrongCategory,
)
from .fields import ensure_same_field
from .linalg import SpanAccumulator
from . import tensorops as tops

__all__ = [
    "BinaryAlgebra",
    "TernaryAlgebra",
    "ModuleAction",
    "BinaryFlags",
    "TernaryFlags",
    "check_binary",
    "check_ternary",
    "CATEGORIES",
    "require_category",
    "bracket_span_dim",
    "derived_lts",
    "tensor_leibniz",
    "canonical_wedge_action",
    "verify_action",
    "equivariant_leibniz",
    "wedge_index_pairs",
    "wedge_map",
]


def _checked_dim(dim):
    """dim as a non-negative int, checked before anything is allocated."""
    try:
        dim = operator.index(dim)
    except TypeError:
        raise DimensionMismatch(f"dimension {dim!r} is not an integer") from None
    if dim < 0:
        raise DimensionMismatch(f"dimension {dim} is negative")
    return dim


class _Algebra:
    """Structure constants held as one exact tensor, and nothing else.

    The tensor has shape (dim,) * (arity + 1) and is canonical (see
    tensorops.rescaled), so two algebras are equal exactly when their
    fields, dimensions, scales and integer arrays are. Axiom flags are
    computed once per instance by check_binary / check_ternary, so an
    algebra is never edited after construction.
    """

    arity = None

    def __init__(self, field, dim, table, name=""):
        shape = (dim,) * (self.arity + 1)
        self._init(field, tops.nested_tensor(field, table, shape), name)

    def _init(self, field, t, name):
        self.field = field
        self.dim = t.shape[0]
        self.name = name
        self._tensor = t
        self._flags = None
        return self

    @classmethod
    def from_raw(cls, field, raw, den=1, name=""):
        """The algebra whose structure tensor is raw / den, for an exact
        integer contraction raw of shape (dim,) * (arity + 1)."""
        return cls.__new__(cls)._init(field, tops.rescaled(field, raw, den), name)

    @classmethod
    def zero(cls, field, dim, name=""):
        dim = _checked_dim(dim)
        return cls.from_raw(field, np.zeros((dim,) * (cls.arity + 1), np.int64), 1, name)

    @classmethod
    def from_sparse(cls, field, dim, entries, name=""):
        """entries: iterable of (i, j, [(k, coeff), ...]) for a binary
        algebra, (i, j, k, [(l, coeff), ...]) for a ternary one; absent
        entries are zero and repeated ones add up. Every index is checked to
        lie in [0, dim), and dim to be a non-negative int, before the
        tensor is allocated."""
        dim = _checked_dim(dim)
        shape = (dim,) * (cls.arity + 1)
        index, coeffs = [], []
        for *head, pairs in entries:
            for k, coeff in pairs:
                ix = tuple(map(operator.index, (*head, k)))
                if len(ix) != len(shape) or not all(0 <= i < dim for i in ix):
                    raise DimensionMismatch(f"entry index {ix} out of range for dim {dim}")
                index.append(ix)
                coeffs.append(field.coerce(coeff))
        # exact scalars add up exactly; exact_tensor reduces the sums
        table = np.full(shape, field.zero, dtype=object)
        ix = tuple(np.array(index, dtype=np.int64).reshape(-1, len(shape)).T)
        np.add.at(table, ix, np.array(coeffs, dtype=object))
        return cls.__new__(cls)._init(field, tops.exact_tensor(field, table), name)

    def tensor(self):
        return self._tensor

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._tensor, other._tensor
        same = (self.field, self.dim, a.scale) == (other.field, other.dim, b.scale)
        return same and np.array_equal(a.arr, b.arr)

    def __hash__(self):
        return hash((self.field, self.dim, self._tensor.scale))

    def __repr__(self):
        label = self.name or type(self).__name__.removesuffix("Algebra").lower()
        return f"<{type(self).__name__} {label} dim {self.dim} over {self.field.spec_str()}>"


class BinaryAlgebra(_Algebra):
    """An algebra with a bilinear bracket, presented by structure constants:
    table[i][j] is the coordinate vector of [e_i, e_j]. No axiom is
    assumed; check_binary computes the Lie, Leibniz and perfect flags."""

    arity = 2


class TernaryAlgebra(_Algebra):
    """An algebra with a trilinear bracket; table[i][j][k] = {e_i, e_j, e_k}."""

    arity = 3


@dataclass(frozen=True)
class BinaryFlags:
    is_alternating: bool
    is_lie: bool
    is_leibniz: bool
    satisfies_jacobi: bool
    is_perfect: bool
    witnesses: dict = dc_field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class TernaryFlags:
    is_lts: bool
    is_perfect: bool
    witnesses: dict = dc_field(default_factory=dict, compare=False)


def bracket_span_dim(a):
    """Dimension of the span of all basis brackets of a binary or ternary
    algebra; stops early once the span is the whole algebra."""
    # the raw tensor is a positive multiple of the brackets: same span
    acc = SpanAccumulator(a.field, a.dim)
    acc.add_vectors(a.tensor().arr.reshape(a.dim ** a.arity, a.dim), a.dim)
    return acc.dim


def _require_class(a, cls):
    if not isinstance(a, cls):
        raise WrongCategory(f"expected a {cls.__name__}, got {a!r}")


def check_binary(a):
    """Axiom flags of a binary algebra, computed once per instance: algebras
    are immutable, so later calls return the stored record."""
    _require_class(a, BinaryAlgebra)
    if a._flags is not None:
        return a._flags
    t = a.tensor()
    w = {}
    alt = tops.alternating_witness(t)
    if alt is not None:
        w["alternating"] = alt
    leib = tops.leibniz_witness(t)
    if leib is not None:
        w["leibniz"] = leib
    jac = tops.jacobi_witness(t)
    if jac is not None:
        w["jacobi"] = jac
    a._flags = BinaryFlags(
        is_alternating=alt is None,
        is_lie=alt is None and jac is None,
        is_leibniz=leib is None,
        satisfies_jacobi=jac is None,
        is_perfect=bracket_span_dim(a) == a.dim,
        witnesses=w,
    )
    return a._flags


def check_ternary(a):
    """LTS flags of a ternary algebra, computed once per instance."""
    _require_class(a, TernaryAlgebra)
    if a._flags is not None:
        return a._flags
    t = a.tensor()
    w = {}
    pair = tops.lts_pair_witness(t)
    if pair is not None:
        w["last_two_slots"] = pair
    cyc = tops.lts_cyclic_witness(t)
    if cyc is not None:
        w["cyclic"] = cyc
    der = tops.lts_derivation_witness(t)
    if der is not None:
        w["derivation"] = der
    a._flags = TernaryFlags(
        is_lts=pair is None and cyc is None and der is None,
        is_perfect=bracket_span_dim(a) == a.dim,
        witnesses=w,
    )
    return a._flags


# category -> the algebra class of its base and carrier, the checker of its
# flags, the flag witnesses that decide its axioms, and the error raised for
# an algebra of its class that fails them
CATEGORIES = {
    "lie": (BinaryAlgebra, check_binary, ("alternating", "jacobi"), NotLie),
    "leibniz": (BinaryAlgebra, check_binary, ("leibniz",), NotLeibniz),
    "lts": (TernaryAlgebra, check_ternary,
            ("last_two_slots", "cyclic", "derivation"), NotLts),
}


def require_category(a, category):
    """The flags of a, once a is checked to lie in category: WrongCategory
    for an algebra of the other arity, the category's error, naming the
    failing axioms' witnesses, for one that fails its axioms."""
    _, check, axioms, error = CATEGORIES[category]
    flags = check(a)
    failed = {k: flags.witnesses[k] for k in axioms if k in flags.witnesses}
    if failed:
        raise error(f"{a.name or 'input'} fails the {category} axioms at {failed}")
    return flags


def derived_lts(g):
    """The ternary algebra {x,y,z} = [x,[y,z]], one exact contraction of the
    structure tensor with itself.

    Needs the Jacobi identity (that is exactly what makes the cyclic axiom
    hold) and a Lie or Leibniz bracket for the remaining two axioms.
    """
    flags = check_binary(g)
    if not flags.satisfies_jacobi:
        raise JacobiFails(
            f"Jacobi identity fails at basis triple {flags.witnesses['jacobi']}"
        )
    if not (flags.is_lie or flags.is_leibniz):
        raise NotLeibniz(
            "derived ternary bracket needs a Lie or Leibniz input; "
            f"Leibniz identity fails at {flags.witnesses.get('leibniz')}"
        )
    t = g.tensor()
    out = TernaryAlgebra.from_raw(
        g.field, tops.left_nested(t), t.scale**2, name=f"derived({g.name})"
    )
    bad = check_ternary(out)
    if not bad.is_lts:
        raise InternalAssertionFailed(
            "derived-bracket-is-lts", f"witnesses {bad.witnesses}"
        )
    return out


def wedge_index_pairs(n):
    """Index arrays (i, j) of the wedge basis e_i ^ e_j, i < j, in lex order."""
    return np.triu_indices(n, 1)


def wedge_map(n):
    """The n*n x n(n-1)/2 integer matrix of e_k (x) e_l -> e_k ^ e_l in the
    wedge basis: row k*n + l is +1 in the column of (k, l) when k < l, -1 in
    the column of (l, k) when k > l, and zero when k == l."""
    i, j = wedge_index_pairs(n)
    cols = np.arange(len(i))
    w = np.zeros((n * n, len(i)), dtype=np.int64)
    w[i * n + j, cols] = 1
    w[j * n + i, cols] = -1
    return w


def tensor_leibniz(a, variant="tensor"):
    """Leibniz bracket on the tensor or wedge square of the carrier of a:

        [x (x) y, u (x) v] = D(x,u,v) (x) y + x (x) D(y,u,v),

    with D(x,u,v) = [x,[u,v]] for binary input and {x,u,v} for ternary
    input. The wedge variant takes the e_i ^ e_j (i < j) representatives
    and maps the result into the wedge square by wedge_map.
    """
    if variant not in ("tensor", "wedge"):
        raise ValueError(f"variant must be tensor or wedge, not {variant!r}")
    t = a.tensor()
    if isinstance(a, TernaryAlgebra):
        require_category(a, "lts")
        d, scale = t.arr, t.scale
    else:
        require_category(a, "leibniz")
        d, scale = tops.left_nested(t), t.scale**2
    return BinaryAlgebra.from_raw(
        a.field, _square_table(d, variant, t.p), scale, name=f"{variant}2({a.name})"
    )


def _square_table(d, variant, p):
    """Raw table of [x_r (x) y_r, x_s (x) y_s] = D(x_r, x_s, y_s) (x) y_r +
    x_r (x) D(y_r, x_s, y_s) over the basis representatives of the tensor
    square (all pairs) or the wedge square (i < j), the result mapped into
    that square. d is the raw tensor D[w, u, v, k]; p, when given, is the
    modulus of the wedge map's contraction."""
    n = d.shape[0]
    if variant == "tensor":
        x, y = np.divmod(np.arange(n * n), n)
    else:
        x, y = wedge_index_pairs(n)
    m = len(x)
    dr = d[:, x, y, :]  # dr[w, s] = D(e_w, x_s, y_s)
    # sq[r, s, k, l]: coefficient of e_k (x) e_l in [x_r (x) y_r, x_s (x) y_s]
    sq = np.zeros((m, m, n, n), dtype=d.dtype)
    r = np.arange(m)
    sq[r, :, :, y] += dr[x]
    sq[r, :, x, :] += dr[y]
    sq = sq.reshape(m, m, n * n)
    if variant == "wedge":
        return tops.exact_tensordot(sq, wedge_map(n), ([2], [0]), p)
    return sq


class ModuleAction:
    """A right action of a binary algebra on F^carrier_dim.

    table[u][x] is the coordinate vector of e_u * e_x (u in the module, x
    in the algebra), held as one exact tensor like an algebra's. Bilinear
    by construction; the action laws are what verify_action checks, never
    an input assumption.
    """

    def __init__(self, carrier_dim, algebra, table):
        shape = (carrier_dim, algebra.dim, carrier_dim)
        self._init(algebra, tops.nested_tensor(algebra.field, table, shape))

    def _init(self, algebra, t):
        self.field = algebra.field
        self.carrier_dim = t.shape[0]
        self.algebra = algebra
        self._tensor = t
        return self

    @classmethod
    def from_raw(cls, algebra, raw, den=1):
        """The action whose tensor is raw / den, for an exact integer
        contraction raw of shape (carrier_dim, algebra.dim, carrier_dim)."""
        return cls.__new__(cls)._init(algebra, tops.rescaled(algebra.field, raw, den))

    def tensor(self):
        return self._tensor

    def __eq__(self, other):
        if not isinstance(other, ModuleAction):
            return NotImplemented
        a, b = self._tensor, other._tensor
        return (self.algebra, a.scale) == (other.algebra, b.scale) and np.array_equal(a.arr, b.arr)

    def __repr__(self):
        return (
            f"<ModuleAction F^{self.carrier_dim} * {self.algebra.name or 'g'} "
            f"over {self.field.spec_str()}>"
        )


def canonical_wedge_action(lts):
    """The wedge square of an LTS acting on it by x * (y ^ z) = {x,y,z};
    tensor_leibniz rejects an input that fails the LTS axioms."""
    acting = tensor_leibniz(lts, "wedge")
    i, j = wedge_index_pairs(lts.dim)
    t = lts.tensor()
    return ModuleAction.from_raw(acting, t.arr[:, i, j], t.scale)


def verify_action(act, target=None):
    """True iff (m*g)*h - (m*h)*g = m*[g,h] on all basis tuples, and, when a
    ternary algebra on the same carrier is supplied, the bracket is acted on
    by derivations: {x,y,z}*g = {x*g,y,z} + {x,y*g,z} + {x,y,z*g}."""
    at = act.tensor()
    gt = act.algebra.tensor()
    if tops.action_law_witness(at, gt) is not None:
        return False
    if target is not None:
        if target.dim != act.carrier_dim:
            raise DimensionMismatch(
                f"target dim {target.dim} != module dim {act.carrier_dim}"
            )
        ensure_same_field(target.field, act.field)
        if tops.action_derivation_witness(at, target.tensor()) is not None:
            return False
    return True


def equivariant_leibniz(act, fmap):
    """Leibniz bracket [m, n] = m * f(n) on the module of act, for a map f
    into the acting Lie algebra that intertwines the action with ad."""
    g = act.algebra
    if fmap.nrows != g.dim or fmap.ncols != act.carrier_dim:
        raise DimensionMismatch(
            f"map must be {g.dim} x {act.carrier_dim}, got {fmap.nrows} x {fmap.ncols}"
        )
    ensure_same_field(act.field, fmap.field)
    require_category(g, "lie")
    at = act.tensor()
    gt = g.tensor()
    law = tops.action_law_witness(at, gt)
    if law is not None:
        raise AxiomPrecondition(f"module law fails at basis tuple {law}")
    ft = fmap.tensor()
    eq = tops.equivariance_witness(at, ft, gt)
    if eq is not None:
        raise NotEquivariant(
            f"f(m * x) != [f(m), x] at basis pair {eq}", witness=eq
        )
    # [e_u, e_v] = e_u * f(e_v): table[u, v, w] = sum_k at[u, k, w] ft[k, v]
    raw = tops.exact_tensordot(at.arr, ft.arr, ([1], [0]), at.p)
    out = BinaryAlgebra.from_raw(
        act.field,
        raw.transpose(0, 2, 1),
        at.scale * ft.scale,
        name=f"leibniz[{g.name or 'g'}-action]",
    )
    flags = check_binary(out)
    if not flags.is_leibniz:
        raise InternalAssertionFailed(
            "equivariant-bracket-not-leibniz",
            f"fails at basis triple {flags.witnesses['leibniz']}",
        )
    return out
