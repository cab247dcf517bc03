from fractions import Fraction

import numpy as np
import pytest

from conftest import char_of, scaled_sl2, tolists2, tolists3
from naive_checks import naive_binary_flags, naive_derived_table, naive_ternary_flags

from uce3 import (
    QQ,
    AxiomPrecondition,
    BinaryAlgebra,
    DimensionMismatch,
    FieldMismatch,
    JacobiFails,
    Matrix,
    ModuleAction,
    NotEquivariant,
    NotLeibniz,
    TernaryAlgebra,
    canonical_wedge_action,
    catalog,
    check_binary,
    check_ternary,
    derived_lts,
    equivariant_leibniz,
    field_of,
    leibniz_uce,
    tensor_leibniz,
    verify_action,
)

FIELDS = ["Q", "GF(2)", "GF(3)", "GF(5)"]


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("name", ["sl2", "sl3", "abelian(3)", "heisenberg"])
def test_flags_match_naive(spec, name):
    f = field_of(spec)
    g = catalog(name, f)
    flags = check_binary(g)
    ref = naive_binary_flags(char_of(f), tolists2(g))
    assert flags.is_alternating == ref["alternating"]
    assert flags.is_leibniz == ref["leibniz"]
    assert flags.satisfies_jacobi == ref["jacobi"]
    assert flags.is_lie == ref["lie"]
    assert flags.is_perfect == ref["perfect"]


def test_expected_catalog_flags():
    g = catalog("sl2", QQ)
    flags = check_binary(g)
    assert flags.is_lie and flags.is_perfect
    h = catalog("heisenberg", QQ)
    hf = check_binary(h)
    assert hf.is_lie and not hf.is_perfect
    a = catalog("abelian(4)", QQ)
    af = check_binary(a)
    assert af.is_lie and not af.is_perfect
    # sl2 in characteristic 2 keeps the bracket axioms but loses perfection
    g2 = catalog("sl2", field_of("GF(2)"))
    f2 = check_binary(g2)
    assert f2.is_lie and not f2.is_perfect


def test_witnesses_point_at_failures():
    # [x,y] = x in dim 1: not alternating, not Leibniz
    bad = BinaryAlgebra(QQ, 1, [[[1]]])
    flags = check_binary(bad)
    assert not flags.is_alternating
    assert flags.witnesses["alternating"] == (0, 0)
    t = TernaryAlgebra(QQ, 1, [[[[1]]]])
    tf = check_ternary(t)
    assert not tf.is_lts and tf.witnesses


@pytest.mark.parametrize("spec", FIELDS)
@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_derived_lts_matches_naive(spec, name):
    f = field_of(spec)
    g = catalog(name, f)
    dl = derived_lts(g)
    p = char_of(f)
    assert tolists3(dl) == naive_derived_table(p, tolists2(g))
    ref = naive_ternary_flags(p, tolists3(dl))
    flags = check_ternary(dl)
    assert flags.is_lts == ref["lts"] is True
    assert flags.is_perfect == ref["perfect"]


def _square_reference(p, d, n, variant):
    """[x (x) y, u (x) v] = D(x,u,v) (x) y + x (x) D(y,u,v) tuple by tuple,
    for a nested table d[x][u][v] of vectors; the wedge variant works on
    the i < j representatives and folds e_k ^ e_l into that basis."""
    if variant == "tensor":
        basis = [(i, j) for i in range(n) for j in range(n)]
    else:
        basis = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {b: r for r, b in enumerate(basis)}

    def put(row, k, l, coeff):
        if variant == "tensor":
            row[index[(k, l)]] += coeff
        elif k < l:
            row[index[(k, l)]] += coeff
        elif k > l:
            row[index[(l, k)]] -= coeff

    table = []
    for x, y in basis:
        out = []
        for u, v in basis:
            row = [0] * len(basis)
            for k, coeff in enumerate(d[x][u][v]):
                put(row, k, y, coeff)
            for k, coeff in enumerate(d[y][u][v]):
                put(row, x, k, coeff)
            out.append([e % p if p else e for e in row])
        table.append(out)
    return table


@pytest.mark.parametrize("name,spec", [
    ("sl3", "GF(2)"), ("sl3", "GF(3)"), ("sl2-halved", "Q"),
])
def test_contraction_tables_match_per_tuple_formulas(name, spec):
    from naive_checks import vadd, vscale

    f = field_of(spec)
    g = scaled_sl2(2) if name == "sl2-halved" else catalog(name, f)
    if spec == "Q":
        assert g.tensor().scale > 1
    p = char_of(f)
    n = g.dim
    d = naive_derived_table(p, tolists2(g))
    dl = derived_lts(g)
    assert tolists3(dl) == d
    # D(x,u,v) is [x,[u,v]] for g and {x,u,v} for its derived LTS: the same
    # vectors, reached through different scales over Q
    for variant in ("tensor", "wedge"):
        ref = _square_reference(p, d, n, variant)
        assert tolists2(tensor_leibniz(g, variant)) == ref, variant
        assert tolists2(tensor_leibniz(dl, variant)) == ref, variant
    # adjoint action with f = c * identity: [e_u, e_v] = sum_k f[k][v] e_u * e_k
    c = {"GF(2)": 1, "GF(3)": 2, "Q": Fraction(1, 3)}[spec]
    act_table = tolists2(g)
    fmap = [[c if k == v else 0 for v in range(n)] for k in range(n)]
    br = equivariant_leibniz(ModuleAction(n, g, act_table), Matrix(f, fmap))
    ref = []
    for u in range(n):
        row = []
        for v in range(n):
            vec = [0] * n
            for k in range(n):
                vec = vadd(p, vec, vscale(p, fmap[k][v], act_table[u][k]))
            row.append(vec)
        ref.append(row)
    assert tolists2(br) == ref


def test_derived_lts_rejects_non_jacobi(sl2_dual):
    # this Leibniz cover is perfect but its jacobiator is nonzero
    u = leibniz_uce(sl2_dual)
    e = u.algebra
    flags = check_binary(e)
    assert flags.is_leibniz and not flags.satisfies_jacobi
    with pytest.raises(JacobiFails):
        derived_lts(e)


def test_derived_lts_rejects_non_leibniz():
    # [e0,e0] = e1, [e1,e0] = e0 breaks the Leibniz identity at (0,1,0)
    bad = BinaryAlgebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    flags = check_binary(bad)
    assert not flags.is_leibniz
    with pytest.raises((NotLeibniz, JacobiFails)):
        derived_lts(bad)


@pytest.mark.parametrize("variant", ["tensor", "wedge"])
def test_tensor_leibniz_binary_input(variant):
    g = catalog("sl2", QQ)
    tb = tensor_leibniz(g, variant=variant)
    flags = check_binary(tb)
    assert flags.is_leibniz
    expected = g.dim * g.dim if variant == "tensor" else g.dim * (g.dim - 1) // 2
    assert tb.dim == expected


@pytest.mark.parametrize("variant", ["tensor", "wedge"])
def test_tensor_leibniz_ternary_input(variant):
    dl = derived_lts(catalog("sl2", field_of("GF(5)")))
    tb = tensor_leibniz(dl, variant=variant)
    assert check_binary(tb).is_leibniz


def test_tensor_leibniz_rejects_bad_input():
    bad = BinaryAlgebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    with pytest.raises(NotLeibniz):
        tensor_leibniz(bad)
    with pytest.raises(ValueError):
        tensor_leibniz(catalog("sl2", QQ), variant="sym")


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_wedge_action(name):
    dl = derived_lts(catalog(name, QQ))
    act = canonical_wedge_action(dl)
    assert verify_action(act)
    assert verify_action(act, target=dl)
    other = derived_lts(catalog(name, field_of("GF(3)")))
    with pytest.raises(FieldMismatch):
        verify_action(act, target=other)


def test_wedge_action_apply_matches_table():
    dl = derived_lts(catalog("sl2", QQ))
    act = canonical_wedge_action(dl)
    # x * (e0 ^ e1) = {x, e0, e1}, read off the action tensor at x = e0 and
    # the first wedge basis vector e0 ^ e1
    assert tolists2(act)[0][0] == tolists3(dl)[0][0][1]


def test_equivariant_leibniz_adjoint_recovers_bracket():
    g = catalog("sl2", QQ)
    # right adjoint action m * x = [m, x] with f = identity gives back g
    act_table = tolists2(g)
    act = ModuleAction(g.dim, g, act_table)
    br = equivariant_leibniz(act, Matrix.identity(QQ, g.dim))
    assert br == g


def test_equivariant_leibniz_error_paths():
    g = catalog("sl2", QQ)
    act_table = tolists2(g)
    act = ModuleAction(g.dim, g, act_table)
    with pytest.raises(DimensionMismatch):
        equivariant_leibniz(act, Matrix.identity(QQ, g.dim + 1))
    # a permutation of sl2 that is not an automorphism breaks equivariance
    perm = Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotEquivariant):
        equivariant_leibniz(act, perm)
    # non-Lie acting algebra is rejected up front
    bad = BinaryAlgebra(QQ, 1, [[[1]]])
    bad_act = ModuleAction(1, bad, [[[1]]])
    with pytest.raises(AxiomPrecondition):
        equivariant_leibniz(bad_act, Matrix.identity(QQ, 1))


def test_equivariant_leibniz_zero_map_gives_zero_bracket():
    g = catalog("sl2", QQ)
    act_table = tolists2(g)
    act = ModuleAction(g.dim, g, act_table)
    zero = Matrix(QQ, [[0] * g.dim for _ in range(g.dim)], g.dim)
    br = equivariant_leibniz(act, zero)
    z = QQ.zero
    assert all(c == z for row in tolists2(br) for vec in row for c in vec)


def _bracket_vv(p, c, u, v):
    from naive_checks import bracket_iv, vadd, vscale

    out = [0] * len(c)
    for i, ci in enumerate(u):
        if ci:
            out = vadd(p, out, vscale(p, ci, bracket_iv(p, c, i, v)))
    return out


@pytest.mark.parametrize(
    "case",
    ["sl2/Q", "sl3/GF(3)", "heisenberg/GF(2)", "bad/Q"],
)
def test_random_multilinear_tuples_agree_with_basis_verdict(case):
    # axioms are multilinear, so the basis-tuple verdict must match the
    # verdict on arbitrary vectors; 200 random tuples per algebra
    import random

    from naive_checks import is_zero_vec, vadd, vsub

    name, spec = case.split("/")
    f = field_of(spec)
    if name == "bad":
        g = BinaryAlgebra(f, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    else:
        g = catalog(name, f)
    flags = check_binary(g)
    p = char_of(f)
    c = tolists2(g)
    rng = random.Random(811)
    n = g.dim
    alt_bad, lei_bad, jac_bad = [], [], []
    for _ in range(200):
        u, v, w = (
            [f.random_scalar(rng) for _ in range(n)] for _ in range(3)
        )
        alt_bad.append(not is_zero_vec(_bracket_vv(p, c, u, u)))
        lhs = _bracket_vv(p, c, u, _bracket_vv(p, c, v, w))
        r1 = _bracket_vv(p, c, _bracket_vv(p, c, u, v), w)
        r2 = _bracket_vv(p, c, _bracket_vv(p, c, u, w), v)
        lei_bad.append(not is_zero_vec(vsub(p, lhs, vsub(p, r1, r2))))
        s = vadd(
            p,
            _bracket_vv(p, c, u, _bracket_vv(p, c, v, w)),
            vadd(
                p,
                _bracket_vv(p, c, v, _bracket_vv(p, c, w, u)),
                _bracket_vv(p, c, w, _bracket_vv(p, c, u, v)),
            ),
        )
        jac_bad.append(not is_zero_vec(s))
    assert flags.is_alternating == (not any(alt_bad))
    assert flags.is_leibniz == (not any(lei_bad))
    assert flags.satisfies_jacobi == (not any(jac_bad))


def test_nested_tables_must_have_the_declared_shape():
    g = catalog("sl2", QQ)
    c = tolists2(g)
    ragged = [list(row) for row in c]
    ragged[1] = ragged[1][:2]
    short_vector = [[list(vec) for vec in row] for row in c]
    short_vector[2][0] = short_vector[2][0][:2]
    for bad in (c[:2], c + [c[0]], ragged, short_vector, []):
        with pytest.raises(DimensionMismatch):
            BinaryAlgebra(QQ, 3, bad)
    t = tolists3(derived_lts(g))
    ragged3 = [[[list(vec) for vec in mat] for mat in row] for row in t]
    ragged3[0][1] = ragged3[0][1][:1]
    for bad in (t[:2], ragged3, c):
        with pytest.raises(DimensionMismatch):
            TernaryAlgebra(QQ, 3, bad)
    # an action of g on F^2 wants a 2 x 3 x 2 table
    act = [[[0, 0] for _ in range(3)] for _ in range(2)]
    ModuleAction(2, g, act)
    wrong_algebra = [row[:2] for row in act]
    wrong_carrier = [[vec + [0] for vec in row] for row in act]
    for bad in (act[:1], wrong_algebra, wrong_carrier):
        with pytest.raises(DimensionMismatch):
            ModuleAction(2, g, bad)


@pytest.mark.parametrize("cls", [BinaryAlgebra, TernaryAlgebra])
def test_from_sparse_rejects_out_of_range_indices(cls):
    # a wrapped python or numpy index would silently write another entry
    slots = cls.arity + 1
    for dim, bads in ((2, (-1, -2, 2, 3)), (10**6, (-1, 10**6))):
        for slot in range(slots):
            for bad in bads:
                ix = [0] * slots
                ix[slot] = bad
                entry = (*ix[:-1], [(ix[-1], 1)])
                # at dim 10**6 this also shows the check runs before the
                # dim**slots table is allocated
                with pytest.raises(DimensionMismatch):
                    cls.from_sparse(QQ, dim, [entry])
    with pytest.raises(DimensionMismatch):
        BinaryAlgebra.from_sparse(QQ, 2, [(-1, 0, [(0, 1)])])


@pytest.mark.parametrize("cls", [BinaryAlgebra, TernaryAlgebra])
@pytest.mark.parametrize("dim", [-1, 2.5, "3", None])
def test_zero_checks_its_dimension_before_allocating(cls, dim):
    with pytest.raises(DimensionMismatch):
        cls.zero(QQ, dim)


@pytest.mark.parametrize("cls", [BinaryAlgebra, TernaryAlgebra])
@pytest.mark.parametrize("dim", [-1, 2.5, "3", None])
def test_from_sparse_checks_its_dimension_before_allocating(cls, dim):
    with pytest.raises(DimensionMismatch):
        cls.from_sparse(QQ, dim, [])
    # an integral numpy dimension is an int
    assert cls.from_sparse(QQ, np.int64(2), []) == cls.zero(QQ, 2)


def test_algebra_equality_reads_the_canonical_tensor():
    # 1/2 + 1/2 scatters to 1: the stored scale is 1, as for the table [[[1]]]
    a = BinaryAlgebra.from_sparse(QQ, 1, [(0, 0, [(0, "1/2"), (0, "1/2")])])
    b = BinaryAlgebra(QQ, 1, [[[1]]], name="other")
    assert a.tensor().scale == 1
    assert a == b and hash(a) == hash(b)
    assert a != BinaryAlgebra(QQ, 1, [[[2]]])
    assert a != BinaryAlgebra(field_of("GF(3)"), 1, [[[1]]])
    assert BinaryAlgebra.zero(QQ, 1) != TernaryAlgebra.zero(QQ, 1)
    g = catalog("sl3", QQ)
    assert g == BinaryAlgebra(QQ, g.dim, tolists2(g))
    assert tensor_leibniz(g) != tensor_leibniz(catalog("sl3", field_of("GF(5)")))
