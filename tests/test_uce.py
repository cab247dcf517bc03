import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    THEOREM_CASES,
    build_sl2_dual,
    char_of,
    scaled_sl2,
    tolists2,
    rebased_ternary,
    tolists3,
)
from naive_checks import (
    naive_algebra_doc,
    naive_binary_morphism,
    naive_cube_relation_rank,
    naive_cube_relation_rows,
    naive_leibniz_relation_rank,
    naive_leibniz_relation_rows,
    naive_lie_relation_rank,
    naive_lie_relation_rows,
    naive_ternary_morphism,
)

from uce3 import (
    QQ,
    BinaryAlgebra,
    CentralExtension,
    DimensionGuard,
    InternalAssertionFailed,
    Matrix,
    NotCentral,
    NotLeibniz,
    NotLie,
    NotOverSameBase,
    NotPerfect,
    Subspace,
    TernaryAlgebra,
    UceResult,
    WellDefinednessFailed,
    WrongCategory,
    catalog,
    check_binary,
    check_ternary,
    derived_lts,
    field_of,
    homology,
    leibniz_uce,
    lie_uce,
    lts_tensor_cube,
    universal_map,
    verify_main_theorem,
)
from uce3 import tensorops as tops

# carrier and H2 dimensions confirmed against the relation-rank oracle in
# tests/naive_checks.py (see test_acceptance for the live cross-checks)
FROZEN = {
    ("sl2", "Q"): {"lie": (3, 0), "leibniz": (3, 0), "lts": (3, 0)},
    ("sl2", "GF(3)"): {"lie": (3, 0), "leibniz": (3, 0), "lts": (3, 0)},
    ("sl2", "GF(5)"): {"lie": (3, 0), "leibniz": (3, 0), "lts": (3, 0)},
    ("sl3", "Q"): {"lie": (8, 0), "leibniz": (8, 0), "lts": (8, 0)},
    ("sl3", "GF(2)"): {"lie": (8, 0), "leibniz": (8, 0), "lts": (8, 0)},
    ("sl3", "GF(3)"): {"lie": (14, 6), "leibniz": (14, 6), "lts": (14, 6)},
    ("sl3", "GF(5)"): {"lie": (8, 0), "leibniz": (8, 0), "lts": (8, 0)},
}


CATEGORIES = ("lie", "leibniz", "lts")


def build(category, g, **kw):
    if category == "lie":
        return lie_uce(g, **kw)
    if category == "leibniz":
        return leibniz_uce(g, **kw)
    return lts_tensor_cube(derived_lts(g), **kw)


@pytest.mark.parametrize("name,spec", sorted(FROZEN))
def test_frozen_dimensions(name, spec):
    g = catalog(name, field_of(spec))
    for category, (carrier, h2) in FROZEN[(name, spec)].items():
        u = build(category, g)
        assert u.carrier_dim == carrier, (name, spec, category)
        assert u.kernel.dim == h2, (name, spec, category)


def test_relation_space_dims_sl3_gf2():
    g = catalog("sl3", field_of("GF(2)"))
    assert leibniz_uce(g).relations.dim == 56
    assert lie_uce(g).relations.dim == 20
    assert lts_tensor_cube(derived_lts(g)).relations.dim == 504


@pytest.mark.parametrize("name,spec", THEOREM_CASES)
def test_relation_ranks_match_naive(name, spec):
    # the Lie relations are folded as the wedge image of the Leibniz
    # generators; the oracle spans the Jacobi generators themselves
    f = field_of(spec)
    g = catalog(name, f)
    p, c = char_of(f), tolists2(g)
    assert lie_uce(g).relations.dim == naive_lie_relation_rank(p, c)
    assert leibniz_uce(g).relations.dim == naive_leibniz_relation_rank(p, c)


@pytest.mark.parametrize("spec", ["GF(2)", "GF(3)", "GF(5)", "GF(2147483647)"])
def test_cube_relation_rank_matches_naive_over_gfp(spec):
    # the GF(p) fold filters whole blocks of generators at once; at the
    # modulus limit each product of residues is near 2**62. sl2 is not
    # perfect in characteristic 2, so GF(2) takes sl3 (rank 504)
    name = "sl3" if spec == "GF(2)" else "sl2"
    d = derived_lts(catalog(name, field_of(spec)))
    rank = naive_cube_relation_rank(d.field.p, tolists3(d))
    assert lts_tensor_cube(d).relations.dim == rank


def _folded_blocks(monkeypatch, build):
    """The (cols, vals, lens) blocks a constructor hands to the fold."""
    import uce3.uce as uce_mod

    fold = uce_mod._fold_relations
    seen = []

    def recording(field, ambient, blocks, stop_dim, ev, rng=None):
        seen.extend(blocks())
        return fold(field, ambient, lambda: seen, stop_dim, ev, rng)

    monkeypatch.setattr(uce_mod, "_fold_relations", recording)
    u = build()
    monkeypatch.undo()
    return u, seen


def _sparse_generators(blocks, p, scale):
    """Each generator of the blocks as its sorted nonzero (coordinate,
    field value) terms, repeated coordinates summed."""
    out = []
    for cols, vals, lens in blocks:
        t = 0
        for m in lens.tolist():
            v = Counter()
            for c, x in zip(cols[t : t + m].tolist(), vals[t : t + m].tolist()):
                v[c] += x
            t += m
            v = {c: x % p if p else Fraction(x, scale) for c, x in v.items()}
            out.append(tuple(sorted((c, x) for c, x in v.items() if x)))
    return out


def _sparse_rows(rows):
    return [tuple((c, x) for c, x in enumerate(row) if x) for row in rows]


def _wedged_cube_rows(p, n, rows):
    """Sparse rows of L (x) L (x) L under the signed map the cube is folded
    through: e_xyz to e_xyz for y > z, to -e_xzy for y < z, to 0 for
    y = z, the kept coordinates (y > z) numbered in the ambient's order."""
    coords = list(product(range(n), repeat=3))
    kept = {c: i for i, c in enumerate(c for c in coords if c[1] > c[2])}
    out = []
    for row in rows:
        v = Counter()
        for c, x in row:
            i, j, k = coords[c]
            if j != k:
                v[kept[i, max(j, k), min(j, k)]] += x if j > k else -x
        v = {c: x % p if p else x for c, x in v.items()}
        out.append(tuple(sorted((c, x) for c, x in v.items() if x)))
    return out


@pytest.mark.parametrize("name,spec", THEOREM_CASES)
def test_relation_streams_match_naive_generators(monkeypatch, name, spec):
    # the array streams produce the oracle's generators exactly: every
    # Leibniz generator, and of the Lie and the cube's fundamental families
    # the ones the axioms leave independent (x < y < z; a < b and y < z),
    # the cube's through the signed map onto L (x) wedge^2 L. Those lie in
    # the oracle's span, so an equal rank (here and in
    # test_relation_ranks_match_naive) proves the spans equal
    f = field_of(spec)
    g = catalog(name, f)
    d = derived_lts(g)
    p, c, t = char_of(f), tolists2(g), tolists3(d)
    _, blocks = _folded_blocks(monkeypatch, lambda: leibniz_uce(g))
    got = _sparse_generators(blocks, p, g.tensor().scale)
    assert Counter(got) == Counter(_sparse_rows(naive_leibniz_relation_rows(p, c)))
    _, blocks = _folded_blocks(monkeypatch, lambda: lie_uce(g))
    got = _sparse_generators(blocks, p, g.tensor().scale)
    want = [row for (x, y, z), row in zip(product(range(g.dim), repeat=3),
                                          naive_lie_relation_rows(p, c))
            if x < y < z]
    assert Counter(got) == Counter(_sparse_rows(want))
    u, blocks = _folded_blocks(monkeypatch, lambda: lts_tensor_cube(d))
    got = _normalized(p, _sparse_generators(blocks, p, d.tensor().scale))
    n = d.dim
    want = _wedged_cube_rows(p, n, _sparse_rows(naive_cube_relation_rows(p, t)))
    # the oracle's rows are n**2 + n**3 squares, which map to zero, then the
    # cycles, indexed (i, j, k), then the fundamentals, one (a, b) block
    # each, indexed (a, b, x, y, z). The stream is the cycles, then the
    # fundamentals of the r pairs of the slab basis B, both through tau
    # onto the n r coordinates (x, pair of B), up to tau's scale
    basis = tops._spanning_slabs(d.tensor())
    r, pairs = len(basis), comb(n, 2)
    tau = _naive_tau(d, basis)
    cycles, fundamentals = comb(n, 3), r * n * pairs
    assert len(got) == cycles + fundamentals
    assert max(c for row in got for c, _ in row) < n * r
    assert Counter(got[:cycles]) == Counter(_normalized(p, _through_tau(p, tau, r, [
        row for (i, j, k), row in zip(product(range(n), repeat=3),
                                      want[n**2 + n**3 : -n**5])
        if i < j < k
    ])))
    assert Counter(got[cycles:]) == Counter(_normalized(p, _through_tau(p, tau, r, [
        row for (a, b, x, y, z), row in zip(product(range(n), repeat=5),
                                            want[-n**5 :])
        if (a, b) in basis and y < z
    ])))
    # the rank oracle takes minutes on the sl3 cube over Q, and
    # test_cube_relation_rank_matches_naive_over_gfp runs it on sl3/GF(2)
    if (name, spec) not in (("sl3", "Q"), ("sl3", "GF(2)")):
        assert u.relations.dim == naive_cube_relation_rank(p, t)


def _naive_tau(d, basis):
    """Per pair (hi, lo), hi > lo, in the cube's order hi (hi - 1) / 2 + lo:
    the field scalars c with {., hi, lo} = sum of c_i {., a_i, b_i} over the
    pairs (a_i, b_i) of basis, solved entry by entry on the naive tensor."""
    from uce3.linalg import solve_columns

    n, t = d.dim, tolists3(d)
    slab = lambda a, b: [t[x][a][b][w] for x in range(n) for w in range(n)]
    m = Matrix(d.field, [list(row) for row in zip(*(slab(a, b) for a, b in basis))])
    hi, lo = np.tril_indices(n, -1)
    return solve_columns(m, [slab(h, l) for h, l in zip(hi.tolist(), lo.tolist())])


def _through_tau(p, tau, r, rows):
    """Sparse rows over the kept coordinates x C(n,2) + pair, sent to the
    coordinates x r + i by pair -> sum of tau[pair][i] e_i, mod p over
    GF(p)."""
    out = []
    for row in rows:
        v = Counter()
        for c, x in row:
            q, pair = divmod(c, len(tau))
            for i, s in enumerate(tau[pair]):
                v[q * r + i] += x * s
        v = {c: x % p if p else x for c, x in v.items()}
        out.append(tuple(sorted((c, x) for c, x in v.items() if x)))
    return out


def _normalized(p, rows):
    """Each sparse row divided by its leading value, mod p over GF(p)."""
    return [tuple((c, x * pow(row[0][1], -1, p) % p if p else x / row[0][1])
                  for c, x in row) if row else row for row in rows]


def test_cube_streams_only_the_independent_fundamentals(monkeypatch):
    # C(n,3) cycles and the n C(n,2) fundamentals of each of the r pairs of
    # a slab basis, not n**3 cycles and n**5 fundamentals, and no squares:
    # the stream lives on the n r coordinates of L (x) wedge^2 L modulo
    # L (x) W
    d = derived_lts(catalog("sl3", field_of("GF(2)")))
    n, r = d.dim, len(tops._spanning_slabs(d.tensor()))
    _, blocks = _folded_blocks(monkeypatch, lambda: lts_tensor_cube(d))
    # 56 + 1792 = 1848 on sl3 (r = 8), against 512 cycles and 32768
    # fundamentals in the full families
    count = comb(n, 3) + r * n * comb(n, 2)
    assert sum(len(lens) for _, _, lens in blocks) == count == 1848
    assert max(int(cols.max()) for cols, _, _ in blocks) < n * r == 64


@pytest.mark.parametrize("make", [
    lambda: derived_lts(catalog("sl3", field_of("GF(3)"))),
    lambda: _rebased(derived_lts(catalog("sl3", QQ)), 5),
    lambda: derived_lts(build_sl2_dual()),
], ids=["sl3-gf3", "sl3-q-rebased", "takiff-q"])
def test_cube_slab_basis_is_the_witness_pick(make):
    # the representatives of the pairs modulo W are the greedy slab basis B
    # the derivation witness checks, in the cube's pair order, and tau
    # writes every slab as their combination, up to one scale
    import uce3.uce as uce_mod

    d = make()
    t, n = d.tensor(), d.dim
    hi, lo = np.tril_indices(n, -1)
    slabs = t.arr[:, hi, lo, :].astype(object)
    pairs, reps, tau = uce_mod._pair_quotient(slabs, d.field, t.scale)
    assert pairs == tops._spanning_slabs(t)
    assert reps.tolist() == [b * (b - 1) // 2 + a for a, b in pairs]
    assert tau.shape == (comb(n, 2), len(reps))
    s = tau[reps[0], 0]
    assert s > 0 and np.array_equal(tau[reps], s * np.eye(len(reps), dtype=np.int64))
    combined = np.tensordot(slabs[:, reps], tau.T.astype(object), ([1], [0]))
    sums = s * slabs - combined.transpose(0, 2, 1)
    assert not (sums % t.p if t.p else sums).any()


def _rebased(d, seed):
    """The triple system d in a seeded random unitriangular basis."""
    t = d.tensor()
    raw = rebased_ternary(random.Random(seed), t.arr.astype(object))
    return TernaryAlgebra.from_raw(d.field, raw, t.scale, name=f"{d.name}-rebased")


@pytest.mark.parametrize("make", [
    lambda: derived_lts(catalog("sl3", field_of("GF(3)"))),
    lambda: derived_lts(catalog("sl3", QQ)),
    lambda: derived_lts(catalog("sl3", field_of("GF(2)"))),
    lambda: derived_lts(build_sl2_dual()),
], ids=["sl3-gf3", "sl3-q", "sl3-gf2", "takiff-q"])
def test_cube_relation_span_is_the_full_oracle_span(make):
    # off the catalog basis too, the reduced stream spans what the full
    # five-variable family spans, shuffled or not
    d = _rebased(make(), 5)
    rows = list(naive_cube_relation_rows(char_of(d.field), tolists3(d)))
    want = Subspace.from_vectors(d.field, d.dim**3, rows)
    for rng in (None, random.Random(11)):
        assert lts_tensor_cube(d, rng=rng).relations.equals(want)


LIFT_CASES = {
    "sl3-gf2": lambda: derived_lts(catalog("sl3", field_of("GF(2)"))),
    "sl3-gf3": lambda: derived_lts(catalog("sl3", field_of("GF(3)"))),
    "takiff-q": lambda: derived_lts(build_sl2_dual()),
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**31))
def test_cube_lift_is_the_full_relation_span(case, seed):
    # the cube is folded modulo S = L (x) Sym^2 L and lifted back: every
    # coordinate (x, y, z) with y <= z is a pivot, S reduces to zero, and
    # the lift is the full oracle family's span, in a random basis too
    d = _rebased(LIFT_CASES[case](), seed)
    n = d.dim
    relations = lts_tensor_cube(d).relations
    coords = list(product(range(n), repeat=3))
    assert {i for i, (x, y, z) in enumerate(coords) if y <= z} <= set(relations.pivots)
    assert all(coords[i][1] > coords[i][2] for i in relations.free)
    for x, y, z in coords:
        if y <= z:
            v = [0] * n**3
            v[(x * n + y) * n + z] = 1
            v[(x * n + z) * n + y] = 1
            assert not any(relations.reduce(v)), (x, y, z)
    rows = naive_cube_relation_rows(char_of(d.field), tolists3(d))
    assert relations == Subspace.from_vectors(d.field, n**3, rows)


def test_relation_streams_carry_object_values_over_q():
    # sl2 on the basis 2**40 e, 2**40 f, h has [e', f'] = 2**80 h: the
    # structure tensor needs python ints, and so do the relation streams
    g = catalog("sl2", QQ)
    s = [2**40, 2**40, 1]
    c = tolists2(g)
    table = [[[Fraction(s[i] * s[j]) * c[i][j][k] / s[k] for k in range(3)]
              for j in range(3)] for i in range(3)]
    big = BinaryAlgebra(QQ, 3, table, name="sl2-rescaled")
    assert big.tensor().arr.dtype == object
    for category, relation_dim in (("lie", 0), ("leibniz", 6), ("lts", 24)):
        for rng in (None, random.Random(7)):
            u = build(category, big, rng=rng)
            assert u.carrier_dim == 3 and u.kernel.dim == 0, category
            assert u.relations.dim == relation_dim, category


def test_extension_verifies_and_is_perfect():
    for name, spec in (("sl2", "Q"), ("sl3", "GF(2)"), ("sl3", "GF(3)")):
        g = catalog(name, field_of(spec))
        for category in ("lie", "leibniz", "lts"):
            u = build(category, g)
            assert u.verify() is u
            # projection splits the section on the nose
            assert u.projection @ u.section == Matrix.identity(
                g.field, g.dim
            )


def test_nondegenerate_case_sl2_dual():
    g = build_sl2_dual()
    u_lie, u_leib = lie_uce(g), leibniz_uce(g)
    u_lts = lts_tensor_cube(derived_lts(g))
    assert (u_lie.carrier_dim, u_lie.kernel.dim) == (6, 0)
    assert (u_leib.carrier_dim, u_leib.kernel.dim) == (7, 1)
    assert (u_lts.carrier_dim, u_lts.kernel.dim) == (6, 0)
    # the Leibniz cover is perfect, genuinely non-Lie, and self-covering
    e = u_leib.algebra
    flags = check_binary(e)
    assert flags.is_leibniz and flags.is_perfect and not flags.is_lie
    again = leibniz_uce(e)
    assert again.carrier_dim == 7 and again.kernel.dim == 0


def test_homology_report():
    g = catalog("sl3", field_of("GF(3)"))
    u = leibniz_uce(g)
    rep = homology(u)
    assert rep.h1_dim == 0
    assert rep.h2_dim == 6
    assert len(rep.h2_basis) == 6
    assert all(any(x != 0 for x in v) for v in rep.h2_basis)
    h = catalog("heisenberg", QQ)
    with pytest.raises(NotPerfect):
        leibniz_uce(h)


def test_constructor_preconditions():
    with pytest.raises(NotPerfect):
        lie_uce(catalog("abelian(3)", QQ))
    with pytest.raises(NotPerfect):
        lie_uce(catalog("sl2", field_of("GF(2)")))
    bad = BinaryAlgebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    with pytest.raises(NotLeibniz):
        leibniz_uce(bad)
    # lie_uce wants an honest Lie bracket
    u = leibniz_uce(build_sl2_dual())
    with pytest.raises(NotLie):
        lie_uce(u.algebra)
    with pytest.raises(NotPerfect):
        lts_tensor_cube(derived_lts(catalog("sl2", field_of("GF(2)"))))


def test_wrong_arity_is_a_wrong_category_error():
    # derived_lts has already stored the LTS's ternary flags, which
    # check_binary must not hand back as binary ones
    g = catalog("sl2", QQ)
    dl = derived_lts(g)
    for call, alg in ((leibniz_uce, dl), (lie_uce, dl), (verify_main_theorem, dl),
                      (check_binary, dl), (lts_tensor_cube, g), (check_ternary, g)):
        with pytest.raises(WrongCategory):
            call(alg)


def test_cube_dimension_guard():
    dl = derived_lts(catalog("sl4", QQ))  # dim 15 > the guard threshold
    with pytest.raises(DimensionGuard):
        lts_tensor_cube(dl)


def test_to_dict_shape():
    u = lie_uce(catalog("sl2", QQ))
    d = u.to_dict()
    assert d["category"] == "lie"
    assert d["carrier_dim"] == 3
    assert d["h2_dim"] == 0
    assert d["algebra"]["dim"] == 3
    assert d["base"] == "sl2"


@pytest.mark.parametrize("category", ["lie", "leibniz", "lts"])
@pytest.mark.parametrize("case", [
    "sl2/Q", "sl2/GF(3)", "sl2/GF(2147483647)", "sl3/Q", "sl3/GF(2)",
    "sl3/GF(3)", "sl3/GF(2147483647)", "takiff/Q",
])
def test_to_json_is_the_canonical_encoding(category, case):
    name, spec = case.split("/")
    g = build_sl2_dual() if name == "takiff" else catalog(name, field_of(spec))
    u = build(category, g)
    t = u.to_json()
    assert json.dumps(json.loads(t), sort_keys=True, indent=1) == t
    assert u.to_dict()["algebra"] == naive_algebra_doc(u.algebra)


def test_universal_map_identity():
    for category in ("lie", "leibniz", "lts"):
        g = catalog("sl2", field_of("GF(5)"))
        u = build(category, g)
        m = universal_map(u, u)
        assert m == Matrix.identity(g.field, u.carrier_dim)


@pytest.mark.parametrize("category", ["lie", "leibniz", "lts"])
def test_relation_projection_is_built_once(monkeypatch, category):
    # the construction builds the relation span's projection and
    # universal_map reuses it
    built = Counter()
    projection = Subspace.projection

    def counting(self):
        built[id(self)] += self._projection is None
        return projection(self)

    monkeypatch.setattr(Subspace, "projection", counting)
    u = build(category, catalog("sl2", field_of("GF(5)")))
    universal_map(u, u)
    s = u.relations
    assert built[id(s)] == 1
    assert s.projection() is s.projection()
    assert built[id(s)] == 1


def test_universal_map_into_padded_extension():
    g = catalog("sl2", QQ)
    u = lie_uce(g)
    n = 4
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    c = tolists2(g)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                table[i][j][k] = c[i][j][k]
    padded = BinaryAlgebra(QQ, n, table, name="sl2+center")
    proj = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    sect = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ext = CentralExtension("lie", g, padded, proj, sect)
    m = universal_map(u, ext)
    assert m.shape == (4, 3)
    # the image avoids the padding coordinate
    assert all(QQ.is_zero(x) for x in m.rows[3])


def test_universal_map_error_paths():
    g = catalog("sl2", QQ)
    u_lie, u_leib = lie_uce(g), leibniz_uce(g)
    with pytest.raises(WrongCategory):
        universal_map(u_lie, u_leib)
    with pytest.raises(NotOverSameBase):
        universal_map(u_lie, lie_uce(catalog("sl3", QQ)))


def test_extension_verify_catches_noncentral_kernel():
    # 2-dim solvable algebra over a 1-dim base: the kernel acts, so it is
    # an extension but not a central one
    base = catalog("abelian(1)", QQ)
    e = BinaryAlgebra(QQ, 2, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    proj = Matrix(QQ, [[1, 0]])
    sect = Matrix(QQ, [[1], [0]])
    ext = CentralExtension("lie", base, e, proj, sect)
    with pytest.raises(NotCentral):
        ext.verify()


def test_extension_verify_catches_carrier_outside_its_category():
    # projection onto a 1-dim base with zero bracket; only the carrier's
    # own axioms are at fault
    proj = Matrix(QQ, [[1, 0]])
    sect = Matrix(QQ, [[1], [0]])
    not_leibniz = BinaryAlgebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    ext = CentralExtension(
        "leibniz", catalog("abelian(1)", QQ), not_leibniz, proj, sect
    )
    with pytest.raises(NotCentral, match="category's axioms"):
        ext.verify()
    # {e_0, e_0, e_0} = e_1 breaks vanishing in the last two slots
    not_lts = TernaryAlgebra.from_sparse(QQ, 2, [(0, 0, 0, [(1, 1)])])
    ext = CentralExtension("lts", TernaryAlgebra.zero(QQ, 1), not_lts, proj, sect)
    with pytest.raises(NotCentral, match="category's axioms"):
        ext.verify()


def test_extension_verify_catches_unsplit_section():
    g = catalog("sl2", QQ)
    ident = Matrix.identity(QQ, 3)
    bad_sect = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    ext = CentralExtension("lie", g, g, ident, bad_sect)
    with pytest.raises(NotCentral):
        ext.verify()


def test_extension_wrong_arity():
    g = catalog("sl2", QQ)
    dl = derived_lts(g)
    ident = Matrix.identity(QQ, 3)
    ext = CentralExtension("lts", g, dl, ident, ident)
    with pytest.raises(WrongCategory):
        ext.verify()


def test_shuffled_generators_same_result():
    g = catalog("sl2", field_of("GF(3)"))
    base = {
        cat: build(cat, g) for cat in ("lie", "leibniz", "lts")
    }
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for cat, u0 in base.items():
            u = build(cat, g, rng=rng)
            assert u.carrier_dim == u0.carrier_dim
            assert u.relations.equals(u0.relations)
            assert u.algebra == u0.algebra


def test_universal_map_to_trivial_extension_is_projection():
    # mapping into the base itself (identity projection) recovers b
    g = catalog("sl2", QQ)
    for category in ("lie", "leibniz", "lts"):
        u = build(category, g)
        base = u.base
        ident = Matrix.identity(QQ, base.dim)
        triv = CentralExtension(category, base, base, ident, ident)
        assert universal_map(u, triv) == u.projection


def test_universal_map_independent_of_section_choice():
    g = catalog("sl2", QQ)
    u = lie_uce(g)
    n = 4
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    c = tolists2(g)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                table[i][j][k] = c[i][j][k]
    padded = BinaryAlgebra(QQ, n, table, name="sl2+center")
    proj = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    sect1 = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    # a second splitting shifted by the central coordinate
    sect2 = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -2, 7]])
    m1 = universal_map(u, CentralExtension("lie", g, padded, proj, sect1))
    m2 = universal_map(u, CentralExtension("lie", g, padded, proj, sect2))
    assert m1 == m2


def _e0_e1(n):
    # e_0 (x) e_1 in the tensor square; sl2 has [e_0, e_1] != 0
    v = [0] * (n * n)
    v[1] = 1
    return v


def test_construction_rejects_relations_outside_evaluation_kernel(monkeypatch):
    import uce3.uce as uce_mod

    g = catalog("sl2", QQ)
    assert any(tolists2(g)[0][1])
    fold = uce_mod._fold_relations

    def fold_plus_bad_vector(field, ambient, blocks, stop_dim, ev, rng=None):
        rel = fold(field, ambient, blocks, stop_dim, ev, rng)
        return rel.sum_with(Subspace.from_vectors(field, ambient, [_e0_e1(3)]))

    monkeypatch.setattr(uce_mod, "_fold_relations", fold_plus_bad_vector)
    with pytest.raises(InternalAssertionFailed) as exc:
        leibniz_uce(g)
    assert exc.value.fact == "relations-escape-evaluation-kernel"
    assert "pivot column" in str(exc.value)


Q_CASES = {
    "sl2": lambda: catalog("sl2", QQ),
    "sl3": lambda: catalog("sl3", QQ),
    "takiff": build_sl2_dual,
}


@pytest.mark.parametrize("prime", [2, 3])
def test_relation_spans_over_q_do_not_depend_on_the_shadow_prime(
        monkeypatch, prime):
    # a small shadow prime loses rank on every case: route A's check
    # refuses the free columns it picks, or the stream runs out below
    # stop_dim and the exact certificate must fold in what it missed
    import uce3.uce as uce_mod

    want = {(name, cat): build(cat, make()).relations
            for name, make in Q_CASES.items() for cat in CATEGORIES}
    fold = uce_mod._fold
    folded_in = []

    def recording(acc, blocks, stop_dim, picked=None):
        new = fold(acc, blocks, stop_dim, picked)
        if acc.field == QQ:
            folded_in.append(new)
        return new

    monkeypatch.setattr(uce_mod, "_fold", recording)
    monkeypatch.setattr(uce_mod, "SHADOW_PRIME", prime)
    for name, make in Q_CASES.items():
        for cat in CATEGORIES:
            got = build(cat, make()).relations
            assert got == want[name, cat], (name, cat)
            assert got.basis_vectors() == want[name, cat].basis_vectors()
    assert sum(folded_in) >= 1


def _free_columns(relations):
    piv = set(relations.pivots)
    return [c for c in range(relations.ambient) if c not in piv]


def test_left_kernel_accepts_only_the_canonical_free_columns():
    from itertools import combinations

    from uce3.linalg import left_kernel

    g = catalog("sl2", QQ)
    u = leibniz_uce(g)
    ev = g.tensor().arr.reshape(9, 3)
    canonical = _free_columns(u.relations)
    invertible = 0
    for free in combinations(range(9), 3):
        got = left_kernel(ev, free)
        if list(free) == canonical:
            assert got == u.relations
            assert got.basis_vectors() == u.relations.basis_vectors()
            continue
        assert got is None, free
        invertible += Matrix(QQ, ev[list(free)].tolist()).rank() == 3
    # the RREF check, not only the inverse, refuses some of them
    assert invertible > 0


def test_route_a_falls_back_on_wrong_free_columns(monkeypatch):
    import uce3.uce as uce_mod
    from uce3.linalg import left_kernel

    g = catalog("sl3", QQ)
    want = {cat: build(cat, g).relations for cat in CATEGORIES}
    refused = []

    def swapped(arr, free):
        # trade one free column for the first column that keeps the
        # evaluation block invertible, so only the RREF check can refuse
        for c in sorted(set(range(arr.shape[0])) - set(free)):
            wrong = sorted(free[1:] + [c])
            if Matrix(QQ, arr[wrong].tolist()).rank() == len(free):
                break
        got = left_kernel(arr, wrong)
        refused.append(got is None)
        return got

    monkeypatch.setattr(uce_mod, "left_kernel", swapped)
    for cat in CATEGORIES:
        got = build(cat, g).relations
        assert got == want[cat]
        assert got.basis_vectors() == want[cat].basis_vectors()
    assert refused == [True] * len(CATEGORIES)


@pytest.mark.parametrize("name", ["sl2", "takiff"])
def test_a_generator_outside_the_evaluation_kernel_is_caught(monkeypatch, name):
    # leibniz: sl2/Q reaches stop_dim (route A), takiff/Q has H2 = 1 and
    # runs out below it (route B); the bad generator comes first in both
    import uce3.uce as uce_mod

    fold = uce_mod._fold_relations

    def bad_first(field, ambient, blocks, stop_dim, ev, rng=None):
        c = int(ev.arr.any(axis=1).nonzero()[0][0])
        bad = (np.array([c]), np.array([1]), np.array([1]))
        return fold(field, ambient, lambda: chain([bad], blocks()), stop_dim,
                    ev, rng)

    g = Q_CASES[name]()
    assert leibniz_uce(g).kernel.dim == (name == "takiff")
    monkeypatch.setattr(uce_mod, "_fold_relations", bad_first)
    with pytest.raises(InternalAssertionFailed) as exc:
        leibniz_uce(g)
    assert exc.value.fact == "relations-escape-evaluation-kernel"


def test_universal_map_rejects_source_killing_too_much():
    # a fake UCE whose carrier also kills e_0 (x) e_1, which the genuine
    # Leibniz UCE of sl2 (sl2 itself) sends to [e_0, e_1] != 0
    g = catalog("sl2", QQ)
    u = leibniz_uce(g)
    rel = u.relations.sum_with(Subspace.from_vectors(QQ, 9, [_e0_e1(3)]))
    assert rel.dim == u.relations.dim + 1
    fake = UceResult("leibniz", g, u.algebra, u.projection, u.section, rel)
    with pytest.raises(WellDefinednessFailed, match="pivot column"):
        universal_map(fake, u)


@pytest.mark.parametrize("build", [
    leibniz_uce,
    lambda g: lts_tensor_cube(derived_lts(g)),
])
def test_construction_checks_the_quotient_bracket(monkeypatch, build):
    import uce3.uce as uce_mod

    slotwise = uce_mod._slotwise

    def corrupted(t, m, arity, p):
        out = slotwise(t, m, arity, p).copy()
        out.flat[0] += 1
        return out

    monkeypatch.setattr(uce_mod, "_slotwise", corrupted)
    with pytest.raises(InternalAssertionFailed) as exc:
        build(catalog("sl2", QQ))
    assert exc.value.fact == "quotient-not-a-central-extension"


def test_universal_map_checks_the_morphism(monkeypatch):
    # the Lie UCE of sl2 is sl2 on the wedge square, which has no relations
    # to check: with the lift of e_0 ^ e_1 moved by one, the map is well
    # defined but no longer a bracket morphism
    import uce3.uce as uce_mod

    u = lie_uce(catalog("sl2", field_of("GF(3)")))
    assert u.relations.dim == 0
    slotwise = uce_mod._slotwise

    def corrupted(t, m, arity, p):
        out = slotwise(t, m, arity, p).copy()
        out[0, 1, 0] = (out[0, 1, 0] + 1) % p
        return out

    monkeypatch.setattr(uce_mod, "_slotwise", corrupted)
    with pytest.raises(InternalAssertionFailed) as exc:
        universal_map(u, u)
    assert exc.value.fact == "universal-map-not-a-morphism"


@pytest.mark.parametrize("category", CATEGORIES)
@pytest.mark.parametrize("spec", ["Q", "GF(2)", "GF(3)"])
def test_morphism_witness_matches_the_naive_oracles(spec, category):
    # the projection of a UCE is a morphism; with one entry changed it may
    # not be. Over Q the base is sl2 in a basis with constant 1/3, so the
    # projection carries a scale above 1; sl2 is not perfect over GF(2)
    if spec == "Q":
        g = scaled_sl2(3)
    else:
        g = catalog("sl2" if spec == "GF(3)" else "sl3", field_of(spec))
    u = build(category, g)
    f, p = g.field, char_of(g.field)
    ext, base = u.algebra, u.base
    if spec == "Q":
        assert u.projection.tensor().scale > 1
    naive = naive_ternary_morphism if category == "lts" else naive_binary_morphism
    rng = random.Random(17)
    verdicts = []
    for trial in range(6):
        rows = [list(r) for r in u.projection.rows]
        if trial:
            i, j = rng.randrange(len(rows)), rng.randrange(ext.dim)
            rows[i][j] = f.coerce(rows[i][j] + (f.random_scalar(rng) or f.one))
        m = Matrix(f, rows, ext.dim)
        wit = tops.morphism_witness(ext.tensor(), base.tensor(), m.tensor())
        ok = naive(p, tolists2(ext), tolists2(base), rows)
        assert (wit is None) == ok, (trial, wit)
        verdicts.append(ok)
    assert verdicts[0] and not all(verdicts)
