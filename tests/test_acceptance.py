"""Acceptance battery: nine end-to-end criteria, each with its own budget.

Every criterion prints a single PASS line (visible with pytest -s, and in
the captured output otherwise); a failed assert is the FAIL line. Budgets
are wall-clock and asserted, so a performance regression fails the suite.
The cross-checks lean on tests/naive_checks.py, which shares no code with
the package.
"""

import random
import time

from conftest import THEOREM_CASES, build_sl2_dual, char_of, tolists2, tolists3
from naive_checks import (
    naive_binary_flags,
    naive_cube_relation_rank,
    naive_derived_table,
    naive_i_j_dims,
    naive_leibniz_relation_rank,
    naive_lie_relation_rank,
    naive_rank,
    naive_ternary_flags,
    naive_ternary_morphism,
)

from uce3 import (
    QQ,
    canonical_wedge_action,
    catalog,
    check_binary,
    check_ternary,
    derived_lts,
    field_of,
    induced_leibniz_structure,
    leibniz_uce,
    lie_uce,
    lts_tensor_cube,
    tensor_leibniz,
    verify_action,
    verify_jacobiator_doubling,
    verify_main_theorem,
)

FIELDS = ("Q", "GF(2)", "GF(3)", "GF(5)")


def test_criterion_1_axiom_engine_vs_naive():
    t0 = time.monotonic()
    cases = [(name, spec) for name in ("sl2", "sl3") for spec in FIELDS]
    cases += [("abelian(2)", "Q"), ("abelian(4)", "GF(3)"),
              ("heisenberg", "Q"), ("heisenberg", "GF(2)")]
    for name, spec in cases:
        f = field_of(spec)
        g = catalog(name, f)
        p = char_of(f)
        fl = check_binary(g)
        ref = naive_binary_flags(p, tolists2(g))
        assert fl.is_alternating == ref["alternating"], (name, spec)
        assert fl.is_leibniz == ref["leibniz"], (name, spec)
        assert fl.satisfies_jacobi == ref["jacobi"], (name, spec)
        assert fl.is_lie == ref["lie"], (name, spec)
        assert fl.is_perfect == ref["perfect"], (name, spec)
        if fl.is_lie:
            dl = derived_lts(g)
            tf = check_ternary(dl)
            tref = naive_ternary_flags(p, naive_derived_table(p, tolists2(g)))
            assert tf.is_lts == tref["lts"], (name, spec)
            assert tf.is_perfect == tref["perfect"], (name, spec)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: axiom flags match the naive checker on "
          f"{len(cases)} catalog cases ({elapsed:.2f}s < 5s)")


def test_criterion_2_derived_and_tensor_constructions():
    t0 = time.monotonic()
    derived_count = 0
    for name in ("sl2", "sl3", "sl4"):
        for spec in FIELDS:
            g = catalog(name, field_of(spec))
            if not check_binary(g).is_perfect:
                continue
            dl = derived_lts(g)
            flags = check_ternary(dl)
            assert flags.is_lts and flags.is_perfect, (name, spec)
            act = canonical_wedge_action(dl)
            assert verify_action(act, target=dl), (name, spec)
            derived_count += 1
    tensor_count = 0
    for name, spec in (("sl2", "Q"), ("sl2", "GF(2)"), ("sl2", "GF(3)"),
                       ("sl2", "GF(5)"), ("sl3", "Q"), ("sl3", "GF(2)")):
        g = catalog(name, field_of(spec))
        dl = derived_lts(g)
        for a in (g, dl):
            for variant in ("tensor", "wedge"):
                tb = tensor_leibniz(a, variant=variant)
                assert check_binary(tb).is_leibniz, (name, spec, variant)
                tensor_count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: {derived_count} derived triple systems and "
          f"{tensor_count} tensor brackets verified ({elapsed:.2f}s < 30s)")


def test_criterion_3_sl2_cube_and_wedge_by_hand():
    t0 = time.monotonic()
    g = catalog("sl2", QQ)
    dl = derived_lts(g)
    u = lts_tensor_cube(dl)
    assert u.carrier_dim == 3 and u.kernel.dim == 0
    # independent route: rank of all relation generators in the 27 cube
    # coordinates, eliminated by the naive fraction code
    rank = naive_cube_relation_rank(0, tolists3(dl))
    assert 27 - rank == u.carrier_dim == 3
    assert rank == u.relations.dim == 24

    # the only Jacobi generator of the wedge construction, written out by
    # hand for (e,f,h): [e,f]^h + [f,h]^e + [h,e]^f = h^h + 2f^e + 2e^f = 0
    e, f, h = 0, 1, 2
    pairs = {(0, 1): 0, (0, 2): 1, (1, 2): 2}  # e^f, e^h, f^h

    def wedge(vec, other):
        out = [0, 0, 0]
        for k, coeff in enumerate(vec):
            if k == other or coeff == 0:
                continue
            if k < other:
                out[pairs[(k, other)]] += coeff
            else:
                out[pairs[(other, k)]] -= coeff
        return out

    c = tolists2(g)
    row = [
        a + b + d for a, b, d in zip(
            wedge(c[e][f], h), wedge(c[f][h], e), wedge(c[h][e], f)
        )
    ]
    assert row == [0, 0, 0]
    assert naive_lie_relation_rank(0, c) == 0
    ul = lie_uce(g)
    assert ul.relations.dim == 0
    assert ul.carrier_dim == 3
    # the projection onto sl2 is then a bijection: the cover is sl2 itself
    assert ul.projection.rank() == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 PASS: sl2 cube is 3-dimensional with H2 = 0 by "
          f"both routes; the single wedge relation vanishes by hand "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_4_jacobiator_doubling():
    lines = []
    for name, spec in (("sl2", "Q"), ("sl2", "GF(3)"), ("sl2", "GF(5)"),
                       ("sl3", "Q"), ("sl3", "GF(2)"), ("sl3", "GF(3)"),
                       ("sl3", "GF(5)"), ("sl2-dual", "Q")):
        budget = 60.0 if (name, spec) == ("sl3", "Q") else 10.0
        t0 = time.monotonic()
        if name == "sl2-dual":
            g = build_sl2_dual()
        else:
            g = catalog(name, field_of(spec))
        u = leibniz_uce(g)
        out = verify_jacobiator_doubling(u)
        elapsed = time.monotonic() - t0
        assert out["j_equals_2i"] is True, (name, spec)
        assert out["char_branch"] is True, (name, spec)
        if spec == "GF(2)":
            assert out["j"].dim == 0, "characteristic 2 must kill J exactly"
        if name == "sl2-dual":
            assert out["j_dim"] == out["i_dim"] == 1  # a genuinely nonzero J
        assert elapsed < budget, f"{name} {spec}: {elapsed:.2f}s >= {budget}s"
        # both spans re-derived from the carrier's table by the oracle
        p = char_of(g.field)
        c = tolists2(u.algebra)
        assert (out["i_dim"], out["j_dim"]) == naive_i_j_dims(p, c), (name, spec)
        lines.append(f"{name}/{spec} J={out['j_dim']} I={out['i_dim']} "
                     f"{elapsed:.2f}s")
    print("\nACCEPTANCE 4 PASS: J = 2I on all eight cases, J = 0 in "
          "characteristic 2 [" + "; ".join(lines) + "]")


def test_criterion_5_main_theorem_away_from_char_2():
    t0 = time.monotonic()
    for name, spec in (("sl2", "Q"), ("sl3", "Q"), ("sl2", "GF(5)"),
                       ("sl2", "GF(3)")):
        g = catalog(name, field_of(spec))
        rep = verify_main_theorem(g)
        assert rep.ok, (name, spec, rep.failed_fact)
        assert rep.branch == "char-not-2"
        d = rep.dims
        assert d["j"] == d["i"], (name, spec)
        # chi is the explicit isomorphism U_LTS -> derived(U_Lie): square,
        # full rank, and a ternary morphism when re-checked naively
        chi = rep.maps["chi"]
        assert chi.shape == (d["u_lie"], d["u_lts"])
        assert d["u_lie"] == d["u_lts"]
        assert chi.rank() == d["u_lts"]
        u_lts = lts_tensor_cube(derived_lts(g))
        u_lie = lie_uce(g)
        target = derived_lts(u_lie.algebra)
        p = char_of(g.field)
        mat = [[x for x in row] for row in chi.rows]
        assert naive_ternary_morphism(
            p, tolists3(u_lts.algebra), tolists3(target), mat
        ), (name, spec)
        # "over g": the isomorphism commutes with the two projections
        assert u_lie.projection @ chi == u_lts.projection, (name, spec)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 5 PASS: U_LTS = U_Lie via an explicit isomorphism "
          f"on four cases away from characteristic 2, re-checked naively "
          f"on every basis triple ({elapsed:.2f}s < 600s)")


def test_criterion_6_main_theorem_char_2():
    t0 = time.monotonic()
    g = catalog("sl3", field_of("GF(2)"))
    rep = verify_main_theorem(g)
    assert rep.ok, rep.failed_fact
    assert rep.branch == "char-2"
    d = rep.dims
    assert d["u_lts"] == d["u_leib"] == 8
    # all three carrier dimensions re-derived by the bitset rank oracle
    c = tolists2(g)
    t = naive_derived_table(2, c)
    assert 64 - naive_leibniz_relation_rank(2, c) == d["u_leib"]
    assert 28 - naive_lie_relation_rank(2, c) == d["u_lie"]
    assert 512 - naive_cube_relation_rank(2, t) == d["u_lts"]
    assert d["j"] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 PASS: U_LTS = U_Leib for sl3 over GF(2) with all "
          f"carrier dimensions re-derived by an independent GF(2) rank "
          f"oracle ({elapsed:.2f}s < 60s)")


def test_criterion_7_induced_leibniz_structure():
    t0 = time.monotonic()
    for name, spec, z_expected in (("sl2", "Q", 0), ("sl3", "GF(2)", 20)):
        g = catalog(name, field_of(spec))
        dl = derived_lts(g)
        cube = lts_tensor_cube(dl)
        cert = induced_leibniz_structure(cube, g)
        br = cert.leibniz_bracket
        flags = check_binary(br)
        assert flags.is_leibniz and flags.satisfies_jacobi, (name, spec)
        assert derived_lts(br) == cube.algebra, (name, spec)
        # Z = ker(carrier ^ carrier -> g); its expected size is dim of the
        # wedge square minus dim g since the bracket map is onto
        assert len(cert.z_basis) == z_expected, (name, spec)
        n = g.dim
        c = tolists2(g)
        wedge_rows = [c[i][j] for i in range(n) for j in range(i + 1, n)]
        p = char_of(g.field)
        assert len(wedge_rows) - naive_rank(p, wedge_rows) == z_expected
        # splitting independence is asserted inside the construction; a
        # second run reproduces the same bracket on the nose
        cert2 = induced_leibniz_structure(cube, g)
        assert cert2.leibniz_bracket == br
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"budget blown: {elapsed:.2f}s"
    print(f"\nACCEPTANCE 7 PASS: cube carriers over sl2(Q) and sl3(GF(2)) "
          f"carry the induced Leibniz bracket, with wedge-kernel triviality "
          f"and splitting independence verified ({elapsed:.2f}s < 60s)")


def test_criterion_8_comparison_triangle(theorem_report):
    checked = []
    for name, spec in THEOREM_CASES + (("sl2-dual", "Q"),):
        if spec == "GF(2)":
            continue
        rep = theorem_report(name, spec)
        assert rep.ok, (name, spec, rep.failed_fact)
        theta, chi, phi = (rep.maps[k] for k in ("theta", "chi", "phi"))
        assert theta == chi @ phi, (name, spec)
        checked.append(f"{name}/{spec}")
    print(f"\nACCEPTANCE 8 PASS: theta = chi o phi entry for entry on "
          f"{len(checked)} cases away from characteristic 2")


def test_criterion_9_determinism():
    t0 = time.monotonic()
    # twenty independently seeded generator shuffles across constructors
    combos = [
        ("sl2", "Q"), ("sl2", "GF(3)"), ("sl2", "GF(5)"), ("sl3", "GF(2)"),
    ]
    reference = {}
    for name, spec in combos:
        g = catalog(name, field_of(spec))
        dl = derived_lts(g)
        reference[(name, spec)] = {
            "lie": lie_uce(g), "leibniz": leibniz_uce(g),
            "lts": lts_tensor_cube(dl),
        }
    for seed in range(20):
        name, spec = combos[seed % len(combos)]
        category = ("lie", "leibniz", "lts")[seed % 3]
        rng = random.Random(seed)
        g = catalog(name, field_of(spec))
        if category == "lie":
            u = lie_uce(g, rng=rng)
        elif category == "leibniz":
            u = leibniz_uce(g, rng=rng)
        else:
            u = lts_tensor_cube(derived_lts(g), rng=rng)
        u0 = reference[(name, spec)][category]
        assert u.carrier_dim == u0.carrier_dim, (seed, name, spec, category)
        assert u.kernel.dim == u0.kernel.dim, (seed, name, spec, category)
        assert u.relations.equals(u0.relations), (seed, name, spec, category)

    # a basis permutation of the input must not move any dimension
    for name, spec in (("sl2", "Q"), ("sl3", "GF(2)")):
        g = catalog(name, field_of(spec))
        rep0 = verify_main_theorem(g)
        rng = random.Random(2026)
        perm = list(range(g.dim))
        rng.shuffle(perm)
        n = g.dim
        f = g.field
        table = [
            [
                [f.zero] * n
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        inv = [0] * n
        for i, pi in enumerate(perm):
            inv[pi] = i
        c = tolists2(g)
        for i in range(n):
            for j in range(n):
                src = c[perm[i]][perm[j]]
                for k in range(n):
                    table[i][j][inv[k]] = src[k]
        from uce3 import BinaryAlgebra

        gp = BinaryAlgebra(f, n, table, name=g.name)
        repp = verify_main_theorem(gp)
        assert repp.dims == rep0.dims, (name, spec, perm)
        assert repp.ok
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 9 PASS: 20 seeded shuffles and 2 basis permutations "
          f"leave every dimension fixed ({elapsed:.2f}s)")
