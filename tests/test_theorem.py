import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from conftest import THEOREM_CASES, build_sl2_dual, char_of, rebased_sl3, tolists2, tolists3
from naive_checks import naive_i_j_dims

from uce3 import (
    QQ,
    AxiomPrecondition,
    CentralExtension,
    Matrix,
    ModuleAction,
    NotCentral,
    NotEquivariant,
    NotLie,
    NotOverSameBase,
    NotPerfect,
    PrimeField,
    Rationals,
    Subspace,
    TernaryAlgebra,
    WrongCategory,
    catalog,
    check_binary,
    derived_lts,
    field_of,
    homology,
    induced_leibniz_structure,
    jacobiator_subspace,
    leibniz_uce,
    lie_uce,
    lts_tensor_cube,
    symmetric_subspace,
    verify_jacobiator_doubling,
    verify_main_theorem,
)
from uce3 import tensorops as tops

# (u_lie, u_leib, u_lts, h2_lie, h2_leib, h2_lts, j, i, i_prime)
FROZEN_DIMS = {
    ("sl2", "Q"): (3, 3, 3, 0, 0, 0, 0, 0, 0),
    ("sl2", "GF(3)"): (3, 3, 3, 0, 0, 0, 0, 0, 0),
    ("sl2", "GF(5)"): (3, 3, 3, 0, 0, 0, 0, 0, 0),
    ("sl3", "Q"): (8, 8, 8, 0, 0, 0, 0, 0, 0),
    ("sl3", "GF(2)"): (8, 8, 8, 0, 0, 0, 0, 0, 0),
    ("sl3", "GF(3)"): (14, 14, 14, 6, 6, 6, 0, 0, 0),
    ("sl3", "GF(5)"): (8, 8, 8, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("name,spec", THEOREM_CASES)
def test_theorem_catalog_cases(name, spec, theorem_report):
    rep = theorem_report(name, spec)
    assert rep.ok, rep.failed_fact
    d = rep.dims
    assert (
        d["u_lie"], d["u_leib"], d["u_lts"],
        d["h2_lie"], d["h2_leib"], d["h2_lts"],
        d["j"], d["i"], d["i_prime"],
    ) == FROZEN_DIMS[(name, spec)]
    expect_branch = "char-2" if spec == "GF(2)" else "char-not-2"
    assert rep.branch == expect_branch
    want_maps = {"phi", "phi_bar", "psi"}
    if expect_branch == "char-not-2":
        want_maps |= {"theta", "chi"}
    assert set(rep.maps) == want_maps
    json.dumps(rep.to_dict())  # report is serializable as is


def test_theorem_nondegenerate_case(theorem_report):
    rep = theorem_report("sl2-dual", "Q")
    assert rep.ok, rep.failed_fact
    d = rep.dims
    assert (d["base"], d["u_lie"], d["u_leib"], d["u_lts"]) == (6, 6, 7, 6)
    assert (d["h2_lie"], d["h2_leib"], d["h2_lts"]) == (0, 1, 0)
    assert (d["j"], d["i"], d["i_prime"]) == (1, 1, 0)
    # phi collapses exactly the jacobiator line: 6x7 of rank 6
    phi = rep.maps["phi"]
    assert phi.shape == (6, 7)
    assert phi.rank() == 6


def test_theorem_rejects_bad_inputs():
    with pytest.raises(NotPerfect):
        verify_main_theorem(catalog("heisenberg", QQ))
    u = leibniz_uce(build_sl2_dual())
    with pytest.raises(NotLie):
        verify_main_theorem(u.algebra)  # Leibniz but not Lie


def test_jacobiator_and_symmetric_subspaces():
    u0 = leibniz_uce(catalog("sl2", QQ))
    assert jacobiator_subspace(u0).dim == 0
    assert symmetric_subspace(u0).dim == 0
    u = leibniz_uce(build_sl2_dual())
    j = jacobiator_subspace(u)
    i = symmetric_subspace(u)
    assert j.dim == 1 and i.dim == 1
    assert j.equals(i)
    assert j.is_subspace_of(u.kernel)
    with pytest.raises(WrongCategory):
        jacobiator_subspace(lie_uce(catalog("sl2", QQ)))
    with pytest.raises(WrongCategory):
        symmetric_subspace(lie_uce(catalog("sl2", QQ)))


def _dense_jacobiator_span(u):
    """J by the dense construction: three transposed copies of the q^4
    table of [x,[y,z]], summed, and folded as q^3 rows."""
    lhs = tops.left_nested(u.algebra.tensor())
    jac = lhs + lhs.transpose(2, 0, 1, 3) + lhs.transpose(1, 2, 0, 3)
    q = u.carrier_dim
    return Subspace.from_vectors(u.base.field, q, jac.reshape(q**3, q))


def _dense_quotient_algebra(u, j):
    """The ternary algebra of U_Leib/J by the dense construction: the q^4
    table of [x,[y,z]] cut to the coset coordinates, then times K."""
    k = j.projection()
    et = u.algebra.tensor()
    c = list(j.free)
    nested = tops.left_nested(et)[np.ix_(c, c, c)]
    raw = tops.exact_tensordot(nested, k.arr, ([3], [0]), k.p)
    return TernaryAlgebra.from_raw(u.base.field, raw, et.scale**2 * k.scale)


@pytest.mark.parametrize("case", ["takiff/Q", "sl2/GF(3)", "sl3/GF(3)",
                                  "sl3-rebased/GF(3)"])
@pytest.mark.parametrize("sparse", [False, True])
def test_j_layer_is_the_dense_construction_on_either_route(case, sparse):
    # Takiff/Q has J = I of dimension 1, so the quotient is a real one
    import uce3.theorem as theorem_mod

    if case == "takiff/Q":
        g = build_sl2_dual()
    elif case == "sl3-rebased/GF(3)":
        g = rebased_sl3(0)
    else:
        name, spec = case.split("/")
        g = catalog(name, field_of(spec))
    u = leibniz_uce(g)
    want_j = _dense_jacobiator_span(u)
    with mock.patch.object(tops, "_sparse_route", lambda products, dense: sparse):
        out = verify_jacobiator_doubling(u)
        alg, proj, sec = theorem_mod._quotient_by_jacobiator_span(u, out["j"])
    j, i = out["j"], out["i"]
    assert j == want_j and out["j_equals_2i"] and out["char_branch"]
    assert (i.dim, j.dim) == naive_i_j_dims(char_of(g.field), tolists2(u.algebra))
    assert alg == _dense_quotient_algebra(u, j)
    d = u.carrier_dim - j.dim
    assert alg.dim == d and proj.shape == (g.dim, d) and sec.shape == (d, g.dim)
    if case == "takiff/Q":
        assert j.dim == i.dim == 1


def test_doubling_summary_char0():
    u = leibniz_uce(build_sl2_dual())
    out = verify_jacobiator_doubling(u)
    assert out["j_equals_2i"] is True
    assert out["char_branch"] is True
    assert out["j_dim"] == out["i_dim"] == 1


def test_doubling_summary_char2():
    u = leibniz_uce(catalog("sl3", field_of("GF(2)")))
    out = verify_jacobiator_doubling(u)
    assert out["j_equals_2i"] is True  # both sides are zero here
    assert out["char_branch"] is True
    assert out["j_dim"] == 0


@pytest.mark.parametrize("name,spec", [("sl2", "Q"), ("sl3", "GF(2)")])
def test_induced_leibniz_structure(name, spec):
    g = catalog(name, field_of(spec))
    dl = derived_lts(g)
    cube = lts_tensor_cube(dl)
    cert = induced_leibniz_structure(cube, g)
    br = cert.leibniz_bracket
    flags = check_binary(br)
    assert flags.is_leibniz and flags.satisfies_jacobi
    # the ternary bracket on the cube is recovered as {x,y,z} = [x,[y,z]]
    assert derived_lts(br) == cube.algebra
    # sigma splits the bracket evaluation map mu: columns multiply back
    assert cert.sigma.shape == (g.dim * g.dim, g.dim)
    assert isinstance(cert.z_basis, tuple)


def test_induced_structure_rejects_wrong_base():
    g = catalog("sl2", QQ)
    cube = lts_tensor_cube(derived_lts(g))
    with pytest.raises(NotOverSameBase):
        induced_leibniz_structure(cube, catalog("sl3", QQ))
    with pytest.raises(WrongCategory):
        induced_leibniz_structure(lie_uce(g), g)


@pytest.mark.parametrize("call", [1, 2])
def test_a_corrupted_action_is_refused_before_the_bracket_checks(monkeypatch,
                                                                 call):
    # every one-entry change of the action of the first splitting, or of
    # the second, breaks the module law or equivariance, which
    # equivariant_leibniz checks before the induced bracket is compared
    # with the ternary one or with the other splitting's
    import uce3.theorem as theorem_mod

    g = catalog("sl2", field_of("GF(3)"))
    cube = lts_tensor_cube(derived_lts(g))
    real = theorem_mod._action_from_splitting
    state = {}

    def corrupted(ext, base, sigma):
        act = real(ext, base, sigma)
        state["calls"] += 1
        if state["calls"] != call:
            return act
        t = act.tensor()
        arr = t.arr.copy()
        arr[state["at"]] = (arr[state["at"]] + state["by"]) % 3
        return ModuleAction.from_raw(base, arr, t.scale)

    monkeypatch.setattr(theorem_mod, "_action_from_splitting", corrupted)
    for at in np.ndindex(3, 3, 3):
        for by in (1, 2):
            state.update(calls=0, at=at, by=by)
            with pytest.raises((AxiomPrecondition, NotEquivariant)):
                induced_leibniz_structure(cube, g)
            assert state["calls"] == call


@pytest.mark.parametrize("spec", ["GF(3)", "GF(2)"])
def test_theorem_verifies_each_extension_once(monkeypatch, spec):
    # the calls of verify that do the work, not the memoized return
    verify = CentralExtension.verify
    worked = []

    def recording(self):
        if not self._verified:
            worked.append((self.category, self.algebra))
        return verify(self)

    monkeypatch.setattr(CentralExtension, "verify", recording)
    rep = verify_main_theorem(catalog("sl3", field_of(spec)))
    assert rep.ok
    assert sum(a is rep.u_lts.algebra for _, a in worked) == 1
    assert len({(c, id(a)) for c, a in worked}) == len(worked)
    if spec == "GF(2)":
        # psi's target is == U_LTS and phi's == U_Leib: both adopt
        assert sum(a == rep.u_lts.algebra for _, a in worked) == 1
        assert sum(a == rep.u_leib.algebra for _, a in worked) == 1
    else:
        # theta's target is U_Lie's own triple: it adopts U_Lie's verify
        assert [c for c, a in worked if a is rep.u_lie.algebra] == ["lie"]


@pytest.mark.parametrize("valid", [True, False])
def test_a_target_one_section_entry_off_is_verified_in_full(monkeypatch, valid):
    # theta's target with one entry of U_Lie's section moved: by a kernel
    # vector it is still a section and theta is the same map; off the
    # kernel it is not split by the projection. Either way it is not ==
    # to U_Lie's triple, so verify runs in full, as on any other target
    import uce3.theorem as theorem_mod

    g = catalog("sl3", field_of("GF(3)"))
    want = verify_main_theorem(g)
    proj = want.u_lie.projection.tensor().arr
    # a carrier coordinate the projection kills, or one it does not
    row = int(np.flatnonzero((proj != 0).any(axis=0) != valid)[0])
    real_map = theorem_mod._canonical_map
    verify = CentralExtension.verify
    moved, worked = [], []

    def shifted(u, algebra, projection, section, fact, *rest):
        if fact == "lie-uce-not-a-leibniz-extension":
            t = section.tensor()
            arr = t.arr.copy()
            arr[row, 0] = (arr[row, 0] + 1) % 3
            section = Matrix.from_raw(section.field, arr, t.scale)
            moved.append(section)
        return real_map(u, algebra, projection, section, fact, *rest)

    def recording(self):
        if not self._verified:
            worked.append(self.section)
        return verify(self)

    monkeypatch.setattr(theorem_mod, "_canonical_map", shifted)
    monkeypatch.setattr(CentralExtension, "verify", recording)
    rep = verify_main_theorem(g)
    assert len(moved) == 1 and any(s is moved[0] for s in worked)
    if valid:
        assert rep.to_dict() == want.to_dict() and rep.ok
        assert rep.maps["theta"] == want.maps["theta"]
    else:
        assert rep.failed_fact == ("lie-uce-not-a-leibniz-extension: section "
                                   "is not split by the projection")
        assert (rep.iso_lts_leib_mod_j, rep.char_branch_ok) == (True, False)


def test_adoption_needs_the_targets_own_category_axioms():
    # U_Leib of the Takiff algebra is not alternating: its own triple in
    # the Lie category adopts nothing, and verify refuses the carrier
    u = leibniz_uce(build_sl2_dual())
    target = CentralExtension("lie", u.base, u.algebra, u.projection, u.section)
    assert not target.adopt(u) and not target._verified
    with pytest.raises(NotCentral, match="category's axioms"):
        target.verify()
    same = CentralExtension("leibniz", u.base, u.algebra, u.projection, u.section)
    assert same.adopt(u) and same._verified and same.kernel is u.kernel


def test_an_equal_second_action_reuses_the_first_bracket(monkeypatch):
    # the two splittings differ but give one action (the kernel of
    # carrier ^ carrier -> g acts trivially): the bracket is built and
    # checked once
    import uce3.theorem as theorem_mod

    g = catalog("sl3", field_of("GF(2)"))
    cube = lts_tensor_cube(derived_lts(g))
    real = theorem_mod.equivariant_leibniz
    seen = []

    def counted(act, fmap):
        seen.append(act)
        return real(act, fmap)

    monkeypatch.setattr(theorem_mod, "equivariant_leibniz", counted)
    induced_leibniz_structure(cube, g)
    mu, sigma = theorem_mod._bracket_splitting(g)
    sigma2 = theorem_mod._reversed_right_inverse(mu)
    assert sigma2 != sigma
    assert (theorem_mod._action_from_splitting(cube, g, sigma2)
            == theorem_mod._action_from_splitting(cube, g, sigma))
    assert len(seen) == 1


def test_report_repr_fields(theorem_report):
    rep = theorem_report("sl2", "Q")
    assert rep.characteristic == 0
    assert rep.base_name == "sl2"
    assert rep.failed_fact is None
    assert rep.doubling_ok and rep.j_subset_i
    assert rep.iso_lts_leib_mod_j and rep.char_branch_ok
    d = rep.to_dict()
    assert d["ok"] is True
    assert set(d["verdicts"]) >= {
        "doubling_ok", "j_subset_i", "iso_lts_leib_mod_j", "char_branch_ok",
    }


def test_phi_bar_and_psi_inverse_on_nondegenerate(theorem_report):
    rep = theorem_report("sl2-dual", "Q")
    phi_bar, psi = rep.maps["phi_bar"], rep.maps["psi"]
    n = phi_bar.shape[0]
    assert phi_bar @ psi == Matrix.identity(QQ, n)
    assert psi @ phi_bar == Matrix.identity(QQ, psi.shape[0])
    # triangle: the map to the Lie cover factors through phi
    theta, chi, phi = rep.maps["theta"], rep.maps["chi"], rep.maps["phi"]
    assert theta == chi @ phi


def test_upgrade_of_trivial_extension_recovers_base_bracket():
    # zero kernel forces the unique Lie structure back out
    from uce3 import CentralExtension

    g = catalog("sl2", QQ)
    dl = derived_lts(g)
    ident = Matrix.identity(QQ, 3)
    triv = CentralExtension("lts", dl, dl, ident, ident)
    cert = induced_leibniz_structure(triv, g)
    assert cert.leibniz_bracket == g
    assert cert.z_basis == ()


def test_upgrade_bracket_vanishes_on_central_summand():
    from uce3 import CentralExtension, TernaryAlgebra

    g = catalog("sl2", QQ)
    dl = derived_lts(g)
    n = 4
    table = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    t = tolists3(dl)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for w in range(3):
                    table[i][j][k][w] = t[i][j][k][w]
    padded = TernaryAlgebra(QQ, n, table, name="sl2-lts+center")
    proj = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    sect = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    ext = CentralExtension("lts", dl, padded, proj, sect)
    cert = induced_leibniz_structure(ext, g)
    br, c = tolists2(cert.leibniz_bracket), tolists2(g)
    zero4 = [QQ.zero] * 4
    for i in range(4):
        assert br[i][3] == zero4
        assert br[3][i] == zero4
    for i in range(3):
        for j in range(3):
            assert br[i][j][:3] == c[i][j] and QQ.is_zero(br[i][j][3])
    # wedge vectors pairing the padding coordinate die in g (*) g
    assert len(cert.z_basis) == 3


# (carrier, h2); mod-p rows re-checked in-test by the naive rank oracle
SL4_LEIBNIZ_DIMS = {
    "Q": (15, 0),
    "GF(2)": (21, 6),
    "GF(3)": (15, 0),
    "GF(5)": (15, 0),
}


@pytest.mark.parametrize("spec", sorted(SL4_LEIBNIZ_DIMS))
def test_doubling_holds_for_sl4(spec):
    # doubling and its branch hold for every perfect catalog algebra; the
    # sl2/sl3 matrix is covered by the pipeline reports, sl4 is checked here
    from conftest import char_of, tolists2
    from naive_checks import naive_leibniz_relation_rank

    f = field_of(spec)
    g = catalog("sl4", f)
    u = leibniz_uce(g)
    carrier, h2 = SL4_LEIBNIZ_DIMS[spec]
    assert (u.carrier_dim, u.kernel.dim) == (carrier, h2)
    rep = verify_jacobiator_doubling(u)
    assert rep["j_equals_2i"] and rep["char_branch"]
    assert rep["j_dim"] == 0 and rep["i_dim"] == 0
    if spec != "Q":
        rank = naive_leibniz_relation_rank(char_of(f), tolists2(g))
        assert g.dim**2 - rank == carrier


def test_theorem_checks_each_triple_system_once(monkeypatch):
    import uce3.tensorops as tops

    # a ternary algebra builds its tensor once, so the tensor object names
    # the algebra; holding it keeps ids from being reused
    seen = []
    witness = tops.lts_derivation_witness

    def counted(t):
        seen.append(t)
        return witness(t)

    monkeypatch.setattr(tops, "lts_derivation_witness", counted)
    assert verify_main_theorem(catalog("sl3", field_of("GF(3)"))).ok
    assert seen
    assert len({id(t) for t in seen}) == len(seen)


@pytest.mark.parametrize("spec,shared", [("GF(2)", True), ("GF(3)", False)])
def test_theorem_reuses_the_flags_of_an_equal_quotient(monkeypatch, spec, shared):
    # in characteristic 2, J = 0 and U_Leib/J is U_LTS's algebra: it takes
    # U_LTS's flags instead of a second check; elsewhere it is checked on
    # its own
    import uce3.tensorops as tops
    import uce3.theorem as theorem_mod
    from uce3 import check_ternary

    witness = tops.lts_derivation_witness
    checked_ternary = theorem_mod._checked_ternary

    def run(reuse):
        seen, quotients = [], []

        def counted(t):
            seen.append(t)
            return witness(t)

        def recorded(alg, checked):
            quotients.append((alg, checked))
            return checked_ternary(alg, checked) if reuse else check_ternary(alg)

        monkeypatch.setattr(tops, "lts_derivation_witness", counted)
        monkeypatch.setattr(theorem_mod, "_checked_ternary", recorded)
        report = verify_main_theorem(catalog("sl3", field_of(spec)))
        monkeypatch.undo()
        return report.to_dict(), seen, quotients

    report, seen, [(quot, u_lts_alg)] = run(True)
    want, seen_all, _ = run(False)
    assert report == want and report["ok"]
    assert len(seen_all) - len(seen) == (1 if shared else 0)
    assert (quot == u_lts_alg) == shared
    assert (check_ternary(quot) is check_ternary(u_lts_alg)) == shared
    assert any(t is quot.tensor() for t in seen) != shared


@pytest.mark.parametrize("spec", ["Q", "GF(2)", "GF(3)"])
def test_pipeline_uses_no_per_scalar_field_arithmetic(spec):
    # every map, subspace and check is an exact contraction on integer
    # arrays: field scalars are only read in and out at the API edge, and
    # the fields offer no per-scalar arithmetic to call
    g = catalog("sl3", field_of(spec))
    for cls in (Rationals, PrimeField):
        for op in ("add", "sub", "mul", "neg", "inv", "div"):
            assert not hasattr(cls, op), op
    report = verify_main_theorem(g)
    assert report.ok, report.failed_fact
    h = homology(report.u_lts)
    assert h.h2_dim == report.dims["h2_lts"] == len(h.h2_basis)


def _refuse(real, *args):
    raise NotCentral("injected")


def _false(real, *args):
    return False


def _whole_space(real, m):
    return Subspace.from_vectors(m.field, m.ncols, np.eye(m.ncols, dtype=np.int64))


def _doubled(real, *args):
    # over GF(3), twice a nonzero map is another map with the same kernel
    m = real(*args)
    t = m.tensor()
    return Matrix.from_raw(m.field, 2 * t.arr, t.scale)


def _not_lts(real, alg, checked):
    return dataclasses.replace(real(alg, checked), is_lts=False)


def _not_doubled(real, u):
    return {**real(u), "j_equals_2i": False}


def _off_branch(real, u):
    return {**real(u), "char_branch": False}


# (base, field, patched callable, the call that goes wrong, what it does)
# -> (failed_fact, doubling_ok, j_subset_i, iso_lts_leib_mod_j,
#     char_branch_ok, sorted map names, ok). theorem.kernel's 1st call is
# the upgrade's wedge kernel and its 2nd ker(phi); theorem._factor_through's
# 2nd call is phi_bar; the 4th universal_map is chi.
FAILURE_PATHS = [
    ("sl2", "GF(3)", "theorem.universal_map", 1, _refuse,
     ("upgraded-cube-not-a-leibniz-extension: injected",
      True, True, False, None, [], False)),
    ("sl2", "GF(3)", "theorem.universal_map", 2, _refuse,
     ("quotient-by-jacobiator-span-fails: injected",
      True, True, False, None, ["phi"], False)),
    ("sl2", "GF(3)", "theorem.universal_map", 3, _refuse,
     ("lie-uce-not-a-leibniz-extension: injected",
      True, True, True, False, ["phi", "phi_bar", "psi"], False)),
    ("sl2", "GF(3)", "theorem.universal_map", 4, _refuse,
     ("derived-lie-uce-not-an-lts-extension: injected",
      True, True, True, False, ["phi", "phi_bar", "psi", "theta"], False)),
    ("sl2", "GF(3)", "theorem.universal_map", 4, _doubled,
     ("comparison-triangle-does-not-commute",
      True, True, True, False, ["chi", "phi", "phi_bar", "psi", "theta"], False)),
    ("sl2", "GF(3)", "Subspace.is_subspace_of", 1, _false,
     ("jacobiator-span-escapes-symmetric-span",
      True, False, None, None, [], False)),
    ("sl2", "GF(3)", "Subspace.is_subspace_of", 2, _false,
     ("jacobiator-span-escapes-projection-kernel",
      True, True, None, None, [], False)),
    ("sl2", "GF(3)", "Subspace.is_subspace_of", 3, _false,
     ("symmetric-span-escapes-projection-kernel",
      True, True, None, None, [], False)),
    ("sl2", "GF(3)", "theorem.verify_jacobiator_doubling", 1, _not_doubled,
     ("jacobiator-span-not-twice-symmetric-span",
      False, None, None, None, [], False)),
    ("sl2", "GF(3)", "theorem.verify_jacobiator_doubling", 1, _off_branch,
     ("jacobiator-span-differs-from-symmetric-span",
      False, None, None, None, [], False)),
    ("sl2", "GF(3)", "theorem.kernel", 2, _whole_space,
     ("kernel-of-canonical-map-differs-from-jacobiator-span",
      True, True, False, None, ["phi"], False)),
    ("sl2", "GF(3)", "theorem.kernel", 3, _whole_space,
     ("kernel-of-map-to-lie-uce-differs-from-symmetric-span",
      True, True, True, False, ["phi", "phi_bar", "psi", "theta"], False)),
    ("sl2", "GF(3)", "theorem.kernel", 4, _whole_space,
     ("kernel-of-map-to-lie-uce-differs-from-image-span",
      True, True, True, False, ["chi", "phi", "phi_bar", "psi", "theta"], False)),
    ("sl2", "GF(3)", "theorem._checked_ternary", 1, _not_lts,
     ("quotient-by-jacobiator-span-not-a-triple-system",
      True, True, False, None, ["phi"], False)),
    ("sl2", "GF(3)", "theorem._factor_through", 2, _doubled,
     ("canonical-maps-not-mutually-inverse",
      True, True, False, None, ["phi", "phi_bar", "psi"], False)),
    ("sl3", "GF(2)", "theorem.universal_map", 1, _refuse,
     ("upgraded-cube-not-a-leibniz-extension: injected",
      True, True, False, None, [], False)),
    ("sl3", "GF(2)", "theorem.universal_map", 2, _refuse,
     ("quotient-by-jacobiator-span-fails: injected",
      True, True, False, None, ["phi"], False)),
    ("sl3", "GF(2)", "Subspace.is_subspace_of", 1, _false,
     ("jacobiator-span-escapes-symmetric-span",
      True, False, None, None, [], False)),
    ("sl3", "GF(2)", "Subspace.is_subspace_of", 2, _false,
     ("jacobiator-span-escapes-projection-kernel",
      True, True, None, None, [], False)),
    ("sl3", "GF(2)", "Subspace.is_subspace_of", 3, _false,
     ("symmetric-span-escapes-projection-kernel",
      True, True, None, None, [], False)),
    ("sl3", "GF(2)", "theorem.verify_jacobiator_doubling", 1, _not_doubled,
     ("jacobiator-span-not-twice-symmetric-span",
      False, None, None, None, [], False)),
    ("sl3", "GF(2)", "theorem.verify_jacobiator_doubling", 1, _off_branch,
     ("jacobiator-span-not-zero", False, None, None, None, [], False)),
    ("sl3", "GF(2)", "theorem.kernel", 2, _whole_space,
     ("kernel-of-canonical-map-differs-from-jacobiator-span",
      True, True, False, None, ["phi"], False)),
    ("sl3", "GF(2)", "theorem._checked_ternary", 1, _not_lts,
     ("quotient-by-jacobiator-span-not-a-triple-system",
      True, True, False, None, ["phi"], False)),
]


@pytest.mark.parametrize("name,spec,target,call,wrong,want", FAILURE_PATHS)
def test_each_refuted_claim_is_reported(monkeypatch, name, spec, target,
                                        call, wrong, want):
    import uce3.theorem as theorem_mod

    owner, attr = target.split(".")
    owner = {"theorem": theorem_mod, "Subspace": Subspace}[owner]
    real = getattr(owner, attr)
    calls = []

    def patched(*args):
        calls.append(args)
        return wrong(real, *args) if len(calls) == call else real(*args)

    monkeypatch.setattr(owner, attr, patched)
    rep = verify_main_theorem(catalog(name, field_of(spec)))
    assert len(calls) >= call
    got = (rep.failed_fact, rep.doubling_ok, rep.j_subset_i,
           rep.iso_lts_leib_mod_j, rep.char_branch_ok, sorted(rep.maps), rep.ok)
    assert got == want


def test_refuted_claim_counts_under_optimize_flag():
    # python -O strips assert statements; a refuted claim must still be
    # recorded as the report's failed fact
    import os
    import subprocess
    import sys

    import uce3

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uce3.__file__))
    code = (
        "from uce3 import catalog, field_of, verify_main_theorem\n"
        "from uce3.linalg import Subspace\n"
        "Subspace.is_subspace_of = lambda self, other: False\n"
        "rep = verify_main_theorem(catalog('sl2', field_of('GF(3)')))\n"
        "print(rep.failed_fact, rep.ok)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "jacobiator-span-escapes-symmetric-span False\n"
