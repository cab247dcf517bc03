"""The comparison pipeline between the three universal central extensions.

Three constructions live over one perfect Lie algebra g: the Leibniz UCE on
g (x) g, the Lie UCE on the wedge square, and the LTS tensor cube over the
derived triple system {x,y,z} = [x,[y,z]]. This module machine-checks how
they relate:

  * the LTS cube carries an induced Leibniz bracket [x, y] = x * pi(y),
    built from any splitting of the bracket surjection g (x) g -> g
    (induced_leibniz_structure); the bracket is independent of the
    splitting because the kernel of (carrier ^ carrier) -> g acts trivially,
    and both facts are verified rather than assumed;
  * inside the Leibniz UCE sit two distinguished central subspaces: the
    jacobiator span J and the symmetric span I, with J = 2I, hence J = 0 in
    characteristic 2 and J = I otherwise (verify_jacobiator_doubling);
  * the canonical maps between the constructions identify U_LTS with
    U_Leib/J in every characteristic, and with U_Lie away from
    characteristic 2 (verify_main_theorem).

Every isomorphism verdict is concrete: an explicit matrix, checked to be a
bracket morphism, bijective, and compatible with the projections. Dimension
counts are reported separately so a failure localizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import (
    BinaryAlgebra,
    ModuleAction,
    TernaryAlgebra,
    check_binary,
    check_ternary,
    derived_lts,
    equivariant_leibniz,
    wedge_index_pairs,
)
from .errors import (
    LeibnizCheckFailed,
    InternalAssertionFailed,
    NotCentral,
    NotOverSameBase,
    WellDefinednessFailed,
    WrongCategory,
    ZActionNontrivial,
)
from .linalg import (
    Matrix,
    SpanAccumulator,
    Subspace,
    kernel,
    right_inverse,
)
from .uce import (
    CentralExtension,
    UceResult,
    _slotwise,
    admit,
    dimension_guard,
    leibniz_uce,
    lie_uce,
    lts_tensor_cube,
    universal_map,
)
from . import tensorops as tops

__all__ = [
    "LeibnizStructureCertificate",
    "TheoremReport",
    "induced_leibniz_structure",
    "jacobiator_subspace",
    "symmetric_subspace",
    "verify_jacobiator_doubling",
    "verify_main_theorem",
]


@dataclass(frozen=True)
class LeibnizStructureCertificate:
    """Carrier of the induced Leibniz bracket on an LTS central extension,
    together with the data the construction used and re-verified."""

    extension: CentralExtension
    sigma: Matrix
    z_basis: tuple
    leibniz_bracket: BinaryAlgebra


def _bracket_splitting(g):
    """A right inverse sigma of the evaluation g (x) g -> g, plus the
    evaluation matrix itself. Exists exactly because g is perfect."""
    n = g.dim
    t = g.tensor()
    # column a*n + b of mu is [e_a, e_b]
    mu = Matrix.from_raw(g.field, t.arr.reshape(n * n, n).T, t.scale)
    return mu, right_inverse(mu)


def _action_from_splitting(ext, g, sigma):
    """The g-action on the extension carrier: x * v = sum over the splitting
    sigma(v) = sum a_i (x) b_i of {x, s(a_i), s(b_i)}."""
    n, m = g.dim, ext.carrier_dim
    t = ext.algebra.tensor()
    st = ext.section.tensor()
    sg = sigma.tensor()
    # s2[i, j, v]: coefficient of e_i (x) e_j in (s (x) s)(sigma(e_v))
    s2 = _slotwise(sg.arr.reshape(n, n, n), st.arr, 2, t.p)
    acted = tops.exact_tensordot(t.arr.reshape(m, m * m, m), s2.reshape(m * m, n),
                                 ([1], [0]), t.p)
    den = sg.scale * st.scale**2 * t.scale
    # acted[x, w, v] is coordinate w of e_x * e_v; the action is indexed [x, v, w]
    return ModuleAction.from_raw(g, acted.transpose(0, 2, 1), den)


def _reversed_right_inverse(mu):
    """A second splitting of mu obtained by feeding the solver the columns
    in reverse order, which moves the pivots; used to certify that the
    induced bracket does not depend on the splitting."""
    t = mu.tensor()
    s = right_inverse(Matrix.from_raw(mu.field, t.arr[:, ::-1], t.scale)).tensor()
    return Matrix.from_raw(mu.field, s.arr[::-1], s.scale)


def induced_leibniz_structure(ext, g):
    """Upgrade an LTS central extension of a perfect Lie algebra to a
    Leibniz algebra on the same carrier, with [x, y] = x * pi(y) and the
    original ternary bracket recovered as {x,y,z} = [x,[y,z]].

    ext is a CentralExtension in the lts category, a UceResult of
    lts_tensor_cube among them, whose base is the derived triple system of
    g, a perfect Lie algebra (see uce.admit). Everything the construction
    relies on is checked: centrality (ext.verify, which a UceResult has
    already passed when it was built), triviality of the action of the
    kernel of (carrier ^ carrier) -> g, the Leibniz and Jacobi identities
    of the new bracket, recovery of the ternary bracket, and independence
    of the chosen splitting.
    """
    admit(g, "lie")
    if ext.category != "lts":
        raise WrongCategory("only an lts extension can be upgraded")
    ext.verify()
    base = ext.base
    if (
        base.field != g.field
        or base.dim != g.dim
        or tops.derived_mismatch_witness(base.tensor(), g.tensor()) is not None
    ):
        raise NotOverSameBase(
            "the extension's base is not the derived triple system of g"
        )

    f = g.field
    m = ext.carrier_dim
    mu, sigma = _bracket_splitting(g)

    # kernel of (carrier ^ carrier) -> g, x ^ y |-> [pi x, pi y]
    pt = ext.projection.tensor()
    gt = g.tensor()
    # b[i, j] is [pi e_i, pi e_j]: one column of zmap per wedge pair
    b = _slotwise(gt.arr, pt.arr.T, 2, gt.p)
    rows_i, rows_j = wedge_index_pairs(m)
    zmap = Matrix.from_raw(f, b[rows_i, rows_j].T, pt.scale**2 * gt.scale)
    z = kernel(zmap)

    t = ext.algebra.tensor()
    if z.dim:
        sliced = tops.ExactTensor(t.arr[:, rows_i, rows_j, :], t.scale, t.p)
        w = tops.central_slot_witness(sliced, z.basis(), 1)
        if w is not None:
            raise ZActionNontrivial(
                f"kernel vector {w[0]} moves carrier basis vector {w[1]}"
            )

    act = _action_from_splitting(ext, g, sigma)
    bracket = equivariant_leibniz(act, ext.projection)

    bflags = check_binary(bracket)
    if not (bflags.is_leibniz and bflags.satisfies_jacobi):
        raise LeibnizCheckFailed(f"witnesses: {bflags.witnesses}")
    dm = tops.derived_mismatch_witness(t, bracket.tensor())
    if dm is not None:
        raise InternalAssertionFailed(
            "induced-bracket-disagrees-with-ternary",
            f"basis triple {dm}",
        )

    sigma2 = _reversed_right_inverse(mu)
    if sigma2 != sigma:
        act2 = _action_from_splitting(ext, g, sigma2)
        # an equal action gives the first bracket, checked on equal data
        bracket2 = bracket if act2 == act else equivariant_leibniz(act2, ext.projection)
        if bracket2 != bracket:
            raise InternalAssertionFailed(
                "bracket-depends-on-splitting-choice",
                "two right inverses of the evaluation map disagree",
            )

    return LeibnizStructureCertificate(
        extension=ext,
        sigma=sigma,
        z_basis=tuple(tuple(r) for r in z.basis_vectors()),
        leibniz_bracket=bracket,
    )


def _require_leibniz_result(u):
    if not isinstance(u, UceResult) or u.category != "leibniz":
        raise WrongCategory("expected a Leibniz UceResult")


def jacobiator_subspace(u):
    """Span of [x,[y,z]] + [z,[x,y]] + [y,[z,x]] over carrier basis triples;
    trilinear, so basis triples generate. The nonzero jacobiators are the
    sums of the Jacobi identity's chain, folded as sparse generators."""
    _require_leibniz_result(u)
    rows, cols, vals = tops.jacobiator_terms(u.algebra.tensor())
    q = u.carrier_dim
    acc = SpanAccumulator(u.base.field, q)
    acc.add_pairs(cols, vals, np.unique(rows, return_counts=True)[1], q)
    return acc.to_subspace()


def symmetric_subspace(u):
    """Span of [x,y] + [y,x] over unordered carrier basis pairs, i = j
    included (that row is 2[x,x])."""
    _require_leibniz_result(u)
    et = u.algebra.tensor()
    sym = et.arr + et.arr.transpose(1, 0, 2)
    i, j = np.triu_indices(u.carrier_dim)
    return Subspace.from_vectors(u.base.field, u.carrier_dim, sym[i, j])


def verify_jacobiator_doubling(u):
    """Check J = 2I inside the Leibniz UCE, and the branch it forces: J = 0
    in characteristic 2, J = I otherwise."""
    _require_leibniz_result(u)
    f = u.base.field
    j = jacobiator_subspace(u)
    i = symmetric_subspace(u)
    doubled = i.scaled(f.coerce(2))
    ok = j.equals(doubled)
    if f.characteristic == 2:
        branch = j.dim == 0
    else:
        branch = j.equals(i)
    return {
        "j_equals_2i": ok,
        "char_branch": branch,
        "j_dim": j.dim,
        "i_dim": i.dim,
        "j": j,
        "i": i,
    }


@dataclass
class TheoremReport:
    """Everything verify_main_theorem established, plus where it stopped.

    Verdict fields are True/False once decided and None when an earlier
    failure short-circuited the pipeline; failed_fact names the first
    claim that did not hold.
    """

    characteristic: int
    base_name: str
    u_lie: UceResult
    u_leib: UceResult
    u_lts: UceResult
    certificate: LeibnizStructureCertificate
    j_subspace: object
    i_subspace: object
    i_prime: object = None
    doubling_ok: bool = None
    j_subset_i: bool = None
    iso_lts_leib_mod_j: bool = None
    char_branch_ok: bool = None
    failed_fact: str = None
    dims: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)

    @property
    def ok(self):
        return (
            self.failed_fact is None
            and bool(self.doubling_ok)
            and bool(self.j_subset_i)
            and bool(self.iso_lts_leib_mod_j)
            and bool(self.char_branch_ok)
        )

    @property
    def branch(self):
        return "char-2" if self.characteristic == 2 else "char-not-2"

    def to_dict(self):
        return {
            "base": self.base_name,
            "branch": self.branch,
            "characteristic": self.characteristic,
            "dims": dict(self.dims),
            "failed_fact": self.failed_fact,
            "ok": self.ok,
            "verdicts": {
                "doubling_ok": self.doubling_ok,
                "j_subset_i": self.j_subset_i,
                "iso_lts_leib_mod_j": self.iso_lts_leib_mod_j,
                "char_branch_ok": self.char_branch_ok,
            },
        }


def _factor_through(mat, killed):
    """Restrict a matrix that kills the subspace killed to its coset
    coordinates."""
    t = mat.tensor()
    return Matrix.from_raw(mat.field, t.arr[:, list(killed.free)], t.scale)


def _quotient_by_jacobiator_span(u_leib, j):
    """U_Leib/J with the ternary bracket {a,b,c} = class([a,[b,c]]): the
    algebra, projection and section that make U_Leib/J a central extension
    of the derived triple system of the base."""
    f = u_leib.base.field
    k = j.projection()
    et = u_leib.algebra.tensor()
    c = list(j.free)
    # {a,b,c} = [e_a, [e_b, e_c]] K: one chain from outer[a, u, v], the
    # outer bracket on the coset coordinates, whose u meets the inner
    # bracket's output and whose v meets K; it leaves (b, c, a, w)
    outer = tops.ExactTensor(et.arr[c], et.scale, et.p)
    inner = tops.ExactTensor(et.arr[np.ix_(c, c)], et.scale, et.p)
    raw = tops._chain_table((outer, (1, inner, 2), (2, k, 0)), k.p, (2, 0, 1, 3))
    alg = TernaryAlgebra.from_raw(
        f, raw, et.scale**2 * k.scale, name=f"{u_leib.algebra.name}/J"
    )
    proj = _factor_through(u_leib.projection, j)
    st = u_leib.section.tensor()
    sec_raw = tops.exact_tensordot(k.arr, st.arr, ([0], [0]), k.p)
    sec = Matrix.from_raw(f, sec_raw, k.scale * st.scale)
    return alg, proj, sec


def _checked_ternary(alg, checked):
    """check_ternary(alg), taking the flags of the checked algebra when the
    two are ==: flags depend only on what == compares. In characteristic 2
    J = 0, and U_Leib/J is U_LTS's algebra, already checked."""
    if alg != checked:
        return check_ternary(alg)
    alg._flags = check_ternary(checked)
    return alg._flags


class _Refuted(Exception):
    """A claim that does not hold; args are its fact and the verdict it
    refutes, or None."""


def _need(ok, fact, verdict=None):
    if not ok:
        raise _Refuted(fact, verdict)


def _canonical_map(u, algebra, projection, section, fact, verdict, verified):
    """universal_map from the UCE u into the extension of u.base, in
    u.category, by algebra with this projection and section. A target that
    is not central, or not one the map is well defined into, refutes fact.
    A target equal to one of the verified extensions adopts its
    verification (CentralExtension.adopt) instead of repeating it."""
    target = CentralExtension(u.category, u.base, algebra, projection, section)
    for done in verified:
        if target.adopt(done):
            break
    try:
        return universal_map(u, target)
    except (NotCentral, WellDefinednessFailed) as e:
        raise _Refuted(f"{fact}: {e}", verdict)


def verify_main_theorem(g, force=False):
    """Build the three universal central extensions of a perfect Lie
    algebra and verify how they compare: U_LTS is isomorphic to U_Leib/J in
    every characteristic, to U_Leib itself in characteristic 2 (where J
    vanishes), and to U_Lie away from characteristic 2. The claims run in
    that order; a verdict turns True once all its claims hold."""
    dimension_guard(g.dim, "lts", force)
    admit(g, "lie")
    f = g.field
    p = f.characteristic

    base_lts = derived_lts(g)
    u_leib = leibniz_uce(g)
    u_lie = lie_uce(g)
    u_lts = lts_tensor_cube(base_lts, force=force)
    cert = induced_leibniz_structure(u_lts, g)

    doubling = verify_jacobiator_doubling(u_leib)
    j, i = doubling["j"], doubling["i"]

    report = TheoremReport(
        characteristic=p,
        base_name=g.name or "",
        u_lie=u_lie,
        u_leib=u_leib,
        u_lts=u_lts,
        certificate=cert,
        j_subspace=j,
        i_subspace=i,
    )
    report.dims = {
        "base": g.dim,
        "u_lie": u_lie.carrier_dim,
        "u_leib": u_leib.carrier_dim,
        "u_lts": u_lts.carrier_dim,
        "h2_lie": u_lie.kernel.dim,
        "h2_leib": u_leib.kernel.dim,
        "h2_lts": u_lts.kernel.dim,
        "j": j.dim,
        "i": i.dim,
    }

    dbl, iso, branch = "doubling_ok", "iso_lts_leib_mod_j", "char_branch_ok"
    built = (u_lie, u_leib, u_lts)
    try:
        _need(doubling["j_equals_2i"], "jacobiator-span-not-twice-symmetric-span", dbl)
        _need(doubling["char_branch"], "jacobiator-span-not-zero" if p == 2
              else "jacobiator-span-differs-from-symmetric-span", dbl)
        report.doubling_ok = True

        _need(j.is_subspace_of(i), "jacobiator-span-escapes-symmetric-span",
              "j_subset_i")
        report.j_subset_i = True
        _need(j.is_subspace_of(u_leib.kernel), "jacobiator-span-escapes-projection-kernel")
        _need(i.is_subspace_of(u_leib.kernel), "symmetric-span-escapes-projection-kernel")

        # the upgraded cube receives the canonical map from the Leibniz UCE
        phi = _canonical_map(u_leib, cert.leibniz_bracket, u_lts.projection,
                             u_lts.section, "upgraded-cube-not-a-leibniz-extension", iso,
                             built)
        report.maps["phi"] = phi
        report.i_prime = i.image_under(phi)
        report.dims["i_prime"] = report.i_prime.dim

        ker_phi = kernel(phi)
        _need(ker_phi.equals(j),
              "kernel-of-canonical-map-differs-from-jacobiator-span", iso)
        _need(phi.rank() == u_lts.carrier_dim,
              "canonical-map-to-cube-not-surjective", iso)

        quot_alg, *quot_maps = _quotient_by_jacobiator_span(u_leib, j)
        tflags = _checked_ternary(quot_alg, u_lts.algebra)
        _need(tflags.is_lts, "quotient-by-jacobiator-span-not-a-triple-system", iso)
        psi = _canonical_map(u_lts, quot_alg, *quot_maps,
                             "quotient-by-jacobiator-span-fails", iso, built)
        phi_bar = _factor_through(phi, j)
        report.maps["psi"] = psi
        report.maps["phi_bar"] = phi_bar
        idq = Matrix.identity(f, quot_alg.dim)
        idu = Matrix.identity(f, u_lts.carrier_dim)
        _need(psi @ phi_bar == idq and phi_bar @ psi == idu,
              "canonical-maps-not-mutually-inverse", iso)
        report.iso_lts_leib_mod_j = True

        if p == 2:
            _need(u_lts.carrier_dim == u_leib.carrier_dim and ker_phi.dim == 0
                  and phi.rank() == u_leib.carrier_dim,
                  "cube-not-isomorphic-to-leibniz-uce", branch)
        else:
            # away from characteristic 2 the Lie UCE joins the picture
            theta = _canonical_map(u_leib, u_lie.algebra, u_lie.projection,
                                   u_lie.section, "lie-uce-not-a-leibniz-extension",
                                   branch, built)
            report.maps["theta"] = theta
            _need(kernel(theta).equals(i),
                  "kernel-of-map-to-lie-uce-differs-from-symmetric-span", branch)
            _need(theta.rank() == u_lie.carrier_dim,
                  "canonical-map-to-lie-uce-not-surjective", branch)

            derived_top = derived_lts(u_lie.algebra)
            chi = _canonical_map(u_lts, derived_top, u_lie.projection,
                                 u_lie.section, "derived-lie-uce-not-an-lts-extension",
                                 branch, built)
            report.maps["chi"] = chi
            _need(kernel(chi).equals(report.i_prime),
                  "kernel-of-map-to-lie-uce-differs-from-image-span", branch)
            _need(theta == chi @ phi, "comparison-triangle-does-not-commute", branch)
            _need(u_lts.carrier_dim == u_lie.carrier_dim
                  and report.i_prime.dim == 0 and chi.rank() == u_lie.carrier_dim,
                  "cube-not-isomorphic-to-lie-uce", branch)
        report.char_branch_ok = True
    except _Refuted as refuted:
        report.failed_fact, verdict = refuted.args
        if verdict:
            setattr(report, verdict, False)
    return report
