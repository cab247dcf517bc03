"""Seeded randomized self-checks, run via the hidden CLI subcommand.

Each check draws from one shared random.Random so a failing seed
reproduces exactly. These overlap the unit tests on purpose: the point is
a quick in-situ sanity pass on an installed copy, not coverage.
"""

from __future__ import annotations

import random

import numpy as np

from .algebra import (
    BinaryAlgebra,
    check_binary,
    check_ternary,
    canonical_wedge_action,
    derived_lts,
    tensor_leibniz,
    verify_action,
)
from .catalog import catalog
from .errors import Uce3Error
from .fields import QQ, field_of
from .linalg import Matrix, SpanAccumulator, Subspace, kernel
from .serialize import algebra_from_dict, algebra_to_dict, dumps_algebra
from .uce import CentralExtension, leibniz_uce, lie_uce, lts_tensor_cube, universal_map
from .theorem import verify_main_theorem

_PRIMES = [3, 5, 7, 11, 13]


def _require(condition, what):
    # an explicit raise, unlike assert, survives python -O
    if not condition:
        raise AssertionError(what)


def _random_field(rng, allow_q=True, allow_two=True):
    pool = list(_PRIMES)
    if allow_two:
        pool.append(2)
    if allow_q and rng.random() < 0.3:
        return QQ
    return field_of(f"GF({rng.choice(pool)})")


def _check_fields(rng):
    for _ in range(60):
        f = _random_field(rng)
        a = f.random_scalar(rng)
        _require(
            f.coerce(f.parse_scalar(f.scalar_str(a))) == a,
            "scalar string round trip",
        )


def _check_linalg(rng):
    for _ in range(25):
        f = _random_field(rng)
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        mat = Matrix(
            f, [[f.random_scalar(rng) for _ in range(m)] for _ in range(n)], m
        )
        k = kernel(mat)
        _require(mat.rank() + k.dim == m, "rank-nullity")
        for v in k.basis_vectors():
            _require(
                all(f.is_zero(x) for x in mat.apply(v)),
                "kernel vector not killed",
            )
        vs = [[f.random_scalar(rng) for _ in range(m)] for _ in range(4)]
        ws = [[f.random_scalar(rng) for _ in range(m)] for _ in range(4)]
        u = Subspace.from_vectors(f, m, vs)
        w = Subspace.from_vectors(f, m, ws)
        _require(
            u.dim + w.dim == u.sum_with(w).dim + u.intersect(w).dim,
            "dimension formula for sum and intersection",
        )


def _check_serialize(rng):
    for _ in range(15):
        f = _random_field(rng)
        n = rng.randrange(1, 5)
        arity = rng.choice([2, 3])
        rows = []
        for _ in range(rng.randrange(0, 2 * n)):
            idx = [rng.randrange(n) for _ in range(arity)]
            pairs = [[rng.randrange(n), f.scalar_str(f.random_scalar(rng))]]
            rows.append(idx + [pairs])
        d = {"field": f.spec_str(), "dim": n}
        d["binary" if arity == 2 else "ternary"] = rows
        alg = algebra_from_dict(d)
        again = algebra_from_dict(algebra_to_dict(alg))
        _require(alg == again, "structure tensor round trip")
        _require(
            dumps_algebra(alg) == dumps_algebra(again),
            "canonical dump round trip",
        )


def _check_catalog_axioms(rng):
    for name in ("sl2", "sl3"):
        f = _random_field(rng, allow_two=(name == "sl3"))
        g = catalog(name, f)
        fl = check_binary(g)
        _require(fl.is_lie and fl.is_perfect, f"{name} over {f.spec_str()}")
        dl = derived_lts(g)
        _require(check_ternary(dl).is_lts, "derived bracket is an LTS")
        for variant in ("tensor", "wedge"):
            _require(
                check_binary(tensor_leibniz(g, variant)).is_leibniz,
                f"tensor_leibniz({variant}) of g",
            )
            _require(
                check_binary(tensor_leibniz(dl, variant)).is_leibniz,
                f"tensor_leibniz({variant}) of the derived LTS",
            )
        _require(
            verify_action(canonical_wedge_action(dl), target=dl),
            "canonical wedge action",
        )


def _check_shuffles(rng):
    f = _random_field(rng, allow_q=True, allow_two=False)
    g = catalog("sl2", f)
    base = (leibniz_uce(g), lie_uce(g), lts_tensor_cube(derived_lts(g)))
    for _ in range(3):
        shuffled = (
            leibniz_uce(g, rng=rng),
            lie_uce(g, rng=rng),
            lts_tensor_cube(derived_lts(g), rng=rng),
        )
        for a, b in zip(base, shuffled):
            _require(
                a.carrier_dim == b.carrier_dim,
                "carrier dim under shuffle",
            )
            _require(a.kernel.dim == b.kernel.dim, "H2 dim under shuffle")
            _require(
                a.relations.equals(b.relations),
                "relation span under shuffle",
            )
            _require(
                a.algebra == b.algebra,
                f"{a.category} bracket under shuffle",
            )


def _permuted(g, perm):
    t = g.tensor()
    return BinaryAlgebra.from_raw(
        g.field, t.arr[np.ix_(perm, perm, perm)], t.scale, name=f"{g.name}-permuted"
    )


def _check_basis_permutation(rng):
    g = catalog("sl3", field_of("GF(2)"))
    ref = verify_main_theorem(g)
    perm = list(range(g.dim))
    rng.shuffle(perm)
    rep = verify_main_theorem(_permuted(g, perm))
    _require(rep.ok and ref.ok, "theorem verdicts")
    _require(rep.dims == ref.dims, "dims under basis permutation")


def _check_gf2_by_enumeration(rng):
    # the span of k vectors over GF(2) is their 2**k subset sums: counting
    # the distinct ones gives the rank without elimination
    f = field_of("GF(2)")
    for _ in range(10):
        m, k = rng.randrange(1, 10), rng.randrange(0, 9)
        rows = [[rng.randrange(2) for _ in range(m)] for _ in range(k)]
        sums = {(0,) * m}
        for r in rows:
            sums |= {tuple((a + b) % 2 for a, b in zip(s, r)) for s in sums}
        sub = Subspace.from_vectors(f, m, rows)
        _require(2**sub.dim == len(sums), "GF(2) rank against subset sums")
        _require(all(sub.contains(list(s)) for s in sums), "GF(2) span")
        # the same rows as sparse generators whose coordinates repeat an
        # odd or even number of times, 256 and more among them
        cols, lens = [], []
        for r in rows:
            gen = [
                c
                for c in range(m)
                for _ in range(r[c] * rng.choice((1, 257)) + rng.choice((0, 256)))
            ]
            cols += gen
            lens.append(len(gen))
        acc = SpanAccumulator(f, m)
        acc.add_pairs(cols, [1] * len(cols), lens)
        _require(acc.to_subspace() == sub, "GF(2) fold of repeated terms")


def _check_universal_map_identity(rng):
    f = _random_field(rng, allow_two=False)
    g = catalog("sl2", f)
    for u in (leibniz_uce(g), lie_uce(g), lts_tensor_cube(derived_lts(g))):
        m = universal_map(u, u)
        _require(
            m == Matrix.identity(u.base.field, u.carrier_dim),
            "universal map into itself is the identity",
        )


def _check_map_into_padded_extension(rng):
    g = catalog("sl2", QQ)
    u = leibniz_uce(g)
    n = g.dim
    f = g.field
    t = g.tensor()
    padded = BinaryAlgebra.from_raw(
        f, np.pad(t.arr, ((0, 1),) * 3), t.scale, name="sl2+center"
    )
    proj = Matrix(f, [[f.one if i == j else f.zero for j in range(n + 1)]
                      for i in range(n)], n + 1)
    sect = Matrix(f, [[f.one if i == j else f.zero for j in range(n)]
                      for i in range(n + 1)], n)
    ext = CentralExtension("leibniz", g, padded, proj, sect)
    m = universal_map(u, ext)
    _require(m.shape == (n + 1, u.carrier_dim), "universal map shape")


_CHECKS = [
    ("field scalar strings", _check_fields),
    ("linear algebra", _check_linalg),
    ("serialization round trip", _check_serialize),
    ("catalog axioms", _check_catalog_axioms),
    ("generator shuffles", _check_shuffles),
    ("basis permutation", _check_basis_permutation),
    ("GF(2) spans by enumeration", _check_gf2_by_enumeration),
    ("universal map identity", _check_universal_map_identity),
    ("map into padded extension", _check_map_into_padded_extension),
]


def run_selftest(seed=8128, verbose=False):
    rng = random.Random(seed)
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn(rng)
        except (AssertionError, Uce3Error) as e:
            failures += 1
            print(f"selftest FAIL: {name}: {e}")
        else:
            if verbose:
                print(f"selftest ok: {name}")
    if failures:
        print(f"selftest: {failures} of {len(_CHECKS)} checks failed "
              f"(seed {seed})")
        return False
    print(f"selftest: {len(_CHECKS)} checks passed (seed {seed})")
    return True
