"""Built-in algebra presentations used by the CLI and the test matrix."""

from __future__ import annotations

import re

from .algebra import BinaryAlgebra
from .errors import UnknownAlgebra
from .fields import QQ, field_of
from .uce import dimension_guard

__all__ = ["catalog", "catalog_names"]

_SL_RE = re.compile(r"sl\(?([0-9]+)\)?")
_ABELIAN_RE = re.compile(r"abelian\(([0-9]+)\)")


def _sl_basis(n):
    """E_ij (i != j) in lex order, then H_i = E_ii - E_{i+1,i+1}."""
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                m = [[0] * n for _ in range(n)]
                m[i][j] = 1
                mats.append(m)
    for i in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[i][i] = 1
        m[i + 1][i + 1] = -1
        mats.append(m)
    return mats


def _mat_commutator(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s += a[i][k] * b[k][j] - b[i][k] * a[k][j]
            out[i][j] = s
    return out


def _sl_coords(m):
    """Coordinates of a traceless matrix in the _sl_basis order."""
    n = len(m)
    coords = []
    for i in range(n):
        for j in range(n):
            if i != j:
                coords.append(m[i][j])
    # diagonal (d_1..d_n) with zero sum decomposes over H_i by prefix sums
    acc = 0
    for i in range(n - 1):
        acc += m[i][i]
        coords.append(acc)
    return coords


def _sl(n, f, name):
    basis = _sl_basis(n)
    dim = len(basis)
    table = [
        [_sl_coords(_mat_commutator(a, b)) for b in basis] for a in basis
    ]
    return BinaryAlgebra(f, dim, table, name=name)


def _heisenberg(f):
    # [x, y] = z and nothing else; one-dimensional center spanned by z
    entries = [(0, 1, [(2, 1)]), (1, 0, [(2, -1)])]
    return BinaryAlgebra.from_sparse(f, 3, entries, name="heisenberg")


def catalog(name, field=QQ, force=False):
    """A named algebra over the requested field (default Q).

    Names: sl2, sl3, sl4 (also sl(2) style), abelian(n), heisenberg. The
    n of abelian(n) is held to the binary dimension guard (see
    uce.dimension_guard; force=True overrides it) before its table is
    allocated.
    """
    f = field_of(field)
    s = name.strip()
    m = _SL_RE.fullmatch(s)
    if m:
        n = int(m.group(1))
        if not 2 <= n <= 4:
            raise UnknownAlgebra(f"sl({n}) is outside the built-in range 2..4")
        return _sl(n, f, f"sl{n}")
    m = _ABELIAN_RE.fullmatch(s)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownAlgebra("abelian(n) needs n >= 1")
        dimension_guard(n, "lie", force)
        return BinaryAlgebra.zero(f, n, name=f"abelian({n})")
    if s == "heisenberg":
        return _heisenberg(f)
    raise UnknownAlgebra(
        f"unknown catalog name {name!r}; try sl2, sl3, sl4, abelian(n), heisenberg"
    )


def catalog_names():
    return ("sl2", "sl3", "sl4", "abelian(n)", "heisenberg")
