"""Built-in algebra presentations used by the CLI and the test matrix."""

from __future__ import annotations

import re

import numpy as np

from .algebra import BinaryAlgebra
from .errors import UnknownAlgebra
from .fields import QQ, decimal_int, field_of
from .uce import dimension_guard

__all__ = ["catalog", "catalog_names"]

_SL_RE = re.compile(r"sl(\()?([0-9]+)(?(1)\))")
_ABELIAN_RE = re.compile(r"abelian\(([0-9]+)\)")


def _sl(n, f, name):
    """sl_n on the basis E_ij (i != j) in lex order, then
    H_i = E_ii - E_{i+1,i+1}. The bracket of gl_n,
    [E_ij, E_kl] = d_jk E_il - d_li E_kj, is laid out by index arithmetic,
    restricted to this basis and read back in it: an off-diagonal E_ij is
    its own coordinate, and a traceless diagonal D is the sum over i of
    (D_0 + ... + D_i) H_i."""
    i, j, k, l = np.indices((n,) * 4).reshape(4, -1)
    gl = np.zeros((n * n,) * 3, dtype=np.int64)
    gl[i * n + j, k * n + l, i * n + l] = j == k
    np.subtract.at(gl, (i * n + j, k * n + l, k * n + j), l == i)
    e = np.arange(n * n)
    off = e[e // n != e % n]
    h = np.arange(n - 1)
    basis = np.zeros((len(off) + n - 1, n * n), dtype=np.int64)
    basis[np.arange(len(off)), off] = 1
    basis[len(off) + h, h * (n + 1)] = 1
    basis[len(off) + h, h * (n + 1) + n + 1] = -1
    coords = np.zeros((n * n, len(basis)), dtype=np.int64)
    coords[off, np.arange(len(off))] = 1
    coords[np.arange(n)[:, None] * (n + 1), len(off) + h] = np.arange(n)[:, None] <= h
    brackets = (basis @ gl.reshape(n * n, -1)).reshape(-1, n * n, n * n)
    return BinaryAlgebra.from_raw(f, basis @ brackets @ coords, name=name)


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
        n = decimal_int(m.group(2), UnknownAlgebra)
        if not 2 <= n <= 4:
            raise UnknownAlgebra(f"sl({n}) is outside the built-in range 2..4")
        return _sl(n, f, f"sl{n}")
    m = _ABELIAN_RE.fullmatch(s)
    if m:
        n = decimal_int(m.group(1), UnknownAlgebra)
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
