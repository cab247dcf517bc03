from itertools import product

import numpy as np
import pytest

from conftest import tolists2

from uce3 import (
    QQ,
    BinaryAlgebra,
    UnknownAlgebra,
    catalog,
    catalog_names,
    check_binary,
    field_of,
)


def test_sl2_structure_constants():
    g = catalog("sl2", QQ)
    assert g.dim == 3
    e, f, h = 0, 1, 2
    one = QQ.one

    c = tolists2(g)

    def bk(i, j):
        return c[i][j]

    assert bk(e, f) == [0, 0, one]        # [e,f] = h
    assert bk(h, e) == [2 * one, 0, 0]    # [h,e] = 2e
    assert bk(h, f) == [0, -2 * one, 0]   # [h,f] = -2f
    assert bk(e, e) == [0, 0, 0]


@pytest.mark.parametrize("name,dim", [("sl2", 3), ("sl3", 8), ("sl4", 15)])
def test_sl_n_dims(name, dim):
    for spec in ("Q", "GF(7)"):
        g = catalog(name, field_of(spec))
        assert g.dim == dim
        assert check_binary(g).is_lie


def _sl_by_commutators(n):
    """sl_n's structure constants by one matrix commutator per pair of
    basis elements E_ij (i != j, lex order), then H_i = E_ii - E_{i+1,i+1},
    each read back in that basis: off the diagonal entry by entry, on it
    by prefix sums."""
    basis = []
    for i, j in product(range(n), repeat=2):
        if i != j:
            basis.append(np.zeros((n, n), dtype=int))
            basis[-1][i, j] = 1
    for i in range(n - 1):
        basis.append(np.zeros((n, n), dtype=int))
        basis[-1][i, i], basis[-1][i + 1, i + 1] = 1, -1

    def coords(m):
        off = [int(m[i, j]) for i, j in product(range(n), repeat=2) if i != j]
        return off + np.cumsum(np.diag(m))[:-1].tolist()

    return [[coords(a @ b - b @ a) for b in basis] for a in basis]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("spec", ["Q", "GF(2)", "GF(3)"])
def test_sl_n_matches_its_matrix_commutators(n, spec):
    f = field_of(spec)
    table = _sl_by_commutators(n)
    g = catalog(f"sl{n}", f)
    assert g == BinaryAlgebra(f, len(table), table)
    assert g.name == f"sl{n}"


def test_name_variants():
    assert catalog("sl(3)", QQ) == catalog("sl3", QQ)
    assert catalog(" sl2 ", QQ).dim == 3


def test_heisenberg():
    g = catalog("heisenberg", QQ)
    flags = check_binary(g)
    assert g.dim == 3
    assert flags.is_lie and not flags.is_perfect
    # [x,y] = z, z central
    c = tolists2(g)
    assert c[0][1] == [0, 0, QQ.one]
    assert all(x == 0 for x in c[2][0])
    assert all(x == 0 for x in c[2][1])


def test_abelian():
    g = catalog("abelian(5)", QQ)
    assert g.dim == 5
    c = tolists2(g)
    assert all(
        all(x == 0 for x in c[i][j]) for i in range(5) for j in range(5)
    )


def test_unknown_names():
    for bad in ("so3", "sl5", "sl1", "abelian(0)", "abelian(x)", "", "sl(3",
                "sl3)", "sl" + "9" * 4301, "abelian(" + "9" * 4301 + ")"):
        with pytest.raises(UnknownAlgebra):
            catalog(bad, QQ)


def test_catalog_names_listing():
    names = catalog_names()
    assert "sl2" in names and "heisenberg" in names


def test_default_field_is_rationals():
    assert catalog("sl2").field == QQ
