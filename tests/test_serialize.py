import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_sl2_dual, char_of, tolists2
from naive_checks import naive_algebra_dict, naive_algebra_doc

from uce3 import (
    BinaryAlgebra,
    TernaryAlgebra,
    FieldError,
    FormatError,
    QQ,
    SemanticError,
    algebra_from_dict,
    algebra_to_dict,
    catalog,
    derived_lts,
    dumps_algebra,
    field_of,
    load_algebra,
    loads_algebra,
    lts_tensor_cube,
)


def test_binary_round_trip():
    for spec in ("Q", "GF(3)"):
        g = catalog("sl3", field_of(spec))
        doc = algebra_to_dict(g)
        back = algebra_from_dict(doc)
        assert back == g
        assert back.field == g.field
        assert back.name == g.name
        assert algebra_to_dict(back) == doc


def test_ternary_round_trip():
    dl = derived_lts(catalog("sl2", field_of("GF(5)")))
    doc = algebra_to_dict(dl)
    back = algebra_from_dict(doc)
    assert back == dl


def test_dumps_deterministic():
    g = catalog("sl2", QQ)
    assert dumps_algebra(g) == dumps_algebra(catalog("sl2", QQ))
    # stable under dict key reordering of the source document
    doc = algebra_to_dict(g)
    shuffled = {k: doc[k] for k in reversed(list(doc))}
    assert dumps_algebra(algebra_from_dict(shuffled)) == dumps_algebra(g)


def test_rational_coefficients_as_strings():
    doc = {
        "field": "Q",
        "dim": 2,
        "binary": [[0, 1, [[0, "1/2"], [1, "-3"]]]],
    }
    c = tolists2(algebra_from_dict(doc))
    assert c[0][1][0] == QQ.parse_scalar("1/2")
    assert c[0][1][1] == QQ.coerce(-3)


def test_sparse_entries_accumulate():
    doc = {
        "field": "GF(3)",
        "dim": 1,
        "binary": [[0, 0, [[0, 2]]], [0, 0, [[0, 2]]]],
    }
    g = algebra_from_dict(doc)
    assert tolists2(g)[0][0][0] == 1  # 2 + 2 = 1 mod 3


@pytest.mark.parametrize(
    "doc",
    [
        [],  # not an object
        {"field": "Q", "dim": 1},  # neither table
        {"field": "Q", "dim": 1, "binary": [], "ternary": []},  # both tables
        {"field": "Q", "dim": 1, "binary": [], "extra": 1},  # unknown key
        {"dim": 1, "binary": []},  # missing field
        {"field": "Q", "binary": []},  # missing dim
        {"field": "Q", "dim": True, "binary": []},  # bool is not an int here
        {"field": "Q", "dim": 1, "binary": [[0, 0]]},  # entry too short
        {"field": "Q", "dim": 1, "binary": [[0, 0, [[0, 0.5]]]]},  # float coeff
        {"field": "Q", "dim": 1, "binary": [[0, 0, [[True, 1]]]]},  # bool index
        {"field": 3, "dim": 1, "binary": []},  # field not a string
        {"field": "Q", "dim": 1, "name": 0, "binary": []},  # name not a string
        {"field": "Q", "dim": 1, "ternary": [[0, 0, [[0, 1]]]]},  # arity mix
        {"field": "Q", "dim": 2, "ternary": [[0, 1, [[0, 1]]]]},  # ternary, 3 long
        {"field": "Q", "dim": 2, "ternary": [[0, 1, 1, 0, [[0, 1]]]]},  # 5 long
        {"field": "Q", "dim": 2, "ternary": [[0, 1, True, [[0, 1]]]]},  # bool k
    ],
)
def test_format_errors(doc):
    with pytest.raises(FormatError):
        algebra_from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"field": "Q", "dim": 2, "binary": [[0, 2, [[0, 1]]]]},  # index range
        {"field": "Q", "dim": 2, "binary": [[0, 0, [[-1, 1]]]]},  # negative index
        {"field": "GF(6)", "dim": 1, "binary": []},  # non-prime modulus
        {"field": "Z", "dim": 1, "binary": []},  # unknown field
        {"field": "Q", "dim": -1, "binary": []},  # negative dim
        {"field": "Q", "dim": 2, "ternary": [[0, 1, 2, [[0, 1]]]]},  # k range
        # past the interpreter's 4,300-digit limit on reading an integer
        {"field": "Q", "dim": 1, "binary": [[0, 0, [[0, "9" * 4301]]]]},
        {"field": "Q", "dim": 1, "binary": [[0, 0, [[0, "1/" + "9" * 4301]]]]},
        {"field": "GF(3)", "dim": 1, "binary": [[0, 0, [[0, "9" * 4301]]]]},
        {"field": "GF(" + "9" * 4301 + ")", "dim": 1, "binary": []},
    ],
)
def test_semantic_errors(doc):
    # GF(6) raises NonPrimeModulus, a FieldError
    with pytest.raises((SemanticError, FieldError)) as exc:
        algebra_from_dict(doc)
    assert not isinstance(exc.value, FormatError)


def test_loads_reports_json_position():
    with pytest.raises(FormatError) as exc:
        loads_algebra("{ not json }")
    assert "line" in str(exc.value)


@pytest.mark.parametrize("literal", ["dim", "index", "coefficient"])
def test_loads_refuses_an_overlong_integer_literal(literal):
    # json.loads raises a plain ValueError past 4,300 digits
    big = "9" * 4301
    doc = {"dim": "1", "index": "0", "coefficient": "1"}
    doc[literal] = big
    text = ('{"field": "Q", "dim": %(dim)s, "binary": [[0, 0, [[%(index)s, '
            '%(coefficient)s]]]]}' % doc)
    with pytest.raises(FormatError) as exc:
        loads_algebra(text)
    assert "too long" in str(exc.value)


@pytest.mark.parametrize("open_, close", [("[", "]"), ('{"a": ', "}")])
def test_loads_refuses_deeply_nested_json(open_, close):
    # json.loads raises RecursionError, not a ValueError, this deep
    depth = 100_000
    text = '{"field": "Q", "dim": 1, "binary": %s0%s}' % (open_ * depth, close * depth)
    with pytest.raises(FormatError) as exc:
        loads_algebra(text)
    assert "nested too deeply" in str(exc.value)


def test_load_algebra_file(tmp_path):
    g = catalog("sl2", field_of("GF(7)"))
    path = tmp_path / "alg.json"
    path.write_text(dumps_algebra(g), encoding="ascii")
    back = load_algebra(str(path))
    assert back == g
    assert json.loads(dumps_algebra(back)) == algebra_to_dict(g)


def test_flags_stable_under_reserialization():
    from uce3 import check_binary, check_ternary

    for name in ("sl2", "sl3", "heisenberg", "abelian(4)"):
        for spec in ("Q", "GF(2)", "GF(5)"):
            g = catalog(name, field_of(spec))
            back = loads_algebra(dumps_algebra(g))
            assert check_binary(back) == check_binary(g)
            L = derived_lts(catalog("sl2", field_of(spec)))
            tback = loads_algebra(dumps_algebra(L))
            assert check_ternary(tback) == check_ternary(L)


def _rescaled_sl2():
    # sl2/Q on the basis 2/3 e, 1/2 f, h: fractional structure constants
    g = catalog("sl2", QQ)
    s = [Fraction(2, 3), Fraction(1, 2), 1]
    c = tolists2(g)
    table = [[[Fraction(s[i] * s[j]) * c[i][j][k] / s[k] for k in range(3)]
              for j in range(3)] for i in range(3)]
    return BinaryAlgebra(QQ, 3, table, name="sl2-rescaled")


@pytest.mark.parametrize("case", [
    "sl2-rescaled/Q", "abelian(3)/Q", "sl3/GF(2)", "sl3/GF(3)", "takiff-lts/Q",
])
def test_nonzero_walk_matches_the_nested_table_walk(case):
    name, spec = case.split("/")
    if name == "sl2-rescaled":
        alg = _rescaled_sl2()
        assert alg.tensor().scale > 1
    elif name == "takiff-lts":
        alg = lts_tensor_cube(derived_lts(build_sl2_dual())).algebra
    else:
        alg = catalog(name, field_of(spec))
    arity = 2 if isinstance(alg, BinaryAlgebra) else 3
    f = alg.field
    ref = naive_algebra_dict(char_of(f), alg.name, f.spec_str(), tolists2(alg), arity)
    assert algebra_to_dict(alg) == ref


@st.composite
def sparse_algebras(draw):
    """A binary or ternary algebra of dim 0-5 with a few random entries
    (none at all half the time), and a name that JSON must escape."""
    spec = draw(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(2147483647)"]))
    kind = draw(st.sampled_from([BinaryAlgebra, TernaryAlgebra]))
    dim = draw(st.integers(0, 5))
    name = draw(st.sampled_from(["", 'say "uce"', "back\\slash", "two\nlines",
                                 "caf\u00e9 \t"]))
    if spec == "Q":
        # negative and fractional entries: the tensor's scale exceeds 1
        coeff = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    else:
        coeff = st.integers(-3, 2**31)
    entries = []
    if dim and draw(st.booleans()):
        ix = st.integers(0, dim - 1)
        head = st.tuples(*[ix] * kind.arity)
        pairs = st.lists(st.tuples(ix, coeff), max_size=4)
        entries = draw(st.lists(st.tuples(head, pairs), max_size=10))
    return kind.from_sparse(field_of(spec), dim, [(*h, ps) for h, ps in entries],
                            name=name)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(sparse_algebras())
def test_rendered_text_matches_the_stdlib_encoder_on_the_naive_document(a):
    ref = naive_algebra_doc(a)
    text = dumps_algebra(a)
    assert text == json.dumps(ref, sort_keys=True, indent=1)
    assert algebra_to_dict(a) == ref
    back = loads_algebra(text)
    assert back == a
    assert (back.name, back.field) == (a.name, a.field)
