import hashlib
import json

import pytest

from conftest import build_sl2_dual, rebased_sl3

from uce3 import dumps_algebra, catalog, field_of
from uce3.catalog import _sl
from uce3.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_text_output(capsys):
    code, out, _ = run(capsys, "check", "catalog:sl2")
    assert code == 0
    assert "lie: yes, leibniz: yes, perfect: yes, dim 3" in out
    assert "field Q" in out


def test_check_non_perfect_is_reported_not_an_error(capsys):
    code, out, _ = run(capsys, "check", "catalog:abelian(2)")
    assert code == 0
    assert "perfect: no" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "catalog:sl3", "--field", "GF(2)",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "binary"
    assert doc["dim"] == 8
    assert doc["field"] == "GF(2)"
    assert doc["flags"]["perfect"] is True
    assert doc["flags"]["lie"] is True


def test_check_ternary_file(capsys, tmp_path):
    from uce3 import derived_lts

    dl = derived_lts(catalog("sl2", field_of("GF(5)")))
    path = tmp_path / "lts.json"
    path.write_text(dumps_algebra(dl), encoding="ascii")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "lts: yes, perfect: yes, dim 3" in out


def test_uce_text_and_json(capsys):
    code, out, _ = run(capsys, "uce", "catalog:sl3", "--field", "GF(3)",
                       "--category", "leibniz")
    assert code == 0
    assert "category: leibniz" in out
    assert "carrier 14, H2 6" in out
    code, out, _ = run(capsys, "uce", "catalog:sl2", "--category", "lts",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["category"] == "lts"
    assert doc["carrier_dim"] == 3
    assert doc["h2_dim"] == 0
    assert doc["algebra"]["dim"] == 3


def test_uce_json_deterministic(capsys):
    code, a, _ = run(capsys, "uce", "catalog:sl2", "--category", "lie",
                     "--json")
    code2, b, _ = run(capsys, "uce", "catalog:sl2", "--category", "lie",
                      "--json")
    assert code == code2 == 0
    assert a == b


def test_uce_json_algebra_feeds_back_as_input(capsys, tmp_path):
    # the algebra block of the JSON report is itself a valid input file
    code, out, _ = run(capsys, "uce", "catalog:sl3", "--field", "GF(3)",
                       "--category", "leibniz", "--json")
    assert code == 0
    doc = json.loads(out)
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(doc["algebra"]), encoding="ascii")
    code, again, _ = run(capsys, "check", str(path), "--json")
    assert code == 0
    redoc = json.loads(again)
    assert redoc["dim"] == doc["carrier_dim"]
    assert redoc["flags"]["leibniz"] is True
    assert redoc["flags"]["perfect"] is True
    # byte-identical on repetition, like every JSON emitter here
    code, again2, _ = run(capsys, "check", str(path), "--json")
    assert again2 == again


# sha256 of the --json stdout of uce and homology, pinned so that a change to
# the linear algebra underneath cannot move a byte of the reports: the
# carrier's structure constants, the coset coordinates and the H2 lifts.
# sl3/Q reads each relation span off the evaluation map; the Takiff algebra
# has a nonempty Leibniz H2 and folds its Leibniz relations exactly.
GOLDEN_JSON = {
    ("uce", "lie", "sl3/Q"): "f1b8b1e8b5651dded4c35fc301f2fd8c754981a8290586e2b120c8605abb1c62",
    ("uce", "lie", "sl3/GF(2)"): "8a7a96c457adb0528da4cc47c4e31498bb08024eeacbeef60e86b30e589c6947",
    ("uce", "lie", "sl3/GF(3)"): "91c5f2618d3f51e5fa9e3f3cba6a6ee8e8649dff55da6819e0c67f8dbcc1ea54",
    ("uce", "lie", "takiff"): "bfbba162798938eb615417b8811b2002586b244c7cebde38b27109a93818945d",
    ("uce", "leibniz", "sl3/Q"): "628921515f0251f2c71a2106f2d194fa07fdeaab63adf321e30cd1d0a950103f",
    ("uce", "leibniz", "sl3/GF(2)"): "a71092b9e6a89aa1d296de770842f6c0557104e72e8197c509ba99bab46f7665",
    ("uce", "leibniz", "sl3/GF(3)"): "fa202767a33433eae91a00618dcc52f280b61f0dc9b3c70ce4a44a335d2f6b8e",
    ("uce", "leibniz", "takiff"): "e92ed93f997312e3b8af5423cf91a59e284f1582d67e38f72da431f1ef0dc9e8",
    ("uce", "lts", "sl3/Q"): "fcb0bfb7344e4cd2c213c6cd5c6c0cba63bf44d24e4418a7a3c8d0ade6b7c175",
    ("uce", "lts", "sl3/GF(2)"): "259db7fde33e656d7a20085cf77a0b1421f4f1656130c02fe4a86972c62323d4",
    ("uce", "lts", "sl3/GF(3)"): "04fb3854332d9872ee121861cccaa258da75fb58303813c870f53366edad94fa",
    ("uce", "lts", "takiff"): "f4de6e4067b8d54f7de0410800bea6671509b11d78c32f6c9cb73f7911b982b3",
    ("homology", "lie", "sl3/Q"): "42dc25bd8d0623145a7132c7a31c524466de1370b19cb46534af33505b8b383a",
    ("homology", "lie", "sl3/GF(2)"): "42dc25bd8d0623145a7132c7a31c524466de1370b19cb46534af33505b8b383a",
    ("homology", "lie", "sl3/GF(3)"): "6b7abcac24a6eb8ec5bbcbd9473a49e858757b8efc95a9369be0f9b519ab35eb",
    ("homology", "lie", "takiff"): "42dc25bd8d0623145a7132c7a31c524466de1370b19cb46534af33505b8b383a",
    ("homology", "leibniz", "sl3/Q"): "00765ee55d302883fa4d254466d4a15d518ed07bed34c9f9b1fdc1711442d530",
    ("homology", "leibniz", "sl3/GF(2)"): "00765ee55d302883fa4d254466d4a15d518ed07bed34c9f9b1fdc1711442d530",
    ("homology", "leibniz", "sl3/GF(3)"): "27d5111c90087b3054aa8ffb35d45a3429861a6111e434fbe33d4433a60eff63",
    ("homology", "leibniz", "takiff"): "3fda73076fb69be8c6488a4399d5ca2468cf72a744a5e89f00260757b4ea820d",
    ("homology", "lts", "sl3/Q"): "949f18b83ed68135819c8b17b6713266587d621423c8ad0e33124d8dd43e955f",
    ("homology", "lts", "sl3/GF(2)"): "949f18b83ed68135819c8b17b6713266587d621423c8ad0e33124d8dd43e955f",
    ("homology", "lts", "sl3/GF(3)"): "bd4f0dc48ed1b069a2728e6acf27f6dc510d43c34bc1c0e3a43e88d0ab956048",
    ("homology", "lts", "takiff"): "949f18b83ed68135819c8b17b6713266587d621423c8ad0e33124d8dd43e955f",
}


@pytest.mark.parametrize("cmd,category,source", sorted(GOLDEN_JSON))
def test_json_bytes_are_pinned(capsys, tmp_path, cmd, category, source):
    if source == "takiff":
        path = tmp_path / "takiff.json"
        path.write_text(dumps_algebra(build_sl2_dual()), encoding="ascii")
        argv = [str(path)]
    else:
        name, field = source.split("/")
        argv = ["catalog:" + name, "--field", field]
    code, out, _ = run(capsys, cmd, *argv, "--category", category, "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_JSON[cmd, category, source]


# the same pin on forced sl4 (cube ambient 3375), where the cube is folded
# in L (x) wedge^2 L and its relation span lifted back to L (x) L (x) L:
# the theorem report and the cube's carrier must not move a byte
GOLDEN_SL4_JSON = {
    ("theorem", "GF(2)"): "e404ea7bc2b413ff2704a2481d17a5de0585f18d6e75e707bfcc51c61b3d5d5a",
    ("uce", "GF(2)"): "16a79a82d68662a04a141a6f90efadc802e8ba1391212d28787b1860e104ca38",
    ("theorem", "GF(2147483647)"): "a529091caf0256f6fc180ed85f80baffb5b015dec63f3c93321f31d4e0c6ea39",
    ("theorem", "GF(3)"): "c9ad3c0e71240e6940843488465929996c3627701b142ba8f48eaa7ecee5e5d3",
    ("theorem", "Q"): "983f89be89b0459915cc061dc4960e0d406b2da1a872e3a58e6595f2c0d0001e",
    ("uce", "GF(3)"): "a274cddaaf5a41271e31ad0ebb1a4899aa633aea288f8988b9c0ed245e89d999",
    ("uce", "Q"): "2ed0ea96521ae48708b4e5cf1020542000095a455c190b80cd1585a83e7e559f",
}


@pytest.mark.parametrize("cmd,field", sorted(GOLDEN_SL4_JSON))
def test_forced_sl4_json_bytes_are_pinned(capsys, cmd, field):
    category = ["--category", "lts"] if cmd == "uce" else []
    code, out, _ = run(capsys, cmd, "catalog:sl4", "--field", field, "--force",
                       *category, "--json")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_SL4_JSON[cmd, field]


# the theorem report on the benchmark's ladder: J from the Jacobi
# identity's sums, U_Leib/J and every canonical map must not move a byte
GOLDEN_THEOREM_JSON = {
    "sl2/Q": "ddbfabda407695ce3d5ed8fea4bb91bba196385352341702e5d9c7ea1016028d",
    "sl3/GF(2)": "40b88b12b948b3258047f372f7a5944d43cbb0eae1493642d76e5e6ccbe5b468",
    "sl3/GF(3)": "5d5976472397345d4d6375be1442d71329e99c4d9c9592db621f44ac4b34544d",
    "sl3/GF(5)": "8a19b1caa3d9f90528818793d7730dd1b4c912a3aa271bced2a0b7a379e79ca2",
    "sl3/Q": "4225a925ba8dcd1117ca0dc4756ded3757d62a0ea89ff4f374a392d35048bafa",
    "takiff": "dd9a5a5bc281c089782fed627d07810ddacedc8b2f229667e355e8e99f052933",
}


@pytest.mark.parametrize("source", sorted(GOLDEN_THEOREM_JSON))
def test_theorem_json_bytes_are_pinned(capsys, tmp_path, source):
    if source == "takiff":
        path = tmp_path / "takiff.json"
        path.write_text(dumps_algebra(build_sl2_dual()), encoding="ascii")
        argv = [str(path)]
    else:
        name, field = source.split("/")
        argv = ["catalog:" + name, "--field", field]
    code, out, _ = run(capsys, "theorem", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_THEOREM_JSON[source]


# forced sl5 (cube ambient 13824), past the catalog's range: the input is
# catalog._sl(5, ...) written out, and the output UceResult.to_json() and a
# newline, whose cube is folded modulo S + L (x) W and lifted back
GOLDEN_SL5_JSON = {
    "GF(3)": "39bc3ac6740f0ae19ccea51c0b26820b984bf65907325835fc4394141dbb8b13",
    "Q": "04c852ac342512cedcc6e847279af4c654fbe4b8fde04a33fca015413307d97d",
}


@pytest.mark.parametrize("field", sorted(GOLDEN_SL5_JSON))
def test_forced_sl5_cube_json_bytes_are_pinned(capsys, tmp_path, field):
    path = tmp_path / "sl5.json"
    path.write_text(dumps_algebra(_sl(5, field_of(field), "sl5")), encoding="ascii")
    code, out, _ = run(capsys, "uce", str(path), "--force", "--category", "lts", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_SL5_JSON[field]


# the same pin off the catalog basis: the cube of sl3/GF(3) in a seeded
# dense basis, built the way the dense-gf3 benchmark builds its input (H2 6)
GOLDEN_REBASED_SHA256 = "52739707e7f195c015b21ca3b9f4555d6740dd08351d3b1ae4e64f58693b918f"


def test_rebased_cube_json_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "sl3-rebased.json"
    path.write_text(dumps_algebra(rebased_sl3(0)), encoding="ascii")
    code, out, _ = run(capsys, "uce", str(path), "--category", "lts", "--json")
    assert code == 0
    assert json.loads(out)["h2_dim"] == 6
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_REBASED_SHA256


def test_homology_output(capsys):
    code, out, _ = run(capsys, "homology", "catalog:sl3", "--field", "GF(3)",
                       "--category", "lie")
    assert code == 0
    assert "H1 0, H2 6" in out
    code, out, _ = run(capsys, "homology", "catalog:sl2", "--category",
                       "leibniz", "--json")
    doc = json.loads(out)
    assert doc["h1_dim"] == 0 and doc["h2_dim"] == 0
    assert doc["h2_basis"] == []


def test_theorem_text_char0(capsys, tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(dumps_algebra(build_sl2_dual()), encoding="ascii")
    code, out, _ = run(capsys, "theorem", str(path))
    assert code == 0
    assert "branch: char != 2" in out
    assert "dims: U_Lie 6, U_Leib 7, U_LTS 6, J 1, I 1" in out
    assert "J=2I: OK" in out
    assert "J=I: OK" in out
    assert "U_LTS = U_Leib/J: OK" in out
    assert "U_LTS = U_Lie: OK" in out


def test_theorem_text_char2(capsys):
    code, out, _ = run(capsys, "theorem", "catalog:sl3", "--field", "GF(2)")
    assert code == 0
    assert "branch: char 2" in out
    assert "J=0: OK" in out
    assert "U_LTS = U_Leib: OK" in out


def test_theorem_json(capsys):
    code, out, _ = run(capsys, "theorem", "catalog:sl2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failed_fact"] is None
    assert doc["dims"]["u_lie"] == 3


def test_theorem_verbose_timing(capsys):
    code, _, err = run(capsys, "theorem", "catalog:sl2", "--verbose")
    assert code == 0
    assert "pipeline took" in err


def test_exit_code_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope", encoding="ascii")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error [FormatError]" in err


def test_exit_code_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error [FormatError]: cannot read")
    assert err.count("\n") == 1


def test_exit_code_directory_input(capsys, tmp_path):
    code, _, err = run(capsys, "theorem", str(tmp_path))
    assert code == 2
    assert err.startswith("error [FormatError]: cannot read")
    assert err.count("\n") == 1


def test_exit_code_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9", "field": "Q", "dim": 0, "binary": []}')
    code, _, err = run(capsys, "uce", str(path), "--category", "lie")
    assert code == 2
    assert err.startswith("error [FormatError]:") and "not ASCII" in err
    assert err.count("\n") == 1


def test_exit_code_semantic_errors(capsys, tmp_path):
    code, _, err = run(capsys, "check", "catalog:nope")
    assert code == 3
    assert "error [UnknownAlgebra]" in err
    path = tmp_path / "range.json"
    path.write_text(
        json.dumps({"field": "Q", "dim": 2, "binary": [[0, 5, [[0, 1]]]]}),
        encoding="ascii",
    )
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "error [SemanticError]" in err
    # --field clashes with a file input
    good = tmp_path / "good.json"
    good.write_text(dumps_algebra(catalog("sl2", field_of("GF(3)"))),
                    encoding="ascii")
    for spec in ("Q", ""):
        code, _, err = run(capsys, "check", str(good), "--field", spec)
        assert code == 3
        assert "error [SemanticError]" in err


def test_overlong_integers_are_one_line_errors(capsys, tmp_path):
    # past 4,300 digits int() and json.loads raise a plain ValueError
    big = "9" * 4301
    texts = {
        "literal": '{"field": "Q", "dim": %s, "binary": []}',
        "coefficient": '{"field": "Q", "dim": 1, "binary": [[0, 0, [[0, "%s"]]]]}',
        "field": '{"field": "GF(%s)", "dim": 1, "binary": []}',
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text % big, encoding="ascii")
    cases = [
        ([str(tmp_path / "literal.json")], 2),
        ([str(tmp_path / "coefficient.json")], 3),
        ([str(tmp_path / "field.json")], 3),
        (["catalog:sl2", "--field", f"GF({big})"], 3),
        ([f"catalog:sl{big}"], 3),
        ([f"catalog:abelian({big})"], 3),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, "check", *argv)
        assert code == want and out == "", argv
        assert err.startswith("error [") and err.count("\n") == 1, argv


def test_deeply_nested_json_is_a_one_line_error(capsys, tmp_path):
    # json.loads raises RecursionError on arrays nested this deep
    path = tmp_path / "deep.json"
    path.write_text('{"field": "Q", "dim": 1, "binary": %s}'
                    % ("[" * 100_000 + "]" * 100_000), encoding="ascii")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error [FormatError]:") and err.count("\n") == 1


def test_exit_code_non_ascii_field_spec(capsys):
    # an Arabic-Indic three used to run as GF(3), and an empty spec as Q
    for spec in ("GF(\u0663)", "GF(3)\u2003", "", " "):
        code, out, err = run(capsys, "theorem", "catalog:sl2", "--field", spec)
        assert code == 3 and out == ""
        assert err.startswith("error [SemanticError]:")
        assert err.count("\n") == 1


def test_exit_code_not_perfect(capsys):
    code, _, err = run(capsys, "uce", "catalog:heisenberg", "--category",
                       "leibniz")
    assert code == 4
    assert "error [NotPerfect]" in err
    # sl2 collapses in characteristic 2
    code, _, err = run(capsys, "theorem", "catalog:sl2", "--field", "GF(2)")
    assert code == 4


@pytest.mark.parametrize("kind", ["binary", "ternary"])
@pytest.mark.parametrize("spec", ["Q", "GF(3)"])
def test_zero_dimensional_input_is_a_one_line_error(capsys, tmp_path, spec, kind):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"name": "x", "field": spec, "dim": 0, kind: []}),
                    encoding="ascii")
    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["flags"]["perfect"] is True
    code, out, err = run(capsys, "check", str(path))
    assert code == 0 and "perfect: yes" in out
    commands = [[cmd, "--category", c] for cmd in ("uce", "homology")
                for c in ("lie", "leibniz", "lts")] + [["theorem"]]
    for cmd, *rest in commands:
        code, out, err = run(capsys, cmd, str(path), *rest, "--json")
        built = kind == "binary" or rest[-1:] == ["lts"]
        assert code == 3 and out == ""
        assert err.startswith("error [SemanticError]:" if built
                              else "error [WrongCategory]:")
        assert err.count("\n") == 1


def test_exit_code_axiom_precondition(capsys, tmp_path):
    doc = {"field": "Q", "dim": 2,
           "binary": [[0, 0, [[1, 1]]], [1, 0, [[0, 1]]]]}
    path = tmp_path / "nonleib.json"
    path.write_text(json.dumps(doc), encoding="ascii")
    code, _, err = run(capsys, "uce", str(path), "--category", "leibniz")
    assert code == 5
    assert "error [NotLeibniz]" in err


def test_wrong_category_for_ternary_input(capsys, tmp_path):
    from uce3 import derived_lts

    dl = derived_lts(catalog("sl2", field_of("Q")))
    path = tmp_path / "lts.json"
    path.write_text(dumps_algebra(dl), encoding="ascii")
    code, _, err = run(capsys, "uce", str(path), "--category", "lie")
    assert code == 3
    assert "error [WrongCategory]" in err
    code, _, err = run(capsys, "theorem", str(path))
    assert code == 3


def test_dimension_guard_and_force(capsys):
    code, _, err = run(capsys, "uce", "catalog:sl4", "--category", "lts")
    assert code == 3
    assert "error [DimensionGuard]" in err
    assert "--force" in err
    code, _, err = run(capsys, "theorem", "catalog:sl4")
    assert code == 3
    # --force lets the build proceed; abelian(30) is past the binary guard
    # but fails perfection right after it
    code, _, err = run(capsys, "uce", "catalog:abelian(30)", "--category",
                       "leibniz", "--force")
    assert code == 4


def test_declared_dimension_is_guarded_before_allocation(capsys, tmp_path):
    # only declared sizes: a table of any of these would not fit in memory,
    # so reaching exit 3 at all shows the guard ran before the allocation
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps({"field": "Q", "dim": 10**6, "binary": []}),
                      encoding="ascii")
    ternary = tmp_path / "ternary.json"
    ternary.write_text(
        json.dumps({"field": "GF(3)", "dim": 10**6, "ternary": []}),
        encoding="ascii",
    )
    for argv in (("check", "catalog:abelian(100000)"),
                 ("check", str(binary)),
                 ("check", str(ternary)),
                 ("uce", str(binary), "--category", "lie"),
                 ("theorem", "catalog:abelian(100000)")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error [DimensionGuard]")
        assert "--force" in lines[0]
    # a ternary input is held to the cube's guard, and check takes --force
    small = tmp_path / "t13.json"
    small.write_text(json.dumps({"field": "GF(3)", "dim": 13, "ternary": []}),
                     encoding="ascii")
    code, _, err = run(capsys, "check", str(small))
    assert code == 3 and "--force" in err
    code, out, _ = run(capsys, "check", str(small), "--force")
    assert code == 0 and "perfect: no, dim 13" in out


def test_lts_guard_runs_before_the_derived_table(capsys, monkeypatch):
    import uce3.cli as climod

    def unreachable(g):
        raise AssertionError("derived_lts ran before the dimension guard")

    monkeypatch.setattr(climod, "derived_lts", unreachable)
    code, _, err = run(capsys, "uce", "catalog:sl4", "--category", "lts",
                       "--field", "GF(2)")
    assert code == 3
    assert "--force" in err


def test_verdict_failure_maps_to_exit_1(capsys, monkeypatch):
    import uce3.cli as climod

    class FakeReport:
        characteristic = 0
        base_name = "fake"
        failed_fact = "made-up-failure"
        dims = {"base": 1, "u_lie": 1, "u_leib": 1, "u_lts": 1, "j": 0,
                "i": 0, "h2_lie": 0, "h2_leib": 0, "h2_lts": 0}
        doubling_ok = False
        iso_lts_leib_mod_j = None
        char_branch_ok = None
        ok = False

    monkeypatch.setattr(climod, "verify_main_theorem",
                        lambda alg, force=False: FakeReport())
    code, out, _ = run(capsys, "theorem", "catalog:sl2")
    assert code == 1
    assert "J=2I: FAIL" in out
    assert "U_LTS = U_Leib/J: skipped" in out
    assert "failed fact: made-up-failure" in out


def test_refuted_claim_maps_to_exit_1(capsys, monkeypatch):
    import uce3.theorem as theorem_mod
    from uce3 import NotCentral

    def refuse(u, e):
        raise NotCentral("injected")

    monkeypatch.setattr(theorem_mod, "universal_map", refuse)
    code, out, err = run(capsys, "theorem", "catalog:sl2", "--field", "GF(3)",
                         "--json")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failed_fact"] == "upgraded-cube-not-a-leibniz-extension: injected"
    assert doc["verdicts"] == {"doubling_ok": True, "j_subset_i": True,
                               "iso_lts_leib_mod_j": False,
                               "char_branch_ok": None}


def test_selftest_runs(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "8128")
    assert code == 0
    assert "checks passed" in out


def test_theorem_json_identical_under_optimize_flag():
    # python -O strips assert statements; every self-check must survive it
    import os
    import subprocess
    import sys

    import uce3

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uce3.__file__))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "uce3.cli", "theorem",
             "catalog:sl2", "--json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["ok"] is True


def test_closed_stdout_is_a_one_line_error():
    # a reader that stops early (uce3 ... --json | head -c 100) closes the
    # pipe; closed before the first write, it is closed on every write
    import os
    import subprocess
    import sys

    import uce3

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uce3.__file__))
    with subprocess.Popen(
        [sys.executable, "-m", "uce3.cli", "uce", "catalog:sl3", "--category",
         "lts", "--field", "GF(3)", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 6
    assert err.splitlines() == [
        "error [BrokenPipeError]: standard output was closed before all "
        "output was written"
    ]


def test_selftest_fails_under_optimize_flag():
    # python -O strips assert statements; a broken check must still fail
    import os
    import subprocess
    import sys

    import uce3

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(uce3.__file__))
    code = (
        "import sys\n"
        "import uce3.selftest as st\n"
        "from uce3.linalg import Subspace\n"
        "st._CHECKS = [c for c in st._CHECKS if c[0] == 'linear algebra']\n"
        "st.kernel = lambda m: Subspace.from_vectors(m.field, m.ncols, [])\n"
        "sys.exit(0 if st.run_selftest() else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "selftest FAIL: linear algebra: rank-nullity" in proc.stdout
