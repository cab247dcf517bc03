"""Expected verdicts for every benchmark operation.

Nothing here is computed by uce3. The dimension tables are the frozen
ones in the test suite (``tests/test_theorem.py::FROZEN_DIMS``,
``test_theorem_nondegenerate_case``, ``SL4_LEIBNIZ_DIMS`` and
``tests/test_uce.py::FROZEN``), which the suite cross-checks against the
independent rank oracle in ``tests/naive_checks.py``. The sha256 pins are
the byte-identical ``--json`` contract: they were taken once from the
unmodified program and must never move.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 0

_THEOREM_KEYS = ("u_lie", "u_leib", "u_lts", "h2_lie", "h2_leib", "h2_lts",
                 "j", "i", "i_prime")


def _theorem(base, branch, dims):
    return {"kind": "theorem", "base": base, "branch": branch,
            "dims": dict(zip(_THEOREM_KEYS, dims))}


# label -> what its --json stdout must say
EXPECTED = {
    "sl2/Q": _theorem(3, "char-not-2", (3, 3, 3, 0, 0, 0, 0, 0, 0)),
    "sl3/GF(2)": _theorem(8, "char-2", (8, 8, 8, 0, 0, 0, 0, 0, 0)),
    "sl3/GF(3)": _theorem(8, "char-not-2", (14, 14, 14, 6, 6, 6, 0, 0, 0)),
    "sl3/GF(5)": _theorem(8, "char-not-2", (8, 8, 8, 0, 0, 0, 0, 0, 0)),
    "sl3/Q": _theorem(8, "char-not-2", (8, 8, 8, 0, 0, 0, 0, 0, 0)),
    "takiff/Q": _theorem(6, "char-not-2", (6, 7, 6, 0, 1, 0, 1, 1, 0)),
    # only the Leibniz row of sl4/GF(2) is frozen in the suite; in char 2
    # the triple-system extension must coincide with it
    "sl4/GF(2)": {"kind": "theorem", "base": 15, "branch": "char-2",
                  "dims": {"u_leib": 21, "h2_leib": 6, "u_lts": 21,
                           "h2_lts": 6, "j": 0, "i": 0}},
    # a change of basis cannot move a dimension: catalog sl3/GF(3) values
    "sl3-rebased/GF(3)": {"kind": "uce", "category": "lts", "carrier_dim": 14,
                          "h2_dim": 6, "relation_dim": 8 ** 3 - 14,
                          "field": "GF(3)"},
}

# label -> sha256 of its --json stdout, for every seed (the seed changes
# only the entry order of the Takiff file, never the output)
PINNED_SHA256 = {
    "sl2/Q": "ddbfabda407695ce3d5ed8fea4bb91bba196385352341702e5d9c7ea1016028d",
    "sl3/GF(2)":
        "40b88b12b948b3258047f372f7a5944d43cbb0eae1493642d76e5e6ccbe5b468",
    "sl3/GF(3)":
        "5d5976472397345d4d6375be1442d71329e99c4d9c9592db621f44ac4b34544d",
    "sl3/GF(5)":
        "8a19b1caa3d9f90528818793d7730dd1b4c912a3aa271bced2a0b7a379e79ca2",
    "sl3/Q": "4225a925ba8dcd1117ca0dc4756ded3757d62a0ea89ff4f374a392d35048bafa",
    "takiff/Q":
        "dd9a5a5bc281c089782fed627d07810ddacedc8b2f229667e355e8e99f052933",
    "sl4/GF(2)":
        "e404ea7bc2b413ff2704a2481d17a5de0585f18d6e75e707bfcc51c61b3d5d5a",
}
# label -> sha256 for DEFAULT_SEED only: the re-based input, and so the
# extension algebra it prints, changes with the seed
SEEDED_SHA256 = {
    "sl3-rebased/GF(3)":
        "e187b783807419b2eacb235a8322ebae914294026c467b3167c67490b674c395",
}


def expected_sha256(label, seed):
    if label in PINNED_SHA256:
        return PINNED_SHA256[label]
    if seed == DEFAULT_SEED:
        return SEEDED_SHA256.get(label)
    return None


def check_output(label, stdout, rc):
    """Problems with one operation's result; an empty list means correct."""
    want = EXPECTED[label]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if want["kind"] == "theorem":
        if doc.get("ok") is not True:
            problems.append(f"verdict not ok: {doc.get('failed_fact')}")
        if doc.get("failed_fact") is not None:
            problems.append(f"failed fact {doc.get('failed_fact')}")
        verdicts = doc.get("verdicts", {})
        if not verdicts or not all(v is True for v in verdicts.values()):
            problems.append(f"verdicts {verdicts}")
        if doc.get("branch") != want["branch"]:
            problems.append(f"branch {doc.get('branch')} != {want['branch']}")
        dims = doc.get("dims", {})
        if dims.get("base") != want["base"]:
            problems.append(f"base dim {dims.get('base')} != {want['base']}")
        for key, value in want["dims"].items():
            if dims.get(key) != value:
                problems.append(f"{key} {dims.get(key)} != {value}")
    else:
        for key in ("category", "carrier_dim", "h2_dim", "relation_dim"):
            if doc.get(key) != want[key]:
                problems.append(f"{key} {doc.get(key)} != {want[key]}")
        alg = doc.get("algebra", {})
        if alg.get("dim") != want["carrier_dim"] or "ternary" not in alg:
            problems.append("embedded algebra is not the ternary carrier")
        if alg.get("field") != want["field"]:
            problems.append(f"field {alg.get('field')} != {want['field']}")
    return problems
