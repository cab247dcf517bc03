"""Reading and writing the JSON algebra format.

A document is one JSON object:

    {"name": "...", "field": "Q" | "GF(p)", "dim": n,
     "binary": [[i, j, [[k, "coeff"], ...]], ...]}

or with "ternary": [[i, j, k, [[l, "coeff"], ...]], ...] for a trilinear
bracket. Entries are sparse (absent tuples are zero), indices 0-based,
coefficients decimal integers or "a/b" strings.

Writing renders the text of json.dumps(doc, sort_keys=True, indent=1)
straight from the structure tensor; the document as a dict is its parse.

Error split, mirrored by the CLI exit codes: FormatError for a file that
cannot be read as ASCII text or a document whose shape is wrong (bad JSON,
unknown keys, wrong types), SemanticError
for a well-formed document with invalid content (unknown field, index out
of range, unparsable coefficient).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .algebra import BinaryAlgebra, TernaryAlgebra
from .errors import FormatError, SemanticError
from .fields import field_of
from .uce import dimension_guard

__all__ = [
    "algebra_from_dict",
    "algebra_to_dict",
    "loads_algebra",
    "dumps_algebra",
    "json_object",
    "load_algebra",
]

# the table key of each kind of document -> (its algebra class, the
# category whose dimension guard it meets)
_KINDS = {"binary": (BinaryAlgebra, "lie"), "ternary": (TernaryAlgebra, "lts")}
_KIND_OF_ARITY = {cls.arity: kind for kind, (cls, _) in _KINDS.items()}
_ALLOWED_KEYS = {"name", "field", "dim", *_KINDS}


def _check_index(i, dim, what):
    if type(i) is not int:
        raise FormatError(f"{what} index must be an integer, got {i!r}")
    if not 0 <= i < dim:
        raise SemanticError(f"{what} index {i} out of range for dim {dim}")
    return i


def _read_coeff(field, x):
    if type(x) is int:
        return field.coerce(x)
    if type(x) is str:
        return field.parse_scalar(x)
    raise FormatError(f"coefficient must be an integer or string, got {x!r}")


def _read_pairs(field, dim, pairs, what):
    if not isinstance(pairs, list):
        raise FormatError(f"{what} coefficient list must be a list, got {pairs!r}")
    out = []
    for item in pairs:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError(f"{what} coefficient entry must be [index, coeff]")
        k = _check_index(item[0], dim, what)
        out.append((k, _read_coeff(field, item[1])))
    return out


def algebra_from_dict(doc, force=False):
    """The algebra a document describes. Its declared dim is held to the
    dimension guard of its arity (see uce.dimension_guard; force=True
    overrides it) before any table of that size is allocated."""
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise FormatError(f"unknown keys: {sorted(unknown)}")
    for key in ("field", "dim"):
        if key not in doc:
            raise FormatError(f"missing required key {key!r}")
    kinds = [kind for kind in _KINDS if kind in doc]
    if len(kinds) != 1:
        raise FormatError("exactly one of 'binary' or 'ternary' is required")
    (kind,) = kinds
    cls, category = _KINDS[kind]
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError("'name' must be a string")
    if not isinstance(doc["field"], str):
        raise FormatError("'field' must be a string")
    field = field_of(doc["field"])
    dim = doc["dim"]
    if type(dim) is not int:
        raise FormatError("'dim' must be an integer")
    if dim < 0:
        raise SemanticError(f"dim must be non-negative, got {dim}")
    dimension_guard(dim, category, force)
    rows = doc[kind]
    if not isinstance(rows, list):
        raise FormatError(f"'{kind}' must be a list")
    shape = ", ".join("ijk"[: cls.arity])
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != cls.arity + 1:
            raise FormatError(f"{kind} entry must be [{shape}, pairs]")
        head = [_check_index(i, dim, "bracket") for i in row[:-1]]
        entries.append((*head, _read_pairs(field, dim, row[-1], "target")))
    return cls.from_sparse(field, dim, entries, name=name)


def algebra_to_dict(alg):
    """The document of an algebra: the parse of dumps_algebra's text."""
    return json.loads(dumps_algebra(alg))


def json_object(items):
    """The text json.dumps(doc, sort_keys=True, indent=1) gives for the
    non-empty object doc whose values have the JSON texts items[key], each
    as json.dumps(value, indent=1) gives it. A value one level deeper is its
    text with every line indented once more; that is exact because the
    encoder never puts a raw newline inside a string."""
    body = ",\n".join(
        f" {json.dumps(k)}: " + v.replace("\n", "\n ")
        for k, v in sorted(items.items())
    )
    return "{\n" + body + "\n}"


def loads_algebra(text, force=False):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")
    except ValueError:
        # an integer literal past the interpreter's limit on digits read
        raise FormatError("invalid JSON: an integer literal is too long to read")
    except RecursionError:
        raise FormatError("invalid JSON: arrays or objects nested too deeply to read")
    return algebra_from_dict(doc, force)


def dumps_algebra(alg):
    """The document of an algebra, as json.dumps(doc, sort_keys=True,
    indent=1) prints it: one row per nonzero bracket of basis vectors, rows
    and coefficients in lexicographic order. It is rendered straight from
    the structure tensor, each distinct coefficient formatted once."""
    f = alg.field
    t = alg.tensor()
    *head, ks = np.nonzero(t.arr)
    values, which = np.unique(t.arr[(*head, ks)], return_inverse=True)
    coeffs = [json.dumps(f.scalar_str(x if t.p is not None else Fraction(x, t.scale)))
              for x in values.tolist()]
    pairs = [f"   [\n    {k},\n    {coeffs[c]}\n   ]"
             for k, c in zip(ks.tolist(), which.tolist())]
    # nonzero walks in C order: a row starts wherever its head changes
    flat = np.ravel_multi_index(head, t.shape[:-1])
    starts = np.flatnonzero(np.diff(flat, prepend=-1)).tolist()
    heads = zip(*(h[starts].tolist() for h in head))
    rows = [
        " [\n" + "".join(f"  {i},\n" for i in hd) + "  [\n"
        + ",\n".join(pairs[a:b]) + "\n  ]\n ]"
        for hd, a, b in zip(heads, starts, starts[1:] + [len(pairs)])
    ]
    return json_object({
        "name": json.dumps(alg.name),
        "field": json.dumps(f.spec_str()),
        "dim": json.dumps(alg.dim),
        _KIND_OF_ARITY[alg.arity]: "[\n" + ",\n".join(rows) + "\n]" if rows else "[]",
    })


def load_algebra(path, force=False):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not ASCII text (byte {e.start})")
    return loads_algebra(text, force)
