"""Command-line front end.

Subcommands: check (axiom flags), uce (build one universal central
extension), homology (same build, report only H1/H2), theorem (the full
comparison pipeline), and a hidden selftest.

Inputs are either a JSON file in the documented sparse format or
``catalog:NAME`` with an optional --field (files fix their own field, so
--field is rejected there). Exit codes: 0 success, 1 failed verdict or
internal assertion, 2 unreadable or malformed input, 3 semantic error,
4 not perfect, 5 axiom precondition violated, 6 standard output closed
before all output was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .algebra import CATEGORIES, BinaryAlgebra, check_binary, check_ternary, derived_lts
from .catalog import catalog
from .errors import (
    AxiomPrecondition,
    DimensionGuard,
    DimensionMismatch,
    FieldError,
    FormatError,
    InternalAssertionFailed,
    NotCentral,
    NotEquivariant,
    NotOverSameBase,
    NotPerfect,
    SemanticError,
    Uce3Error,
    UnknownAlgebra,
    WellDefinednessFailed,
    WrongCategory,
)
from .fields import QQ, field_of
from .serialize import load_algebra
from .uce import dimension_guard, homology, leibniz_uce, lie_uce, lts_tensor_cube
from .theorem import verify_main_theorem

_EXIT_BY_ERROR = (
    (FormatError, 2),
    ((SemanticError, FieldError, UnknownAlgebra, WrongCategory,
      DimensionMismatch, DimensionGuard, NotOverSameBase), 3),
    (NotPerfect, 4),
    (AxiomPrecondition, 5),
    ((InternalAssertionFailed, NotCentral, WellDefinednessFailed,
      NotEquivariant), 1),
)


def _emit_json(obj):
    # one write: json.dump would make one per token
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _yesno(b):
    return "yes" if b else "no"


def _load_input(args):
    src = args.input
    if src.startswith("catalog:"):
        f = QQ if args.field is None else field_of(args.field)
        return catalog(src[len("catalog:"):], f, args.force)
    if args.field is not None:
        raise SemanticError(
            "--field cannot override the field fixed by an input file"
        )
    return load_algebra(src, args.force)


def cmd_check(args):
    alg = _load_input(args)
    field = alg.field.spec_str()
    if isinstance(alg, BinaryAlgebra):
        fl = check_binary(alg)
        kind = "binary"
        flags = {"alternating": fl.is_alternating, "lie": fl.is_lie,
                 "leibniz": fl.is_leibniz, "jacobi": fl.satisfies_jacobi,
                 "perfect": fl.is_perfect}
        lines = (
            f"lie: {_yesno(fl.is_lie)}, leibniz: {_yesno(fl.is_leibniz)}, "
            f"perfect: {_yesno(fl.is_perfect)}, dim {alg.dim}",
            f"alternating: {_yesno(fl.is_alternating)}, "
            f"jacobi: {_yesno(fl.satisfies_jacobi)}, field {field}",
        )
    else:
        fl = check_ternary(alg)
        kind = "ternary"
        flags = {"lts": fl.is_lts, "perfect": fl.is_perfect}
        lines = (
            f"lts: {_yesno(fl.is_lts)}, perfect: {_yesno(fl.is_perfect)}, "
            f"dim {alg.dim}",
            f"field {field}",
        )
    if args.json:
        _emit_json({"kind": kind, "dim": alg.dim, "field": field,
                    "name": alg.name, "flags": flags})
    else:
        print("\n".join(lines))
    return 0


def _build_uce(args):
    alg = _load_input(args)
    category = args.category
    dimension_guard(alg.dim, category, args.force)
    if category == "lts":
        if isinstance(alg, BinaryAlgebra):
            alg = derived_lts(alg)
        return lts_tensor_cube(alg, force=args.force)
    return leibniz_uce(alg) if category == "leibniz" else lie_uce(alg)


def cmd_uce(args):
    u = _build_uce(args)
    if args.json:
        sys.stdout.write(u.to_json() + "\n")
    else:
        print(f"category: {u.category}")
        print(
            f"carrier {u.carrier_dim}, H2 {u.kernel.dim}, "
            f"relations {u.relations.dim}"
        )
    return 0


def cmd_homology(args):
    u = _build_uce(args)
    rep = homology(u)
    if args.json:
        f = u.base.field
        _emit_json({
            "category": u.category,
            "h1_dim": rep.h1_dim,
            "h2_dim": rep.h2_dim,
            "h2_basis": [
                [f.scalar_str(x) for x in vec] for vec in rep.h2_basis
            ],
        })
    else:
        print(f"H1 {rep.h1_dim}, H2 {rep.h2_dim}")
    return 0


def cmd_theorem(args):
    alg = _load_input(args)
    t0 = time.monotonic()
    rep = verify_main_theorem(alg, force=args.force)
    if args.verbose:
        print(f"pipeline took {time.monotonic() - t0:.2f}s", file=sys.stderr)
    if args.json:
        _emit_json(rep.to_dict())
    else:
        d = rep.dims

        def verdict(v):
            return "OK" if v else ("FAIL" if v is not None else "skipped")

        print(f"base: {rep.base_name or 'input'}, dim {d['base']}, "
              f"char {rep.characteristic}")
        print(f"branch: {'char 2' if rep.characteristic == 2 else 'char != 2'}")
        print(f"dims: U_Lie {d['u_lie']}, U_Leib {d['u_leib']}, "
              f"U_LTS {d['u_lts']}, J {d['j']}, I {d['i']}")
        print(f"H2: lie {d['h2_lie']}, leibniz {d['h2_leib']}, "
              f"lts {d['h2_lts']}")
        print(f"J=2I: {verdict(rep.doubling_ok)}")
        if rep.characteristic == 2:
            print(f"J=0: {verdict(rep.doubling_ok)}")
        else:
            print(f"J=I: {verdict(rep.doubling_ok)}")
        print(f"U_LTS = U_Leib/J: {verdict(rep.iso_lts_leib_mod_j)}")
        if rep.characteristic == 2:
            print(f"U_LTS = U_Leib: {verdict(rep.char_branch_ok)}")
        else:
            print(f"U_LTS = U_Lie: {verdict(rep.char_branch_ok)}")
        if rep.failed_fact:
            print(f"failed fact: {rep.failed_fact}")
    return 0 if rep.ok else 1


def cmd_selftest(args):
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed, verbose=args.verbose)
    return 0 if ok else 1


@functools.cache
def _parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged."""
    ap = argparse.ArgumentParser(
        prog="uce3",
        description=(
            "Exact universal central extensions of perfect Lie, Leibniz, "
            "and Lie triple systems."
        ),
    )
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        metavar="{check,uce,homology,theorem}",
    )

    def add_common(p, category=False):
        p.add_argument(
            "input",
            help="path to a JSON algebra file, or catalog:NAME "
            "(sl2, sl3, sl(4), abelian(n), heisenberg)",
        )
        p.add_argument(
            "--field",
            help='field for catalog inputs: "Q" or "GF(p)" (default Q); '
            "rejected for file inputs",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--force",
            action="store_true",
            help="override the dimension guard",
        )
        p.add_argument("--verbose", action="store_true")
        if category:
            p.add_argument(
                "--category",
                required=True,
                choices=list(CATEGORIES),
                help="which universal central extension to build",
            )

    p = sub.add_parser("check", help="report axiom flags for an algebra")
    add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("uce", help="build one universal central extension")
    add_common(p, category=True)
    p.set_defaults(fn=cmd_uce)

    p = sub.add_parser("homology", help="like uce, but print only H1/H2")
    add_common(p, category=True)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("theorem", help="run the full comparison pipeline")
    add_common(p)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=8128)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        # what is still buffered meets a closed reader here, not at exit
        sys.stdout.flush()
        return code
    except Uce3Error as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        for excs, code in _EXIT_BY_ERROR:
            if isinstance(e, excs):
                return code
        return 1
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error [BrokenPipeError]: standard output was closed before "
              "all output was written", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
