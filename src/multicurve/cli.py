"""Command-line frontend.

Exit codes: 0 ok, 1 invalid input, 2 verification failure.  All machine
output is JSON with a top-level "schema": 1; `components` also has a table
format.  PMC_PRECISION overrides the x-precision N of module-spec files
(the N/N+2 stabilization check always stays on).

The parser is built once per process (`build_parser` is cached) and each
call parses into a fresh namespace.  The numpy layers (`modules`,
`normal_form`, `ext`, `verify`) are imported per command, by the commands on
module-spec files and `verify`; the curve-level commands never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import moduli as mo
from .errors import DomainError, MultiCurveError, PrecisionError, VerificationError
from .invariants import CurveParams
from .stability import check_stability, jh_filtration

OK, INVALID_INPUT, VERIFICATION_FAILURE = 0, 1, 2
SUITE_NAMES = ("ring", "indices", "duality", "stability", "ext", "moduli", "iso")  # the keys of verify.SUITES
POINT_FLAGS = ("monomial", "dual_monomial")


def _emit(payload: dict) -> None:
    payload = {"schema": 1, **payload}
    json.dump(payload, sys.stdout, indent=2, default=_coerce)
    sys.stdout.write("\n")


def _coerce(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator} if obj.denominator != 1 else obj.numerator
    raise TypeError(f"not JSON serializable: {obj!r}")


def _load_module(path: str):
    from .modules import parse_module_text
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    override = os.environ.get("PMC_PRECISION")
    if override:
        lines = text.splitlines()
        for k, ln in enumerate(lines):
            if ln.strip() and not ln.strip().startswith("#"):  # the `ring ...` header
                lines[k] = " ".join(f"N={int(override)}" if tok.startswith("N=") else tok
                                    for tok in ln.split())
                break
        text = "\n".join(lines)
    return parse_module_text(text)


def _parse_beta(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.replace("(", "").replace(")", "").split(","))


def _curve(args) -> CurveParams:
    return CurveParams(args.n, args.g1, args.delta, args.degree)


def cmd_indices(args) -> int:
    from . import modules as md
    M = _load_module(args.file)
    beta = md.indices(M)
    by_def = md.indices_by_definition(M)
    _emit({
        "beta": list(beta),
        "beta_by_definition": list(by_def),
        "agree": beta == by_def,
        "graded_first": [list(lv) for lv in md.graded_report(M, "first").levels],
        "graded_second": [list(lv) for lv in md.graded_report(M, "second").levels],
    })
    return OK if beta == by_def else VERIFICATION_FAILURE


def cmd_normalize(args) -> int:
    from .normal_form import normalize_special
    form = normalize_special(_load_module(args.file))
    _emit({"n": form.n, "b": form.b, "j": form.j, "z": [list(r) for r in form.z]})
    return OK


def cmd_isomorphic(args) -> int:
    from .modules import is_isomorphic_oracle
    A = _load_module(args.file_a)
    B = _load_module(args.file_b)
    _emit({"verdict": is_isomorphic_oracle(A, B)})
    return OK


def cmd_stability(args) -> int:
    verdict = check_stability(_curve(args), _parse_beta(args.beta))
    _emit({
        "semistable": verdict.semistable,
        "stable": verdict.stable,
        "equality_positions": list(verdict.equality_positions),
    })
    return OK


def cmd_jh(args) -> int:
    fil = jh_filtration(_curve(args), _parse_beta(args.beta))
    _emit({
        "positions": list(fil.positions),
        "steps": list(fil.steps),
        "factors": [
            {
                "multiplicity": f.multiplicity,
                "degree": f.degree,
                "beta": list(f.beta),
                "slope": f.slope,
            }
            for f in fil.graded
        ],
    })
    return OK


def cmd_components(args) -> int:
    cp = _curve(args)
    comps = mo.enumerate_components(cp)
    conn = mo.connectivity(cp)
    payload = {
        "curve": {"n": cp.n, "g1": cp.g1, "delta": cp.delta, "degree": cp.degree},
        "genus": cp.genus,
        "components": [c.to_json_dict() for c in comps],
        "connected_components": conn.component_count,
    }
    if args.conjecture:
        payload["conjecture"] = mo.conjecture_report_n3(cp)
    # written once the whole answer is built: the report refuses n != 3
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(mo.write_dot(conn))
    if args.format == "table":
        print(f"# n={cp.n} g1={cp.g1} delta={cp.delta} D={cp.degree} genus={cp.genus}")
        print(f"{'beta':>16}  {'dim':>5}  {'tangent':>7}  {'divisible':>9}")
        for c in comps:
            beta = "(" + ",".join(str(v) for v in c.beta) + ")"
            print(f"{beta:>16}  {c.dimension:>5}  {c.tangent_dim_generic:>7}  {str(c.divisibility_ok):>9}")
        print(f"# connected components: {conn.component_count}")
        if args.conjecture:
            rep = payload["conjecture"]
            print(f"# CONJECTURAL vector-bundle component: present={rep['vector_bundle_component']['present']} "
                  f"dim={rep['vector_bundle_component']['dimension']}")
            for locus in rep["rigid_type_loci"]:
                print(f"# CONJECTURAL rigid-type locus d0={locus['d0']} d1={locus['d1']} dim={locus['dimension']}")
    else:
        _emit(payload)
    return OK


def cmd_connectivity(args) -> int:
    cp = _curve(args)
    conn = mo.connectivity(cp)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(mo.write_dot(conn))
    _emit({
        "labels": [list(b) for b in conn.labels],
        "edges": [[list(a), list(b)] for a, b in conn.edges],
        "connected_component_count": conn.component_count,
        "components": [[list(b) for b in grp] for grp in conn.components],
    })
    return OK


def cmd_tangent(args) -> int:
    cp = _curve(args)
    if args.beta is not None and (args.points or args.vector_bundle):
        raise DomainError("--beta is ignored next to --points or --vector-bundle")
    if args.h0 is not None and not args.vector_bundle:
        raise DomainError("--h0 is used only with --vector-bundle")
    if args.vector_bundle:
        dim = mo.tangent_dimension_vector_bundle(cp, args.h0)
        _emit({"tangent_dim": dim, "kind": "vector_bundle"})
        return OK
    if args.points:
        pts = json.loads(args.points)
        if not (isinstance(pts, list) and all(
                isinstance(d, dict) and isinstance(d.get("b"), list) and set(d) <= {"b", *POINT_FLAGS}
                and all(isinstance(d.get(f, False), bool) for f in POINT_FLAGS) for d in pts)):
            raise DomainError("--points must be a JSON list of objects with a list \"b\" and optional "
                              f"booleans \"monomial\" and \"dual_monomial\", got {args.points!r}")
        cfg = mo.LocalConfig(cp.n, tuple(mo.PointIndices(tuple(d.pop("b")), **d) for d in pts))
    else:
        cfg = mo.generic_config(cp.n, _parse_beta(args.beta or ""))
    _emit({"tangent_dim": mo.tangent_dimension(cp, cfg),
           "beta": list(cfg.global_indices())})
    return OK


def cmd_ext(args) -> int:
    from . import ext as ext_mod
    M = _load_module(args.file)
    length, beta = ext_mod.local_ext1(M)
    _emit({
        "local_ext1_length": length,
        "closed_form": ext_mod.closed_form_ext1(M.params.n, beta),
        "beta": list(beta),
    })
    return OK


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites
    if args.suite != "all" and args.suite not in SUITES:
        raise DomainError(f"unknown suite {args.suite!r}: expected all or one of {', '.join(SUITES)}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bad = 0
    for name, checks, failures in run_suites(names, seed=args.seed):
        if failures:
            bad += len(failures)
            print(f"FAIL {name}: {len(failures)}/{checks} checks failed")
            for witness in failures[:5]:
                print(f"  witness: {witness}")
        else:
            print(f"ok {name}: {checks} checks")
    return VERIFICATION_FAILURE if bad else OK


def _add_curve_args(sub, degree_required=True):
    sub.add_argument("--n", type=int, required=True, help="multiplicity")
    sub.add_argument("--delta", type=int, required=True, help="conormal degree -deg C")
    sub.add_argument("--g1", type=int, default=2, help="genus of the reduced curve")
    sub.add_argument("--degree", type=int, default=0, required=degree_required,
                     help="generalized degree D")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(
        prog="multicurve",
        description="Generalized line bundles on primitive multiple curves: "
                    "indices, normal forms, stability, moduli components, Ext lengths.")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("indices", help="index vectors and graded report of a module-spec file")
    s.add_argument("file")
    s.set_defaults(func=cmd_indices)

    s = sub.add_parser("normalize", help="unique (b, j, z) of a single-jump module")
    s.add_argument("file")
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("isomorphic", help="surjection/isomorphism oracle on two module files")
    s.add_argument("file_a")
    s.add_argument("file_b")
    s.set_defaults(func=cmd_isomorphic)

    s = sub.add_parser("stability", help="semistability of an index vector")
    _add_curve_args(s, degree_required=False)
    s.add_argument("--beta", required=True, help="comma-separated indices, e.g. 0,1")
    s.set_defaults(func=cmd_stability)

    s = sub.add_parser("jh", help="Jordan-Holder filtration of a strictly semistable vector")
    _add_curve_args(s)
    s.add_argument("--beta", required=True)
    s.set_defaults(func=cmd_jh)

    s = sub.add_parser("components", help="irreducible components of stable generalized line bundles")
    _add_curve_args(s)
    s.add_argument("--format", choices=("json", "table"), default="json")
    s.add_argument("--dot", metavar="FILE", help="write the connectivity graph in DOT format")
    s.add_argument("--conjecture", action="store_true",
                   help="append the conjectural full list (n = 3 only)")
    s.set_defaults(func=cmd_components)

    s = sub.add_parser("connectivity", help="connectivity graph of component labels")
    _add_curve_args(s)
    s.add_argument("--dot", metavar="FILE")
    s.set_defaults(func=cmd_connectivity)

    s = sub.add_parser("tangent", help="tangent-space dimension at a moduli point")
    _add_curve_args(s, degree_required=False)
    s.add_argument("--beta", help="component label (generic configuration)")
    s.add_argument("--points", help="JSON list of per-point configurations")
    s.add_argument("--vector-bundle", action="store_true")
    s.add_argument("--h0", type=int, default=None,
                   help="h0(End E x C^-1), needed when delta <= 2g1-2")
    s.set_defaults(func=cmd_tangent)

    s = sub.add_parser("ext", help="local Ext^1 length of a module-spec file")
    s.add_argument("file")
    s.set_defaults(func=cmd_ext)

    s = sub.add_parser("verify", help="run a property suite")
    s.add_argument("suite", metavar="{" + ",".join(("all", *SUITE_NAMES)) + "}")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; 2 means verification here
        return OK if exc.code == 0 else INVALID_INPUT
    try:
        return args.func(args)
    except (VerificationError, PrecisionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    except (MultiCurveError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
