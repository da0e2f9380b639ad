"""Command-line driver: verify algebra files and replay the worked examples.

Exit codes: 0 all checks passed, 1 at least one check failed (witnesses are
printed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    check_commutative,
    check_hom_poisson,
    check_morphism,
)
from .errors import HomPoissonError, PreconditionError, SpecFileError
from .linalg import rat
from .specfile import emit_spec, parse_map, parse_spec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _witness_text(witness, basis) -> str:
    if basis and all(isinstance(i, int) and 0 <= i < len(basis) for i in witness.indices):
        where = ", ".join(basis[i] for i in witness.indices)
    else:
        where = ", ".join(str(i) for i in witness.indices)
    return f"    witness ({where}): residual {witness.residual}"


def _print_reports(reports, basis=None) -> bool:
    ok = True
    for report in reports:
        for leaf in report.flat():
            print(f"{'PASS' if leaf.passed else 'FAIL'}  {leaf.identity}")
            if not leaf.passed:
                ok = False
                for w in leaf.witnesses:
                    print(_witness_text(w, basis))
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return ok


def _emit_json(command: str, reports) -> bool:
    leaves = [leaf for report in reports for leaf in report.flat()]
    ok = all(leaf.passed for leaf in leaves)
    payload = {
        "command": command,
        "passed": ok,
        "reports": [leaf.as_dict() for leaf in leaves],
    }
    print(json.dumps(payload, indent=2))
    return ok


def _finish(args, command: str, reports, basis=None) -> int:
    if args.format == "json":
        ok = _emit_json(command, reports)
    else:
        ok = _print_reports(reports, basis)
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    algebra = parse_spec(args.spec)
    return _finish(args, "check", [check_hom_poisson(algebra)], algebra.basis)


def _cmd_twist(args) -> int:
    from .constructions import twist

    algebra = parse_spec(args.spec)
    beta = parse_map(args.by)
    if beta.dim != algebra.dim:
        raise SpecFileError(f"{args.by}: dim: map dim {beta.dim} != algebra dim {algebra.dim}")
    morphism = check_morphism(beta, algebra, algebra, weak=True)
    if not morphism.passed:
        return _finish(args, "twist", [morphism], algebra.basis)
    twisted = twist(algebra, beta, force=True)
    if args.out:
        emit_spec(twisted, args.out)
    return _finish(args, "twist", [morphism, check_hom_poisson(twisted)], algebra.basis)


def _cmd_tensor(args) -> int:
    from .constructions import tensor

    a = parse_spec(args.left)
    b = parse_spec(args.right)
    reports = []
    for path, alg in ((args.left, a), (args.right, b)):
        if not alg.commutative:
            raise SpecFileError(f"{path}: commutative: tensor factors must claim a commutative product")
        reports.append(check_commutative(alg))
    if not all(r.passed for r in reports):
        return _finish(args, "tensor", reports)
    product = tensor(a, b)
    if args.out:
        emit_spec(product, args.out)
    return _finish(args, "tensor", reports + [check_hom_poisson(product)], product.basis)


def _single_product(algebra: HomPoissonAlgebra, path, verb: str) -> HomAlgebra:
    if not algebra.bracket.is_zero():
        raise SpecFileError(
            f"{path}: bracket: {verb} expects a single-product algebra; depolarize first")
    return HomAlgebra(basis=algebra.basis, mu=algebra.mu, alpha=algebra.alpha)


def _cmd_polarize(args) -> int:
    from .constructions import check_admissible, polarize

    algebra = _single_product(parse_spec(args.spec), args.spec, "polarize")
    split = polarize(algebra)
    if args.out:
        emit_spec(split, args.out)
    return _finish(args, "polarize",
                   [check_admissible(algebra), check_hom_poisson(split)], algebra.basis)


def _cmd_depolarize(args) -> int:
    from .constructions import check_admissible, depolarize

    algebra = parse_spec(args.spec)
    merged = depolarize(algebra)
    if args.out:
        emit_spec(merged, args.out)
    return _finish(args, "depolarize", [check_admissible(merged)], algebra.basis)


def _cmd_power(args) -> int:
    from .hompower import check_criterion_34, check_nth_power_assoc

    if args.max_n < 2:
        raise SpecFileError("--max-n must be >= 2")
    algebra = _single_product(parse_spec(args.spec), args.spec, "power checking")
    reports = []
    try:
        reports.append(check_criterion_34(algebra))
    except PreconditionError:
        if args.format == "text":
            print("note: algebra is not multiplicative; two-identity criterion skipped")
    for n in range(3, args.max_n + 1):
        reports.append(check_nth_power_assoc(algebra, n))
    return _finish(args, "power", reports, algebra.basis)


def _cmd_catalog(args) -> int:
    from . import catalog

    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise SpecFileError(f"--param expects name=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = rat(value.strip())
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SpecFileError(f"--param {item!r}: {exc}") from exc
    obj = catalog.build_catalog(args.name, params)
    reports = catalog.entry_reports(args.name, obj)
    basis = obj.basis if isinstance(obj, (HomAlgebra, HomPoissonAlgebra)) else None
    if args.out:
        if not isinstance(obj, (HomAlgebra, HomPoissonAlgebra)):
            raise SpecFileError(f"catalog entry {args.name!r} is not a finite-dimensional algebra; cannot --out")
        emit_spec(obj, args.out)
    return _finish(args, "catalog", reports, basis)


# ---------------------------------------------------------------------------
# Witness replays
# ---------------------------------------------------------------------------

def _render_free_poly(result):
    lines = [
        f"twisted associator at (X, X, alpha(X)): {result.residual}",
        f"direct expansion (2+X)^3 - (1+X)(2+X)(3+X): {result.direct}",
        f"nonzero and both routes agree: {'yes' if result.passed else 'NO'}",
    ]
    return result.passed, lines, {"residual": str(result.residual)}


def _render_matrix(result):
    if result is None:
        return False, ["no witness matrix found in search range"], {}
    lines = [
        f"witness matrix rows: {result.matrix}",
        f"twisted associator (basis coordinates): {result.residual}",
        f"dense-arithmetic route agrees and is nonzero: {'yes' if result.passed else 'NO'}",
    ]
    return result.passed, lines, {"matrix": [[str(v) for v in row] for row in result.matrix],
                                  "residual": [str(e) for e in result.residual.entries]}


def _render_sl2(result):
    lines = []
    for case in result.cases:
        tag = "morphism verified" if case.morphism_verified else "morphism check skipped"
        lines.append(f"lambda = {case.lam}: associator(e, h, h) = {case.residual} "
                     f"(expected {case.expected}; {tag})")
    lines.append(f"all cases match, nonzero exactly off {{0, 1}}: {'yes' if result.passed else 'NO'}")
    payload = {"cases": [{"lambda": str(c.lam), "residual": str(c.residual)} for c in result.cases]}
    return result.passed, lines, payload


def _render_r2n(result):
    lines = []
    for case in result.cases:
        lines.append(f"c_i = {case.c_i}: trace = {case.trace}, determinant condition = "
                     f"{case.determinant}, orbit check {'ok' if case.orbit_ok else 'BAD'}, "
                     f"non-rigidity certified: {'yes' if case.non_rigid else 'NO'}")
    lines.append(f"all probes match the expected 2c_i and c_i^2: {'yes' if result.passed else 'NO'}")
    payload = {"cases": [{"c_i": str(c.c_i), "trace": str(c.trace),
                          "determinant": str(c.determinant)} for c in result.cases]}
    return result.passed, lines, payload


def _render_rigidity(result):
    lines = []
    for case in result.cases:
        lines.append(f"{case.algebra}: {case.trivial} trivial, {case.isomorphic} isomorphic "
                     f"via Z -> bZ, {case.skipped} non-morphisms skipped, "
                     f"{len(case.failures)} unclassified")
    lines.append(f"no third outcome on the grid: {'yes' if result.passed else 'NO'}")
    payload = {"cases": [{"algebra": c.algebra, "trivial": c.trivial,
                          "isomorphic": c.isomorphic, "skipped": c.skipped,
                          "failures": len(c.failures)} for c in result.cases]}
    return result.passed, lines, payload


# witness name -> (replay function in ``witnesses``, renderer of its result)
WITNESS_SCRIPTS = {
    "free-poly": ("free_poly_witness", _render_free_poly),
    "matrix": ("matrix_twist_witness", _render_matrix),
    "sl2": ("sl2_witness", _render_sl2),
    "r2n": ("r2n_witness", _render_r2n),
    "heisenberg-rigidity": ("heisenberg_rigidity_replay", _render_rigidity),
}


def _cmd_witness(args) -> int:
    script = WITNESS_SCRIPTS.get(args.name)
    if script is None:
        known = ", ".join(sorted(WITNESS_SCRIPTS))
        raise SpecFileError(f"unknown witness {args.name!r} (known: {known})")
    from . import witnesses

    replay, render = script
    passed, lines, payload = render(getattr(witnesses, replay)())
    if args.format == "json":
        body = {"command": "witness", "name": args.name, "passed": passed}
        body.update(payload)
        print(json.dumps(body, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"RESULT: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompoisson",
        description="Exact verification of twisted Poisson-type algebras given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run the full identity suite on an algebra file")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("twist", help="twist an algebra by a map file and verify the result")
    p.add_argument("spec")
    p.add_argument("--by", required=True, metavar="MAPFILE")
    p.add_argument("--out", metavar="OUTFILE")
    common(p)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("tensor", help="tensor two commutative algebras and verify the result")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", metavar="OUTFILE")
    common(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("polarize", help="split a single product into bracket and symmetric halves")
    p.add_argument("spec")
    p.add_argument("--out", metavar="OUTFILE")
    common(p)
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("depolarize", help="merge bracket and product into a single product")
    p.add_argument("spec")
    p.add_argument("--out", metavar="OUTFILE")
    common(p)
    p.set_defaults(func=_cmd_depolarize)

    p = sub.add_parser("power", help="generic-element power associativity checks")
    p.add_argument("spec")
    p.add_argument("--max-n", type=int, default=4)
    common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("catalog", help="build a named example and run its advertised checks")
    p.add_argument("name")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", metavar="OUTFILE")
    common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("witness", help="replay a worked example and certify its residuals")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=_cmd_witness)

    return parser


def run_command(argv) -> int:
    """Run one CLI invocation; returns the exit code without exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (HomPoissonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
