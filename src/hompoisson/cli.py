"""Command-line driver: verify algebra files and replay the worked examples.

Each subcommand is one row of ``_COMMANDS``: its handler, help line and
arguments.  Every subcommand takes ``--format``, and a handler that builds an
algebra hands it to ``_finish``, which writes it to ``--out`` when given.

Exit codes: 0 all checks passed, 1 at least one check failed (witnesses are
printed), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass

from .algebra import (
    HomAlgebra,
    HomPoissonAlgebra,
    as_data,
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
# Output
# ---------------------------------------------------------------------------

def _emit(args, body: dict, lines) -> int:
    """Print ``body`` as JSON, or ``lines`` and the ``RESULT`` line as text;
    the exit code follows ``body["passed"]``."""
    passed = body["passed"]
    if args.format == "json":
        print(json.dumps(body, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"RESULT: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_FAIL


def _witness_text(witness, basis) -> str:
    if basis and all(isinstance(i, int) and 0 <= i < len(basis) for i in witness.indices):
        where = ", ".join(basis[i] for i in witness.indices)
    else:
        where = ", ".join(str(i) for i in witness.indices)
    return f"    witness ({where}): residual {witness.residual}"


def _report_lines(leaves, basis):
    for leaf in leaves:
        yield f"{'PASS' if leaf.passed else 'FAIL'}  {leaf.identity}"
        if not leaf.passed:
            for w in leaf.witnesses:
                yield _witness_text(w, basis)


def _finish(args, command: str, reports, basis=None, built=None) -> int:
    """Write the ``built`` algebra to ``--out`` if one is given, then report ``reports``."""
    if built is not None and args.out:
        emit_spec(built, args.out)
    leaves = [leaf for report in reports for leaf in report.flat()]
    body = {"command": command, "passed": all(leaf.passed for leaf in leaves),
            "reports": [as_data(leaf) for leaf in leaves]}
    return _emit(args, body, _report_lines(leaves, basis))


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
    return _finish(args, "twist", [morphism, check_hom_poisson(twisted)], algebra.basis, twisted)


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
    return _finish(args, "tensor", reports + [check_hom_poisson(product)], product.basis, product)


def _single_product(algebra: HomPoissonAlgebra, path, verb: str) -> HomAlgebra:
    if not algebra.bracket.is_zero():
        raise SpecFileError(
            f"{path}: bracket: {verb} expects a single-product algebra; depolarize first")
    return HomAlgebra(basis=algebra.basis, mu=algebra.mu, alpha=algebra.alpha)


def _cmd_polarize(args) -> int:
    from .constructions import check_admissible, polarize

    algebra = _single_product(parse_spec(args.spec), args.spec, "polarize")
    split = polarize(algebra)
    return _finish(args, "polarize",
                   [check_admissible(algebra), check_hom_poisson(split)], algebra.basis, split)


def _cmd_depolarize(args) -> int:
    from .constructions import check_admissible, depolarize

    algebra = parse_spec(args.spec)
    merged = depolarize(algebra)
    return _finish(args, "depolarize", [check_admissible(merged)], algebra.basis, merged)


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
    if not reports:
        raise SpecFileError("--max-n 2 runs no check on an algebra that is not multiplicative; "
                            "use --max-n 3 or more")
    return _finish(args, "power", reports)


def _cmd_catalog(args) -> int:
    from . import catalog

    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise SpecFileError(f"--param expects name=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise SpecFileError(f"--param {key!r} given more than once")
        try:
            params[key] = rat(value.strip())
        except (ValueError, TypeError) as exc:
            raise SpecFileError(f"--param {item!r}: {exc}") from exc
    obj = catalog.build_catalog(args.name, params)
    basis = getattr(obj, "basis", None)
    if args.out and basis is None:
        raise SpecFileError(f"catalog entry {args.name!r} is not a finite-dimensional algebra; cannot --out")
    return _finish(args, "catalog", catalog.entry_reports(args.name, obj), basis, obj)


# ---------------------------------------------------------------------------
# Witness replays
# ---------------------------------------------------------------------------

# witness name -> replay function in ``witnesses``
WITNESS_SCRIPTS = {
    "free-poly": "free_poly_witness",
    "matrix": "matrix_twist_witness",
    "sl2": "sl2_witness",
    "r2n": "r2n_witness",
    "heisenberg-rigidity": "heisenberg_rigidity_replay",
}


def _value_text(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(_value_text(v) for v in value) + ")"
    return str(value)


def _replay_lines(result):
    """The first docstring line of the result's class, then one line per
    field, or per case of a tuple of case dataclasses."""
    yield type(result).__doc__.strip().splitlines()[0]
    for field in fields(result):
        if field.name == "passed":
            continue
        value = getattr(result, field.name)
        if isinstance(value, tuple) and value and all(is_dataclass(v) for v in value):
            for i, case in enumerate(value):
                yield f"{field.name}[{i}]: " + ", ".join(
                    f"{f.name} = {_value_text(getattr(case, f.name))}" for f in fields(case))
        else:
            yield f"{field.name}: {_value_text(value)}"


def _cmd_witness(args) -> int:
    replay = WITNESS_SCRIPTS.get(args.name)
    if replay is None:
        known = ", ".join(sorted(WITNESS_SCRIPTS))
        raise SpecFileError(f"unknown witness {args.name!r} (known: {known})")
    from . import witnesses

    result = getattr(witnesses, replay)()
    body = {"command": "witness", "name": args.name, "passed": result.passed, **as_data(result)}
    return _emit(args, body, _replay_lines(result))


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

_OUT = ("--out", {"metavar": "OUTFILE"})

# subcommand -> (handler, help, arguments as (flag, add_argument keywords))
_COMMANDS = {
    "check": (_cmd_check, "run the full identity suite on an algebra file", [("spec", {})]),
    "twist": (_cmd_twist, "twist an algebra by a map file and verify the result",
              [("spec", {}), ("--by", {"required": True, "metavar": "MAPFILE"}), _OUT]),
    "tensor": (_cmd_tensor, "tensor two commutative algebras and verify the result",
               [("left", {}), ("right", {}), _OUT]),
    "polarize": (_cmd_polarize, "split a single product into bracket and symmetric halves",
                 [("spec", {}), _OUT]),
    "depolarize": (_cmd_depolarize, "merge bracket and product into a single product", [("spec", {}), _OUT]),
    "power": (_cmd_power, "generic-element power associativity checks",
              [("spec", {}), ("--max-n", {"type": int, "default": 4})]),
    "catalog": (_cmd_catalog, "build a named example and run its advertised checks",
                [("name", {}), ("--param", {"action": "append", "metavar": "NAME=VALUE"}), _OUT]),
    "witness": (_cmd_witness, "replay a worked example and certify its residuals", [("name", {})]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompoisson",
        description="Exact verification of twisted Poisson-type algebras given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=handler)
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
