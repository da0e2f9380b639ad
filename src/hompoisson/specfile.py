"""On-disk JSON formats for algebras and linear maps.

An algebra file carries the dimension, basis names, the product tensor as
(i, j, k, "p/q") quadruples with 1-based indices, an optional bracket tensor,
the twisting map as a row-major rational matrix (identity when omitted), and
an optional commutativity claim.  Omitted tensor entries are zero.  Rationals
are "p/q" strings or integers, never decimals.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import HomPoissonAlgebra
from .errors import SpecFileError
from .linalg import LinearMap, Trilinear, rat

ALGEBRA_FORMAT = "hom-poisson-algebra/1"
MAP_FORMAT = "linear-map/1"


def _fail(path, field, message) -> SpecFileError:
    return SpecFileError(f"{path}: {field}: {message}")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:  # an integer literal longer than int() accepts
        raise SpecFileError(f"{path}: invalid JSON: {str(exc).partition(';')[0]}") from exc
    except RecursionError as exc:
        raise SpecFileError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise SpecFileError(f"{path}: top level must be a JSON object")
    return data


def _check_fields(path, data, known) -> None:
    unknown = set(data) - known
    if unknown:
        raise _fail(path, ", ".join(sorted(unknown)), "unknown field(s)")


def _parse_dim(path, data) -> int:
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise _fail(path, "dim", f"must be a positive integer, got {dim!r}")
    return dim


def _parse_rat(path, field, value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise _fail(path, field, f"coefficients must be exact rationals (\"p/q\" or integer), got {value!r}")
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise _fail(path, field, f"bad rational {value!r}: {exc}") from exc


def _parse_tensor(path, field, raw, dim) -> Trilinear:
    if not isinstance(raw, list):
        raise _fail(path, field, "expected a list of (i, j, k, coefficient) quadruples")
    entries = {}
    for pos, quad in enumerate(raw):
        where = f"{field}[{pos}]"
        if not (isinstance(quad, list) and len(quad) == 4):
            raise _fail(path, where, "expected [i, j, k, coefficient]")
        i, j, k, coeff = quad
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise _fail(path, where, f"index {label} must be an integer, got {idx!r}")
            if not 1 <= idx <= dim:
                raise _fail(path, where, f"index {label}={idx} out of range 1..{dim}")
        key = (i - 1, j - 1, k - 1)
        if key in entries:
            raise _fail(path, where, f"duplicate entry for indices ({i}, {j}, {k})")
        entries[key] = _parse_rat(path, where, coeff)
    return Trilinear(dim, entries)


def _parse_matrix(path, field, raw, dim) -> LinearMap:
    if not (isinstance(raw, list) and len(raw) == dim and
            all(isinstance(row, list) and len(row) == dim for row in raw)):
        raise _fail(path, field, f"expected a {dim}x{dim} row-major matrix")
    rows = tuple(
        tuple(_parse_rat(path, f"{field}[{i}][{j}]", raw[i][j]) for j in range(dim))
        for i in range(dim)
    )
    return LinearMap(rows)


def parse_spec(path) -> HomPoissonAlgebra:
    """Read an algebra file; a missing bracket section yields a zero bracket."""
    data = _load_json(path)
    fmt = data.get("format")
    if fmt != ALGEBRA_FORMAT:
        raise _fail(path, "format", f"expected {ALGEBRA_FORMAT!r}, got {fmt!r}")
    dim = _parse_dim(path, data)
    basis = data.get("basis")
    if not (isinstance(basis, list) and len(basis) == dim and all(isinstance(b, str) for b in basis)):
        raise _fail(path, "basis", f"expected {dim} name strings")
    if len(set(basis)) != dim:
        raise _fail(path, "basis", "names must be unique")
    if "mu" not in data:
        raise _fail(path, "mu", "missing product tensor")
    mu = _parse_tensor(path, "mu", data["mu"], dim)
    bracket = (_parse_tensor(path, "bracket", data["bracket"], dim)
               if "bracket" in data else Trilinear.zero(dim))
    alpha = (_parse_matrix(path, "alpha", data["alpha"], dim)
             if "alpha" in data else LinearMap.identity(dim))
    commutative = data.get("commutative", False)
    if not isinstance(commutative, bool):
        raise _fail(path, "commutative", "must be a boolean")
    _check_fields(path, data, {"format", "dim", "basis", "mu", "bracket", "alpha", "commutative"})
    return HomPoissonAlgebra(basis=tuple(basis), bracket=bracket, mu=mu,
                             alpha=alpha, commutative=commutative)


def _tensor_quads(t: Trilinear) -> list:
    return [[i + 1, j + 1, k + 1, str(q)] for (i, j, k), q in sorted(t.items())]


def algebra_to_dict(algebra) -> dict:
    data = {
        "format": ALGEBRA_FORMAT,
        "dim": algebra.dim,
        "basis": list(algebra.basis),
        "mu": _tensor_quads(algebra.mu),
        "alpha": [[str(q) for q in row] for row in algebra.alpha.rows],
    }
    if isinstance(algebra, HomPoissonAlgebra):
        data["bracket"] = _tensor_quads(algebra.bracket)
        data["commutative"] = algebra.commutative
    return data


def emit_spec(algebra, path) -> None:
    """Write an algebra file; parse(emit(a)) reproduces a's tensors exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra), fh, indent=2)
        fh.write("\n")


def parse_map(path) -> LinearMap:
    data = _load_json(path)
    fmt = data.get("format")
    if fmt != MAP_FORMAT:
        raise _fail(path, "format", f"expected {MAP_FORMAT!r}, got {fmt!r}")
    dim = _parse_dim(path, data)
    if "matrix" not in data:
        raise _fail(path, "matrix", "missing matrix")
    _check_fields(path, data, {"format", "dim", "matrix"})
    return _parse_matrix(path, "matrix", data["matrix"], dim)


def emit_map(m: LinearMap, path) -> None:
    data = {
        "format": MAP_FORMAT,
        "dim": m.dim,
        "matrix": [[str(q) for q in row] for row in m.rows],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
