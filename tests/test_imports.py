"""Import footprint: ``import hompoisson`` loads no submodule, each CLI
subcommand loads only the modules it runs, and the benchmark's dense oracle,
the tests' one independent restatement of the identities, loads none.  The
public functions and methods of every module are pinned.

The footprint tests run in a fresh interpreter, because this test process
has already imported every module.
"""

import ast
import dataclasses
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hompoisson
from hompoisson.catalog import heisenberg_morphism, heisenberg_p31
from hompoisson.constructions import depolarize
from hompoisson.specfile import emit_map, emit_spec

from _oracles import BENCH

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hompoisson.__file__)))
BASE = {"algebra", "errors", "linalg", "specfile"}

# Runs the CLI as ``python -m hompoisson.cli ARGS`` would, then prints the
# exit code and the loaded package modules as the last line of stdout.
FOOTPRINT = """
import json, runpy, sys
sys.argv = ["hompoisson", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("hompoisson.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("hompoisson."))]))
"""


def python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture
def files(tmp_path):
    algebra = heisenberg_p31(1)
    emit_spec(algebra, tmp_path / "p31.json")
    emit_spec(dataclasses.replace(algebra, bracket=algebra.bracket.with_entry(0, 0, 2, 1)),
              tmp_path / "bad.json")
    emit_spec(depolarize(algebra), tmp_path / "single.json")
    emit_map(heisenberg_morphism(2, 0, 0, 3), tmp_path / "beta.json")
    return tmp_path


def test_bare_import_loads_no_submodule(tmp_path):
    code = ("import sys, hompoisson; "
            "print(sorted(m for m in sys.modules if m.startswith('hompoisson.')))")
    proc = python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bench_oracle_loads_no_package_module(tmp_path):
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('_bench_oracle', {str(BENCH / 'oracle.py')!r}); "
            "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'hompoisson'))")
    proc = python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ``cli`` itself runs as ``__main__``, so it is not among the loaded modules.
@pytest.mark.parametrize("argv, extra", [
    (["check", "p31.json"], set()),
    (["twist", "p31.json", "--by", "beta.json"], {"constructions"}),
    (["power", "single.json", "--max-n", "3"], {"hompower", "poly"}),
    (["catalog", "heisenberg-p31"], {"catalog"}),
    # the replay contracts rational vectors, which needs no polynomial module
    (["witness", "matrix"], {"witnesses", "catalog", "constructions"}),
    (["witness", "free-poly"], {"witnesses", "catalog", "poisson_poly", "poly"}),
])
def test_subcommand_footprint(files, argv, extra):
    proc = python(["-c", FOOTPRINT, *argv], files)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert {m.removeprefix("hompoisson.") for m in modules} == BASE | extra


def test_exports_resolve_to_their_defining_module():
    for name in hompoisson.__all__:
        value = getattr(hompoisson, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value.__module__.startswith("hompoisson.")
    assert set(hompoisson.__all__) <= set(dir(hompoisson))
    assert hompoisson.poly is importlib.import_module("hompoisson.poly")
    with pytest.raises(AttributeError, match="no_such_name"):
        hompoisson.no_such_name  # noqa: B018


@pytest.mark.parametrize("spec, code, tail", [
    ("p31.json", 0, "RESULT: PASS"),
    ("bad.json", 1, "RESULT: FAIL"),
    ("missing.json", 2, ""),
])
def test_main_exit_codes(files, spec, code, tail):
    proc = python(["-m", "hompoisson.cli", "check", spec], files)
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: missing.json: cannot read file")
    else:
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == tail


# The public surface, pinned: for each module, its public top-level functions
# and the public methods of its public classes, as ``Class.method``.  Names
# with a leading underscore, dunder methods included, are not pinned.
PUBLIC_SURFACE = {
    "__init__": (),
    "algebra": (
        "CheckReport.flat", "HomAlgebra.dim", "HomPoissonAlgebra.dim", "aggregate_report", "antisymmetry", "as_data",
        "associator", "check_antisymmetry", "check_commutative", "check_hom_associative", "check_hom_jacobi",
        "check_hom_leibniz", "check_hom_poisson", "check_morphism", "check_multiplicative", "commutativity",
        "cyclic_associator_sum", "hom_associator", "hom_jacobian", "hom_leibniz_residual", "intertwining",
        "jacobi_tensor", "jacobian", "leibniz", "make_report", "morphism", "sweep", "tabulate",
    ),
    "catalog": (
        "build_catalog", "conjugation_morphism", "entry_reports", "free_poly_shift", "heisenberg_morphism",
        "heisenberg_p31", "heisenberg_p32", "matrix_algebra", "sl2_linear_poisson", "sl2_scaling", "symplectic_space",
    ),
    "cli": ("main", "run_command"),
    "constructions": (
        "admissibility", "beta_twisting", "check_admissible", "check_hom_flexible", "commutator_poisson", "depolarize",
        "derived", "flexibility", "is_trivial_twisting", "nonrigidity_witness", "operation_sum", "polarize", "tensor",
        "twist", "verify_isomorphism", "yau_twist",
    ),
    "errors": (),
    "hompower": ("check_criterion_34", "check_nth_power_assoc", "generic_element", "hom_power", "hom_power_pair"),
    "linalg": (
        "LinearMap.apply", "LinearMap.compose", "LinearMap.diagonal", "LinearMap.dim", "LinearMap.entry",
        "LinearMap.identity", "LinearMap.int_rows", "LinearMap.invert", "LinearMap.is_identity",
        "LinearMap.kernel_vector", "LinearMap.kron", "LinearMap.power", "LinearMap.rows", "Trilinear.contract",
        "Trilinear.entry", "Trilinear.is_zero", "Trilinear.items", "Trilinear.kron", "Trilinear.map_outputs",
        "Trilinear.with_entry", "Trilinear.zero", "Vector.dim", "Vector.is_zero", "Vector.of", "Vector.unit",
        "Vector.zero", "rat",
    ),
    "poisson_poly": (
        "PoissonStructure.bracket", "PoissonStructure.variable", "Substitution.iterate", "check_poisson_substitution",
        "manifold_nonrigidity_check", "translation", "twisted_associator", "twisted_product",
    ),
    "poly": (
        "Polynomial.const", "Polynomial.diff", "Polynomial.evaluate", "Polynomial.is_zero", "Polynomial.sorted_terms",
        "Polynomial.substitute", "Polynomial.var", "Polynomial.variables", "Polynomial.zero",
    ),
    "specfile": ("algebra_to_dict", "emit_map", "emit_spec", "parse_map", "parse_spec"),
    "witnesses": (
        "free_poly_witness", "general_heisenberg_maps", "heisenberg_rigidity_replay", "matrix_twist_witness",
        "r2n_witness", "sl2_witness",
    ),
}


def test_public_surface_is_pinned():
    """Adding, removing or renaming a public function or method means editing
    ``PUBLIC_SURFACE`` on purpose.  The sources are read with ``ast``, so
    nothing is imported."""
    public = lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    surface = {}
    for path in sorted(pathlib.Path(hompoisson.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text()).body
        names = [node.name for node in body if public(node)]
        names += [f"{cls.name}.{node.name}" for cls in body
                  if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_") for node in cls.body if public(node)]
        surface[path.stem] = tuple(sorted(names))
    assert surface == PUBLIC_SURFACE
