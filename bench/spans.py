"""Spans around the public functions of each layer, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
namespace that binds it: the defining module, every ``hompoisson`` module
that imported it by value, and class dictionaries for methods (so
``Polynomial.__rmul__``, an alias of ``__mul__``, is wrapped too).  The
benchmark calls the package through module attributes, so it sees the
wrappers as well.
A span records its name, start, end, parent span and job id; spans stay in
memory in flat arrays until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

SETUP_JOB = -1

TRIPLE_CHECKS = {
    "algebra.hom_jacobi", "algebra.hom_associative", "algebra.hom_leibniz",
    "constructions.check_admissible", "constructions.check_hom_flexible",
}
PAIR_CHECKS = {"algebra.antisymmetry", "algebra.commutative", "algebra.multiplicative", "algebra.morphism"}
CHECKS = TRIPLE_CHECKS | PAIR_CHECKS | {"algebra.hom_poisson"}


def _targets():
    """(module, attribute path, span name) for every traced public function."""
    fns = [
        ("algebra", "check_hom_jacobi", "algebra.hom_jacobi"),
        ("algebra", "check_hom_associative", "algebra.hom_associative"),
        ("algebra", "check_hom_leibniz", "algebra.hom_leibniz"),
        ("algebra", "check_antisymmetry", "algebra.antisymmetry"),
        ("algebra", "check_commutative", "algebra.commutative"),
        ("algebra", "check_multiplicative", "algebra.multiplicative"),
        ("algebra", "check_morphism", "algebra.morphism"),
        ("algebra", "check_hom_poisson", "algebra.hom_poisson"),
        ("constructions", "tensor", "constructions.tensor"),
        ("constructions", "twist", "constructions.twist"),
        ("constructions", "commutator_poisson", "constructions.commutator_poisson"),
        ("constructions", "depolarize", "constructions.depolarize"),
        ("constructions", "check_admissible", "constructions.check_admissible"),
        ("constructions", "check_hom_flexible", "constructions.check_hom_flexible"),
        ("constructions", "beta_twisting", "constructions.beta_twisting"),
        ("constructions", "verify_isomorphism", "constructions.verify_isomorphism"),
        ("linalg", "LinearMap.compose", "linalg.compose"),
        ("linalg", "LinearMap.invert", "linalg.invert"),
        ("linalg", "Trilinear.map_outputs", "linalg.map_outputs"),
        ("linalg", "Trilinear.contract", "linalg.contract"),
        ("hompower", "check_nth_power_assoc", "hompower.power_assoc"),
        ("hompower", "check_criterion_34", "hompower.criterion34"),
        ("poly", "Polynomial.__mul__", "poly.mul"),
        ("specfile", "parse_spec", "specfile.parse"),
        ("specfile", "parse_map", "specfile.parse"),
        ("specfile", "emit_spec", "specfile.emit"),
        ("specfile", "emit_map", "specfile.emit"),
        ("witnesses", "free_poly_witness", "witnesses.free_poly"),
        ("witnesses", "matrix_twist_witness", "witnesses.matrix"),
        ("witnesses", "sl2_witness", "witnesses.sl2"),
        ("witnesses", "r2n_witness", "witnesses.r2n"),
    ]
    for name in ("build_catalog", "heisenberg_p31", "heisenberg_p32", "heisenberg_morphism",
                 "matrix_algebra", "conjugation_morphism", "sl2_linear_poisson",
                 "symplectic_space", "free_poly_shift", "sl2_scaling"):
        fns.append(("catalog", name, "catalog.build"))
    return fns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.counters = {True: defaultdict(float), False: defaultdict(float)}  # keyed by "in setup"
        self.current_job = SETUP_JOB
        self._stack: list[int] = []
        self._check_ids: set[int] = set()
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, span, fn):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        stack, counters_by_phase = self._stack, self.counters
        name_a, start_a, end_a, parent_a, job_a = self.name, self.start, self.end, self.parent, self.job
        clock = time.perf_counter_ns
        count = _COUNTERS.get(span)
        is_check = span in CHECKS
        check_ids = self._check_ids
        if is_check:
            check_ids.add(nid)

        def wrapper(*args, **kwargs):
            idx = len(start_a)
            parent = stack[-1] if stack else -1
            name_a.append(nid)
            parent_a.append(parent)
            job_a.append(self.current_job)
            start_a.append(0)
            end_a.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_a[idx] = t0
                end_a[idx] = t1
            counters = counters_by_phase[self.current_job == SETUP_JOB]
            if count is not None:
                count(counters, args, result)
            if is_check and (parent < 0 or name_a[parent] not in check_ids):
                counters["algebra.witnesses"] += sum(len(leaf.witnesses) for leaf in result.flat())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package_modules):
        """Wrap every target in every module or class namespace binding it."""
        namespaces = [vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__name__", "").startswith("hompoisson")]
        for mod_name, path, span in _targets():
            owner = package_modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                wrapper = self._wrap(span, original)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._restore.append((cls, key, value))
                        setattr(cls, key, wrapper)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(span, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._restore.append((ns, key, value))
                        ns[key] = wrapper

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """{(name, job is setup): (calls, self seconds)} over all spans."""
        n = len(self.start)
        child = [0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out: dict = defaultdict(lambda: [0, 0.0])
        for idx in range(n):
            key = (self.names[self.name[idx]], self.job[idx] == SETUP_JOB)
            cell = out[key]
            cell[0] += 1
            cell[1] += (self.end[idx] - self.start[idx] - child[idx]) / 1e9
        return out

    def extend(self, other_spans, job):
        """Merge spans recorded in another process under one job id."""
        base = len(self.start)
        for name, t0, t1, parent in other_spans["spans"]:
            span = other_spans["names"][name]
            nid = self._name_ids.setdefault(span, len(self.names))
            if nid == len(self.names):
                self.names.append(span)
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.job.append(job)
        for key, value in other_spans["counters"].items():
            self.counters[False][key] += value

    def as_json(self):
        return {
            "names": self.names,
            "spans": [[self.name[i], self.start[i], self.end[i], self.parent[i]]
                      for i in range(len(self.start))],
            "jobs": list(self.job),
            "counters": {k: v for phase in (True, False) for k, v in self.counters[phase].items()},
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_json(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Counts recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _operand_nnz(algebra):
    nnz = len(algebra.mu.items())
    bracket = getattr(algebra, "bracket", None)
    if bracket is not None:
        nnz += len(bracket.items())
    return nnz


def _triple(counters, args, result):
    d = args[0].dim
    counters["algebra.tuples_swept"] += d ** 3
    counters["algebra.tensor_nnz"] += _operand_nnz(args[0])


def _pair(counters, args, result):
    algebra = args[1] if len(args) > 1 and hasattr(args[1], "mu") else args[0]
    d = algebra.dim
    ops = sum(1 for p in result.parts if p.identity != "morphism[twisting]") or 1
    counters["algebra.tuples_swept"] += ops * d ** 2
    counters["algebra.tensor_nnz"] += _operand_nnz(algebra)


def _poly_mul(counters, args, result):
    counters["poly.terms_out"] += len(getattr(result, "terms", ()))


_COUNTERS = {name: _triple for name in TRIPLE_CHECKS}
_COUNTERS.update({name: _pair for name in PAIR_CHECKS})
_COUNTERS["poly.mul"] = _poly_mul


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

ALGEBRA_CHECKS = ("hom_jacobi", "hom_associative", "hom_leibniz", "antisymmetry",
                  "commutative", "multiplicative", "morphism")
CONSTRUCTIONS = ("tensor", "twist", "commutator_poisson", "depolarize", "check_admissible",
                 "check_hom_flexible", "beta_twisting", "verify_isomorphism")
CLI_SUBCOMMANDS = ("check", "twist", "tensor", "polarize", "depolarize", "power", "catalog", "witness")
WITNESS_SCRIPTS = ("free_poly", "matrix", "sl2", "r2n")


def layer_metrics(tracer, rounds, cli_ms, import_ms, overhead_jps):
    """Per-layer metrics for one set-up plus one round of jobs.

    Spans recorded during set-up count once; spans and counters recorded
    during jobs are summed over the traced rounds and divided by their number.
    """
    st = tracer.self_times()

    def per_round(name, field):
        setup = st.get((name, True), (0, 0.0))[field]
        jobs = st.get((name, False), (0, 0.0))[field]
        return setup + jobs / rounds

    def counter(name):
        return tracer.counters[True].get(name, 0.0) + tracer.counters[False].get(name, 0.0) / rounds

    m = {}
    for c in ALGEBRA_CHECKS:
        m[f"algebra.{c}_s"] = (per_round(f"algebra.{c}", 1), "s")
        m[f"algebra.{c}_calls"] = (per_round(f"algebra.{c}", 0), "count")
    tuples, nnz = counter("algebra.tuples_swept"), counter("algebra.tensor_nnz")
    m["algebra.tuples_swept"] = (tuples, "count")
    m["algebra.tensor_nnz"] = (nnz, "count")
    m["algebra.nnz_per_tuple"] = (nnz / tuples if tuples else 0.0, "ratio")
    m["algebra.witnesses"] = (counter("algebra.witnesses"), "count")
    for fn in CONSTRUCTIONS:
        m[f"constructions.{fn}_s"] = (per_round(f"constructions.{fn}", 1), "s")
    for fn in ("compose", "invert", "contract"):
        m[f"linalg.{fn}_calls"] = (per_round(f"linalg.{fn}", 0), "count")
        m[f"linalg.{fn}_s"] = (per_round(f"linalg.{fn}", 1), "s")
    m["linalg.map_outputs_s"] = (per_round("linalg.map_outputs", 1), "s")
    m["hompower.power_assoc_s"] = (per_round("hompower.power_assoc", 1), "s")
    m["hompower.criterion34_s"] = (per_round("hompower.criterion34", 1), "s")
    m["poly.mul_calls"] = (per_round("poly.mul", 0), "count")
    m["poly.mul_s"] = (per_round("poly.mul", 1), "s")
    m["poly.terms_out"] = (counter("poly.terms_out"), "count")
    m["cli.import_ms"] = (import_ms, "ms")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = (cli_ms.get(sub, 0.0), "ms")
    m["specfile.parse_s"] = (per_round("specfile.parse", 1), "s")
    m["specfile.emit_s"] = (per_round("specfile.emit", 1), "s")
    for name in WITNESS_SCRIPTS:
        m[f"witnesses.{name}_s"] = (per_round(f"witnesses.{name}", 1), "s")
    m["catalog.build_s"] = (per_round("catalog.build", 1), "s")
    m["trace.overhead_jobs_per_s"] = (overhead_jps, "1/s")
    return m
