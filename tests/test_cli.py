import dataclasses
import json
from fractions import Fraction

import pytest

from hompoisson import witnesses
from hompoisson.algebra import HomPoissonAlgebra
from hompoisson.catalog import heisenberg_morphism, heisenberg_p31
from hompoisson.cli import WITNESS_SCRIPTS, run_command
from hompoisson.constructions import depolarize, tensor, twist
from hompoisson.linalg import LinearMap, Trilinear
from hompoisson.specfile import algebra_to_dict, emit_map, emit_spec, parse_spec


@pytest.fixture
def p31_file(tmp_path):
    path = tmp_path / "p31.json"
    emit_spec(heisenberg_p31(1), path)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    # corrupt antisymmetry: add a bracket diagonal entry
    algebra = heisenberg_p31(1)
    import dataclasses
    bad = dataclasses.replace(algebra, bracket=algebra.bracket.with_entry(0, 0, 2, 1))
    path = tmp_path / "bad.json"
    emit_spec(bad, path)
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_pass_and_fail_exit_codes(capsys, p31_file, broken_file):
    assert run_command(["check", p31_file]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert run_command(["check", broken_file]) == 1
    out = capsys.readouterr().out
    assert "FAIL  antisymmetry" in out and "witness" in out


def test_check_json_schema_matches_exit(capsys, p31_file, broken_file):
    code, payload = run_json(capsys, ["check", p31_file])
    assert code == 0 and payload["passed"] is True
    assert {r["identity"] for r in payload["reports"]} == {
        "antisymmetry", "hom-jacobi", "hom-associative", "hom-leibniz", "commutative"}
    for r in payload["reports"]:
        assert set(r) == {"identity", "passed", "witnesses"}
    code, payload = run_json(capsys, ["check", broken_file])
    assert code == 1 and payload["passed"] is False
    failed = [r for r in payload["reports"] if not r["passed"]]
    assert failed and all(r["witnesses"] for r in failed)
    w = failed[0]["witnesses"][0]
    assert set(w) == {"indices", "residual"}


def test_text_and_json_report_same_outcomes(capsys, broken_file):
    run_command(["check", broken_file])
    text = capsys.readouterr().out
    text_fail = {line.split()[1] for line in text.splitlines() if line.startswith("FAIL")}
    _, payload = run_json(capsys, ["check", broken_file])
    json_fail = {r["identity"] for r in payload["reports"] if not r["passed"]}
    assert text_fail == json_fail


def test_usage_and_io_errors(capsys, tmp_path):
    assert run_command(["check", str(tmp_path / "missing.json")]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command([]) == 2
    assert run_command(["catalog", "unknown-name"]) == 2
    assert run_command(["catalog", "heisenberg-p31", "--param", "zeta"]) == 2
    assert run_command(["catalog", "matrix", "--param", "n=1/0"]) == 2
    assert "--param 'n=1/0': zero denominator in '1/0'" in capsys.readouterr().err
    assert run_command(["catalog", "matrix", "--param", "n=2", "--param", " n =3"]) == 2
    assert "--param 'n' given more than once" in capsys.readouterr().err
    assert run_command(["catalog", "matrix", "--param", "n=100000"]) == 2
    assert "n^3 = 1000000000000000 structure constants (budget: 1000000)" in capsys.readouterr().err
    assert run_command(["catalog", "matrix", "--param", "n=60"]) == 2
    assert "2n^4 = 25920000 products (budget: 2000000)" in capsys.readouterr().err
    for n in ("0", "-1"):
        assert run_command(["catalog", "symplectic", "--param", f"n={n}"]) == 2
        assert f"parameter n (half-dimension) must be >= 1, got {n}" in capsys.readouterr().err
    assert run_command(["catalog", "symplectic", "--param", "n=1000000"]) == 2
    assert "(2n)^3 = 8000000000000000000 bracket terms (budget: 1000000)" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_command(["check", str(bad)]) == 2
    # decoding failures: non-UTF-8 bytes, an over-long integer literal, deep nesting
    for raw, message in ((b"\xff\xfe{}", "not UTF-8 text"),
                         (b'{"dim": ' + b"1" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
                         (b"[" * 100_000, "invalid JSON: nested too deeply")):
        bad.write_bytes(raw)
        capsys.readouterr()
        assert run_command(["check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")


def test_input_guards(capsys, p31_file, tmp_path):
    path = tmp_path / "guarded.json"
    spec = algebra_to_dict(heisenberg_p31(1))
    mapfile = tmp_path / "map.json"
    emit_map(LinearMap.identity(2), mapfile)
    cases = [
        ([], ["check", str(path)], "top level must be a JSON object"),
        ({**spec, "mu": {}}, ["check", str(path)],
         "mu: expected a list of (i, j, k, coefficient) quadruples"),
        ({**spec, "commutative": "yes"}, ["check", str(path)], "commutative: must be a boolean"),
        ({"format": "linear-map/1", "dim": 2}, ["twist", p31_file, "--by", str(path)], "matrix: missing matrix"),
        (None, ["twist", p31_file, "--by", str(mapfile)], f"{mapfile}: dim: map dim 2 != algebra dim 3"),
        (None, ["power", p31_file, "--max-n", "1"], "--max-n must be >= 2"),
    ]
    for data, argv, message in cases:
        if data is not None:
            path.write_text(json.dumps(data))
            message = f"{path}: {message}"
        assert run_command(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_twist_subcommand(capsys, p31_file, tmp_path):
    mapfile = tmp_path / "alpha.json"
    emit_map(heisenberg_morphism(2, 0, 0, 3), mapfile)
    out_path = tmp_path / "twisted.json"
    code = run_command(["twist", p31_file, "--by", str(mapfile), "--out", str(out_path)])
    assert code == 0
    twisted = parse_spec(out_path)
    expected = twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3))
    assert twisted.mu == expected.mu and twisted.alpha == expected.alpha
    capsys.readouterr()
    badmap = tmp_path / "bad.json"
    emit_map(heisenberg_morphism(1, 1, 1, 1), badmap)
    assert run_command(["twist", p31_file, "--by", str(badmap)]) == 1


def test_tensor_subcommand(capsys, p31_file, tmp_path):
    out_path = tmp_path / "t.json"
    assert run_command(["tensor", p31_file, p31_file, "--out", str(out_path)]) == 0
    prod = parse_spec(out_path)
    assert prod.dim == 9
    # non-commutative input: claim commutativity falsely in the file
    capsys.readouterr()
    import dataclasses
    lying = dataclasses.replace(heisenberg_p31(1),
                                mu=Trilinear(3, {(0, 1, 2): 1}), commutative=True)
    lying_path = tmp_path / "lying.json"
    emit_spec(lying, lying_path)
    assert run_command(["tensor", str(lying_path), p31_file]) == 1
    plain = dataclasses.replace(heisenberg_p31(1), commutative=False)
    plain_path = tmp_path / "plain.json"
    emit_spec(plain, plain_path)
    assert run_command(["tensor", str(plain_path), p31_file]) == 2


def test_check_commutator_matrix_spec(tmp_path):
    from hompoisson.catalog import matrix_algebra
    from hompoisson.constructions import commutator_poisson
    path = tmp_path / "m2.json"
    emit_spec(commutator_poisson(matrix_algebra(2)), path)
    assert run_command(["check", str(path)]) == 0


def test_polarize_depolarize_power_pipeline(capsys, p31_file, tmp_path):
    dep_path = tmp_path / "dep.json"
    assert run_command(["depolarize", p31_file, "--out", str(dep_path)]) == 0
    assert run_command(["power", str(dep_path), "--max-n", "6"]) == 0
    # same pipeline through a twist: twist, depolarize, power
    mapfile = tmp_path / "alpha.json"
    emit_map(heisenberg_morphism(2, 0, 0, 3), mapfile)
    tw_path = tmp_path / "tw.json"
    assert run_command(["twist", p31_file, "--by", str(mapfile), "--out", str(tw_path)]) == 0
    dep_tw = tmp_path / "deptw.json"
    assert run_command(["depolarize", str(tw_path), "--out", str(dep_tw)]) == 0
    assert run_command(["power", str(dep_tw), "--max-n", "6"]) == 0
    pol_path = tmp_path / "pol.json"
    assert run_command(["polarize", str(dep_path), "--out", str(pol_path)]) == 0
    back = parse_spec(pol_path)
    assert back.bracket == heisenberg_p31(1).bracket
    assert back.mu == heisenberg_p31(1).mu
    # polarize and power refuse files that still carry a bracket
    assert run_command(["polarize", p31_file]) == 2
    assert run_command(["power", p31_file]) == 2
    # --max-n 2 checks criterion-34 on a multiplicative algebra, and refuses
    # to run no check at all on one that is not
    capsys.readouterr()
    code, data = run_json(capsys, ["power", str(dep_path), "--max-n", "2"])
    assert code == 0 and [r["identity"] for r in data["reports"]] == ["criterion-34"]
    nonmult = tmp_path / "nonmult.json"
    emit_spec(HomPoissonAlgebra(("a", "b"), Trilinear.zero(2), Trilinear(2, {(0, 0, 1): 1}), LinearMap.diagonal([1, 2])),
              nonmult)
    for fmt in ("text", "json"):
        assert run_command(["power", str(nonmult), "--max-n", "2", "--format", fmt]) == 2
        assert "error: --max-n 2 runs no check" in capsys.readouterr().err


def test_power_refuses_a_dim_9_algebra(capsys, tmp_path):
    path = tmp_path / "big.json"
    emit_spec(depolarize(tensor(heisenberg_p31(1), heisenberg_p31(1))), path)
    for fmt in ("text", "json"):
        assert run_command(["power", str(path), "--format", fmt]) == 2
    assert "refused" in capsys.readouterr().err


def _power_witnesses(capsys, tmp_path, mu):
    import dataclasses
    bad = dataclasses.replace(heisenberg_p31(0), bracket=Trilinear.zero(3), mu=mu, commutative=False)
    path = tmp_path / "assocfail.json"
    emit_spec(bad, path)
    assert run_command(["power", str(path), "--max-n", "3"]) == 1
    capsys.readouterr()
    code, data = run_json(capsys, ["power", str(path), "--max-n", "3"])
    assert code == 1 and data["passed"] is False
    return [(r["identity"], [(w["indices"], w["residual"]) for w in r["witnesses"]])
            for r in data["reports"]]


def test_power_reports_failure(capsys, tmp_path):
    # exact residual strings: signs, a zero entry and unit coefficients
    residual = ["-t1*t2^2", "0", "t2^2*t3"]
    assert _power_witnesses(capsys, tmp_path, Trilinear(3, {(0, 1, 2): 1, (1, 2, 0): 1})) == [
        ("criterion-34", [([3], residual)]),
        ("hom-power-associative[3]", [([3, 2], residual)]),
    ]
    # rational structure constants: coefficient prefixes and a two-term entry
    residual = ["3/2*t1*t2^2", "0", "1/3*t2^3 - 3/2*t2^2*t3"]
    mu = Trilinear(3, {(0, 1, 2): Fraction(1, 2), (1, 2, 0): -3, (1, 1, 0): Fraction(2, 3)})
    assert _power_witnesses(capsys, tmp_path, mu) == [
        ("criterion-34", [([3], residual)]),
        ("hom-power-associative[3]", [([3, 2], residual)]),
    ]


def test_power_text_names_witnesses_by_index(capsys, tmp_path):
    # the indices of a power report are (n, i) exponents, never basis vectors
    mu = Trilinear(5, {(0, 1, 2): 1, (1, 2, 0): 1, (0, 0, 1): 1, (2, 0, 3): 1, (3, 3, 4): 1})
    algebra = HomPoissonAlgebra(basis=tuple("abcde"), bracket=Trilinear.zero(5), mu=mu,
                                alpha=LinearMap.identity(5))
    path = tmp_path / "dim5.json"
    emit_spec(algebra, path)
    assert run_command(["power", str(path), "--max-n", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines if line.startswith("    witness")] == [
        "witness (3)", "witness (4)", "witness (3, 2)", "witness (4, 2)", "witness (4, 3)",
        "witness (5, 2)", "witness (5, 3)", "witness (5, 4)"]


def test_catalog_subcommand(capsys, tmp_path):
    assert run_command(["catalog", "heisenberg-p31", "--param", "zeta=1/2"]) == 0
    assert run_command(["catalog", "sl2-linear-poisson"]) == 0
    assert run_command(["catalog", "free-poly"]) == 0
    out_path = tmp_path / "cat.json"
    assert run_command(["catalog", "heisenberg-p32", "--out", str(out_path)]) == 0
    assert parse_spec(out_path).mu.entry(0, 0, 2) == 1
    capsys.readouterr()
    assert run_command(["catalog", "symplectic", "--out", str(tmp_path / "s.json")]) == 2


def test_witness_free_poly(capsys):
    assert run_command(["witness", "free-poly"]) == 0
    out = capsys.readouterr().out
    assert "X + 2" in out and "RESULT: PASS" in out


def test_witness_sl2_and_r2n_json(capsys):
    code, payload = run_json(capsys, ["witness", "sl2"])
    assert code == 0 and payload["passed"]
    assert any(c["residual"] == "2*e*h^2" for c in payload["cases"])
    code, payload = run_json(capsys, ["witness", "r2n"])
    assert code == 0
    assert payload["cases"][0]["trace"] == "2"


def test_witness_matrix(capsys):
    assert run_command(["witness", "matrix"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_witness_unknown(capsys):
    assert run_command(["witness", "nothing"]) == 2


REPLAY_RESULTS = {
    "free-poly": witnesses.FreePolyResult,
    "matrix": witnesses.MatrixTwistResult,
    "sl2": witnesses.Sl2Result,
    "r2n": witnesses.TranslationResult,
    "heisenberg-rigidity": witnesses.RigidityResult,
}


def _small_rigidity(monkeypatch, failures=()):
    # the full replay takes seconds, and acceptance criterion 7 runs it
    case = witnesses.RigidityCase("x2-product", 1, 2, 3, failures)
    result = witnesses.RigidityResult((case,), not failures)
    monkeypatch.setattr(witnesses, "heisenberg_rigidity_replay", lambda: result)


@pytest.mark.parametrize("name", sorted(WITNESS_SCRIPTS))
def test_witness_output_is_the_result_dataclass(capsys, monkeypatch, name):
    if name == "heisenberg-rigidity":
        _small_rigidity(monkeypatch)
    result_class = REPLAY_RESULTS[name]
    code, payload = run_json(capsys, ["witness", name])
    assert code == 0
    assert list(payload) == ["command", "name", "passed"] + [
        f.name for f in dataclasses.fields(result_class) if f.name != "passed"]
    assert (payload["command"], payload["name"], payload["passed"]) == ("witness", name, True)
    assert run_command(["witness", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == result_class.__doc__.splitlines()[0]
    assert lines[-1] == "RESULT: PASS"


def test_witness_case_lines_and_failure(capsys, monkeypatch):
    failure = ((1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2)))
    _small_rigidity(monkeypatch, (failure,))
    assert run_command(["witness", "heisenberg-rigidity"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "cases[0]: algebra = x2-product, trivial = 1, isomorphic = 2, skipped = 3, "
        "failures = (((1, 0, 0), (0, 1, 0), (0, 0, 1/2)))",
        "RESULT: FAIL"]
    code, payload = run_json(capsys, ["witness", "heisenberg-rigidity"])
    assert code == 1 and payload["passed"] is False
    assert payload["cases"] == [{"algebra": "x2-product", "trivial": 1, "isomorphic": 2,
                                 "skipped": 3, "failures": [[[1, 0, 0], [0, 1, 0], [0, 0, "1/2"]]]}]


def test_witness_matrix_without_a_witness_fails(capsys, monkeypatch):
    monkeypatch.setattr(witnesses, "MATRIX_ENTRIES", (0,))
    result = witnesses.matrix_twist_witness()
    assert not result.passed and result.matrix == () and result.residual.is_zero()
    code, payload = run_json(capsys, ["witness", "matrix"])
    assert code == 1 and payload["passed"] is False
    assert (payload["matrix"], payload["residual"], payload["oracle"]) == ([], ["0"] * 4, [])
