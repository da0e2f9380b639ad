import json

import pytest

from hompoisson.catalog import heisenberg_morphism, heisenberg_p31, matrix_algebra, sl2_linear_poisson
from hompoisson.constructions import commutator_poisson, twist
from hompoisson.errors import SpecFileError
from hompoisson.linalg import LinearMap
from hompoisson.specfile import (
    ALGEBRA_FORMAT,
    algebra_to_dict,
    emit_map,
    emit_spec,
    parse_map,
    parse_spec,
)


def roundtrip(algebra, path):
    emit_spec(algebra, path)
    return parse_spec(path)


@pytest.mark.parametrize("builder", [
    lambda: heisenberg_p31(1),
    lambda: twist(heisenberg_p31(1), heisenberg_morphism(2, 0, 0, 3)),
    lambda: commutator_poisson(matrix_algebra(2)),
])
def test_roundtrip_is_tensor_exact(builder, tmp_path):
    algebra = builder()
    back = roundtrip(algebra, tmp_path / "a.json")
    assert back.mu == algebra.mu
    assert back.bracket == algebra.bracket
    assert back.alpha == algebra.alpha
    assert back.basis == algebra.basis
    assert back.commutative == algebra.commutative
    again = roundtrip(back, tmp_path / "b.json")
    assert again == back


def test_failed_emit_leaves_an_existing_file_unchanged(tmp_path):
    path = tmp_path / "a.json"
    emit_spec(heisenberg_p31(1), path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        emit_spec(sl2_linear_poisson(), path)
    assert path.read_bytes() == before


def test_single_product_roundtrip(tmp_path):
    algebra = matrix_algebra(2)
    emit_spec(algebra, tmp_path / "m.json")
    back = parse_spec(tmp_path / "m.json")
    assert back.mu == algebra.mu
    assert back.bracket.is_zero()
    assert back.commutative is False


def write(tmp_path, data, name="bad.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def base_doc():
    return {
        "format": ALGEBRA_FORMAT,
        "dim": 2,
        "basis": ["a", "b"],
        "mu": [[1, 2, 1, "1/2"]],
    }


def test_defaults_zero_bracket_identity_alpha(tmp_path):
    alg = parse_spec(write(tmp_path, base_doc()))
    assert alg.bracket.is_zero()
    assert alg.alpha == LinearMap.identity(2)
    assert alg.mu.entry(0, 1, 0) == parse_spec(write(tmp_path, base_doc())).mu.entry(0, 1, 0)


def test_index_out_of_range(tmp_path):
    doc = base_doc()
    doc["mu"] = [[1, 2, 3, "1"]]
    with pytest.raises(SpecFileError, match="out of range"):
        parse_spec(write(tmp_path, doc))
    doc["mu"] = [[0, 1, 1, "1"]]
    with pytest.raises(SpecFileError, match="out of range"):
        parse_spec(write(tmp_path, doc))


def test_decimal_coefficients_rejected(tmp_path):
    doc = base_doc()
    doc["mu"] = [[1, 1, 1, 0.5]]
    with pytest.raises(SpecFileError, match="exact rationals"):
        parse_spec(write(tmp_path, doc))
    doc["mu"] = [[1, 1, 1, "0.5"]]
    with pytest.raises(SpecFileError, match="bad rational"):
        parse_spec(write(tmp_path, doc))
    doc["mu"] = [[1, 1, 1, "1/0"]]
    with pytest.raises(SpecFileError, match=r"bad rational '1/0': zero denominator in '1/0'"):
        parse_spec(write(tmp_path, doc))


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "hom-poisson-algebra/1",\n  "dim": }')
    with pytest.raises(SpecFileError, match="line 2"):
        parse_spec(path)


def test_missing_file(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read"):
        parse_spec(tmp_path / "absent.json")


def test_format_and_field_validation(tmp_path):
    doc = base_doc()
    doc["format"] = "something/9"
    with pytest.raises(SpecFileError, match="format"):
        parse_spec(write(tmp_path, doc))
    doc = base_doc()
    del doc["mu"]
    with pytest.raises(SpecFileError, match="mu"):
        parse_spec(write(tmp_path, doc))
    doc = base_doc()
    doc["basis"] = ["a", "a"]
    with pytest.raises(SpecFileError, match="unique"):
        parse_spec(write(tmp_path, doc))
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(SpecFileError, match="unknown"):
        parse_spec(write(tmp_path, doc))
    doc = base_doc()
    doc["mu"] = [[1, 1, 1, "1"], [1, 1, 1, "2"]]
    with pytest.raises(SpecFileError, match="duplicate"):
        parse_spec(write(tmp_path, doc))
    doc = base_doc()
    doc["alpha"] = [["1", "0"]]
    with pytest.raises(SpecFileError, match="row-major"):
        parse_spec(write(tmp_path, doc))


def test_rationals_serialize_as_fraction_strings():
    data = algebra_to_dict(heisenberg_p31(1))
    for quad in data["mu"] + data["bracket"]:
        assert isinstance(quad[3], str)
    assert all(isinstance(v, str) for row in data["alpha"] for v in row)


def test_map_roundtrip_and_errors(tmp_path):
    m = heisenberg_morphism(2, 0, 0, 3, 1, "1/2")
    path = tmp_path / "map.json"
    emit_map(m, path)
    assert parse_map(path) == m
    bad = tmp_path / "badmap.json"
    bad.write_text(json.dumps({"format": "linear-map/1", "dim": 2, "matrix": [["1", "0"]]}))
    with pytest.raises(SpecFileError, match="row-major"):
        parse_map(bad)
    bad.write_text(json.dumps({"format": "linear-map/2", "dim": 2, "matrix": []}))
    with pytest.raises(SpecFileError, match="format"):
        parse_map(bad)
    bad.write_text(json.dumps({"format": "linear-map/1", "dim": 1, "matrix": [["1"]], "junk": 1}))
    with pytest.raises(SpecFileError, match=r"badmap\.json: junk: unknown field\(s\)"):
        parse_map(bad)


def test_bool_dim_rejected(tmp_path):
    doc = base_doc()
    doc.update(dim=True, basis=["a"], mu=[])
    with pytest.raises(SpecFileError, match="dim: must be a positive integer, got True"):
        parse_spec(write(tmp_path, doc))
    path = write(tmp_path, {"format": "linear-map/1", "dim": True, "matrix": [["1"]]}, "map.json")
    with pytest.raises(SpecFileError, match="dim: must be a positive integer, got True"):
        parse_map(path)
