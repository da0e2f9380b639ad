"""The input contract under mutation: whatever an algebra or map file holds,
``check``, ``twist``, ``polarize`` and ``power`` exit 0, 1 or 2 and no
exception escapes.

Each example takes a valid dim-2 or dim-3 algebra file and a map file of the
same dimension, and breaks one of them: a field or element is dropped, or
replaced by a bool, float, null, string, integer, empty container, an integer
literal of 5000 digits or a deeply nested list, or non-UTF-8 bytes are spliced
into the file.
"""

import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem

from hypothesis import given, settings
from hypothesis import strategies as st

from hompoisson.catalog import heisenberg_morphism, heisenberg_p31
from hompoisson.cli import run_command
from hompoisson.constructions import depolarize
from hompoisson.specfile import MAP_FORMAT, algebra_to_dict

DIM2 = {
    "format": "hom-poisson-algebra/1",
    "dim": 2,
    "basis": ["x", "y"],
    "mu": [[1, 1, 1, "1"], [1, 2, 2, "1"], [2, 1, 2, "1"]],
    "alpha": [["1", "0"], ["0", "2"]],
    "commutative": True,
}


def _map_doc(m):
    return {"format": MAP_FORMAT, "dim": m.dim, "matrix": [[str(q) for q in row] for row in m.rows]}


# (algebra document, map document of the same dimension)
CASES = [
    (algebra_to_dict(heisenberg_p31(1)), _map_doc(heisenberg_morphism(2, 0, 0, 3))),
    (algebra_to_dict(depolarize(heisenberg_p31(2))), _map_doc(heisenberg_morphism(1, 1, 0, 1))),
    (DIM2, {"format": MAP_FORMAT, "dim": 2, "matrix": [["1", "0"], ["0", "2"]]}),
]
COMMANDS = [
    ["check", "{alg}"],
    ["twist", "{alg}", "--by", "{map}"],
    ["polarize", "{alg}"],
    ["power", "{alg}", "--max-n", "3"],
]
VALUES = st.one_of(
    st.booleans(), st.none(), st.floats(), st.integers(), st.text(max_size=4),
    st.sampled_from([[], {}, "1/0", [1, 2, 3, "1"]]),
)
# placeholder for a value written straight into the file text
RAW = "\x00raw\x00"


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutated_bytes(data, doc):
    raw = json.dumps(doc).encode()
    op = data.draw(st.sampled_from(["drop", "retype", "deep", "long", "bytes"]))
    if op == "bytes":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + raw[at:]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if op == "drop" and not path:
        return b""
    value = data.draw(VALUES) if op == "retype" else RAW
    doc = copy.deepcopy(doc)
    if not path:
        doc = value
    elif op == "drop":
        del reduce(getitem, path[:-1], doc)[path[-1]]
    else:
        reduce(getitem, path[:-1], doc)[path[-1]] = value
    if op == "deep":
        depth = data.draw(st.integers(1, 100_000))
        literal = "[" * depth + "]" * depth
    else:
        literal = "9" * 5000
    return json.dumps(doc).replace(json.dumps(RAW), literal).encode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_files_exit_with_a_code(tmp_path_factory, data):
    alg_doc, map_doc = data.draw(st.sampled_from(CASES))
    argv = data.draw(st.sampled_from(COMMANDS))
    docs = {"alg": alg_doc, "map": map_doc}
    target = data.draw(st.sampled_from(["alg", "map"] if "{map}" in argv else ["alg"]))
    workdir = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in docs.items():
        paths[name] = workdir / f"{name}.json"
        raw = _mutated_bytes(data, doc) if name == target else json.dumps(doc).encode()
        paths[name].write_bytes(raw)
    argv = [part.format(**{k: str(v) for k, v in paths.items()}) for part in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 1, 2)
