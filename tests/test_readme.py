"""The README's library quick start runs as written, and its command-line
section names what the code declares.

The quick start's ``python`` blocks run in order in one namespace, and each
expression line whose comment starts with a Python literal (``True``,
``False``, ``(0, 0)``) must evaluate to that literal, so the README and the API
cannot drift apart.
"""

import ast
import re
from pathlib import Path

from hompoisson.catalog import CATALOG
from hompoisson.cli import _COMMANDS, WITNESS_SCRIPTS

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM = re.compile(r"#\s*(True|False|None|\([^()]*\))(?![\w.])")


def quick_start_blocks():
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_runs_as_written():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace, checked = {}, []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            claim = CLAIM.search(lines[stmt.end_lineno - 1])
            if isinstance(stmt, ast.Expr) and claim:
                value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
                expected = ast.literal_eval(claim.group(1))
                assert (value, type(value)) == (expected, type(expected)), ast.get_source_segment(block, stmt)
                checked.append(value)
            else:
                exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    # every claimed value sits on an expression line, so none is skipped
    assert len(checked) == sum(bool(CLAIM.search(line)) for block in blocks for line in block.splitlines())
    assert checked == [True] * 5 + [False, (0, 0)]


def test_command_line_section_names_what_the_code_declares():
    text = README.read_text(encoding="utf-8")
    usage = text.split("\n## Command line\n", 1)[1].split("```")[1]
    assert sorted(re.findall(r"(?:^hompoisson|/) (\w+)", usage, re.M)) == sorted(_COMMANDS)
    # `name` or `name` (param `p`...), each catalog entry with its parameter names
    catalog = text.split("Catalog names: ", 1)[1].split(".  ", 1)[0]
    named = {name: (param,) if param else () for name, param in re.findall(r"`([\w-]+)`(?: \(param `(\w+)`)?", catalog)}
    assert named == {name: params for name, (_, params, _) in CATALOG.items()}
    witnesses = text.split("Witness names: ", 1)[1].split(".  ", 1)[0]
    assert sorted(re.findall(r"`([\w-]+)`", witnesses)) == sorted(WITNESS_SCRIPTS)
