"""The README's library quick start runs as written.

Its ``python`` blocks run in order in one namespace, and each expression line
whose comment starts with a Python literal (``True``, ``False``, ``(0, 0)``)
must evaluate to that literal, so the README and the API cannot drift apart.
"""

import ast
import re
from pathlib import Path

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
