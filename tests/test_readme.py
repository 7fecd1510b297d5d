"""The README's library quickstart runs and prints what it says it prints."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_quickstart_expressions_print_their_comments():
    source = quickstart_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        following = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
        if isinstance(stmt, ast.Expr):
            assert following.startswith("# "), f"no expected repr after {code!r}"
            assert repr(eval(code, namespace)) == following[2:], code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 8
