"""The README's library quickstart runs and prints what it says it prints, and
every command line it shows runs and exits 0."""

import ast
import re
import shlex
from pathlib import Path

from euler_refine.cli import main

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


def command_lines() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert len(lines) == 7
    for argv in lines:
        assert argv[0] == "euler-refine", argv
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv
    assert (tmp_path / "E.txt").read_text().startswith("0 1\n1 1\n2 1\n3 2\n")
