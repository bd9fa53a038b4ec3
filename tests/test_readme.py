import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs_and_shows_its_results():
    # every statement of the quickstart's python block runs; an expression
    # whose comment does not open with a lowercase word (prose) shows its
    # result, which must be the value's repr
    text = README.read_text()
    block = re.search(r"## Library quickstart\n.*?```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip().lstrip("#").strip()
        if comment and not comment[0].islower():
            assert repr(value) == comment, ast.unparse(stmt)
            shown.append(comment)
    assert "True" in shown and "(True, 'fast')" in shown


def test_readme_lists_every_verification_rule():
    from lmss.theorems import RULES

    text = README.read_text()
    section = re.search(r"### Verification rules\n(.*?)\n##", text, re.S).group(1)
    listed = re.findall(r"^- `([^`]+)`", section, re.M)
    assert sorted(listed) == sorted(RULES) and len(set(listed)) == len(listed)
