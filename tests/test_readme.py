"""The README's library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
        if comment.startswith('"'):
            assert value == ast.literal_eval(comment)
        else:
            # "0.43233235838..." states the leading digits of the value
            digits = comment.rstrip(".")
            step = 10.0 ** -len(digits.split(".")[1])
            assert float(digits) <= value < float(digits) + step, (digits, value)
        checked.append(comment)
    assert checked == ["0.43233235838...", "0.10856276311...", '"holds"']
