"""The README's library and CLI examples run and print what their comments say."""

import ast
import math
import re
import shlex
from pathlib import Path

from meanmax.cli import run_command

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


def cli_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) of each example under "## CLI", the "meanmax" dropped."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, comment = chunk.replace("\\\n", " ").split("\n# ")
        examples.append((shlex.split(command)[1:], comment))
    return examples


def test_cli_mean_example(capsys):
    argv, comment = cli_examples()[0]
    assert comment == "0.4323323584"
    assert run_command(argv) == 0
    assert capsys.readouterr().out == "0.4323323584\n"


def test_cli_q_from_d_example(capsys):
    argv, comment = cli_examples()[1]
    assert comment == "25 CSV rows of R/ln R"
    assert run_command(argv) == 0
    rows = [[float(v) for v in line.split(",")] for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 25
    for R, Q in rows:
        assert math.isclose(Q, R / math.log(R), rel_tol=1e-8)


def test_cli_f1_example(capsys):
    argv, comment = cli_examples()[2]
    assert comment == "key-value report; exit 0 because the property holds"
    assert run_command(argv) == 0
    assert "verdict: holds" in capsys.readouterr().out.splitlines()
