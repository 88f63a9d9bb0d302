"""The documented library API: the README's example runs as written."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_snippet_gives_the_stated_results(monkeypatch):
    # each expression line states its result in a trailing comment
    monkeypatch.chdir(ROOT)
    code = library_snippet()
    lines = code.splitlines()
    env: dict = {}
    got, stated = [], []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            got.append(eval(compile(ast.Expression(node.value), "README.md",
                                    "eval"), env))
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
            stated.append(ast.literal_eval(comment.strip()))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), env)
    assert stated == [[(), ("d",)], True, True]
    assert got == stated
