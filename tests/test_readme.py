"""The README's Python snippets run as written and print what they claim."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def run_readme_blocks():
    """Execute every ```python block of README.md in order, in one namespace.

    Returns the value of each top-level expression statement, keyed by its
    source text, so assertions can name the exact README expression.
    """
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python blocks"
    namespace: dict = {}
    values: dict = {}
    for block in blocks:
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values[source] = eval(code, namespace)
            else:
                module = ast.Module([node], type_ignores=[])
                exec(compile(module, "README.md", "exec"), namespace)
    return values


def test_quick_start_values():
    values = run_readme_blocks()
    assert values["ged(p4, c4).total_cost"] == 1.0
    assert values["k_star_ged(p4, c4, k=1).total_cost"] == 5.0
    assert values["geometric_graph_isomorphism(square, rotated).verdict"] == "isomorphic"
    mean, per_class = values["result.mean_accuracy, result.per_class_accuracy"]
    assert 0.0 <= mean <= 100.0
    assert all(0.0 <= a <= 100.0 for a in per_class.values())
