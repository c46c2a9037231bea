"""The harness reads its experiment params as ``_resolve_params`` leaves
them: no cast of a param and no lookup with a default, so each param's
type and default live in ``harness.KINDS`` alone. Defaults derived from
other params are set in the kind's resolver, its ``KINDS`` entry's
``resolve``."""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "src" / "adalab" / "harness.py"


def _is_params(node: ast.AST) -> bool:
    """``params``, or the ``params`` of a resolved run such as ``run.params``."""
    return (isinstance(node, ast.Name) and node.id == "params") or (
        isinstance(node, ast.Attribute) and node.attr == "params"
    )


def _reads_a_param(node: ast.AST) -> bool:
    """``params[...]``, ``params.get(...)``, or either on ``<x>.params``."""
    if isinstance(node, ast.Subscript):
        return _is_params(node.value)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and _is_params(node.func.value)


def param_rule_breaks(source: str) -> list[str]:
    """Each ``int(...)`` or ``float(...)`` of a param and each ``params.get``
    with a default, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        cast = isinstance(func, ast.Name) and func.id in ("int", "float") and any(map(_reads_a_param, node.args))
        fallback = (
            isinstance(func, ast.Attribute)
            and _is_params(func.value)
            and func.attr == "get"
            and len(node.args) + len(node.keywords) > 1
        )
        if cast or fallback:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_harness_reads_params_as_resolved():
    assert param_rule_breaks(HARNESS.read_text(encoding="utf-8")) == []


def test_detects_casts_and_fallbacks():
    source = (
        "n = int(params['n'])\n"
        "b = float(params.get('noise_scale'))\n"
        "beta = params.get('beta', 0.1)\n"
        "n = params.get('n', None)\n"
        "ok = params['k'], params.get('constant'), int(config.trials), float(eps), other.get('x', 1)\n"
        "k, beta = int(run.params['k']), run.params.get('beta', 0.1)\n"
    )
    assert param_rule_breaks(source) == [
        "line 1: int(params['n'])",
        "line 2: float(params.get('noise_scale'))",
        "line 3: params.get('beta', 0.1)",
        "line 4: params.get('n', None)",
        "line 6: int(run.params['k'])",
        "line 6: run.params.get('beta', 0.1)",
    ]
