"""The harness builds each run's noise spec, mechanism kinds and instance
once, when it resolves the run: only ``_resolve_params``, the kinds'
resolvers (each ``resolve=`` of ``KINDS``) and the builders themselves call
a builder, so every trial reads the ``Run`` its run resolved and builds none
itself. ``_resolve_params`` holds only the steps every kind shares, so it
compares the kind name with no string literal: a kind's own rules live in
its resolver."""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "src" / "adalab" / "harness.py"
RESOLVER = "_resolve_params"
BUILDERS = {
    "NoiseSpec",
    "MechanismKind",
    "_mechanism_kind",
    "HardInstance",
    "build_hard_instance",
    "BlockInstance",
    "build_block_instance",
    "_two_sample_instance",
    "_noise_spec",
}


def _name(node: ast.expr) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _builds_a_run_input(node: ast.Call) -> bool:
    """A call of a builder, or of a named constructor such as ``MechanismKind.real``."""
    func = node.func
    return _name(func) in BUILDERS or (isinstance(func, ast.Attribute) and _name(func.value) == "MechanismKind")


def _compares_the_kind_to_a_literal(node: ast.Compare) -> bool:
    """``kind == "llr"``, ``config.kind in ("attack", "positive_accuracy")`` and the like."""
    operands = [node.left, *node.comparators]
    literals = [item for o in operands for item in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
    return any(_name(o) == "kind" for o in operands) and any(
        isinstance(o, ast.Constant) and isinstance(o.value, str) for o in literals
    )


def resolve_rule_breaks(source: str) -> list[str]:
    """Each call that builds a run's noise spec, mechanism kind or instance
    outside ``_resolve_params``, the kinds' resolvers and the builders, and
    each comparison of the kind name with a string literal in
    ``_resolve_params``, by line."""
    tree = ast.parse(source)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    resolvers = {
        _name(node.value) for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg == "resolve"
    }
    allowed = {RESOLVER} | resolvers | BUILDERS
    inside = {id(node) for function in functions if function.name in allowed for node in ast.walk(function)}
    builds = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside and _builds_a_run_input(node)
    ]
    branches = [
        node
        for function in functions
        if function.name == RESOLVER
        for node in ast.walk(function)
        if isinstance(node, ast.Compare) and _compares_the_kind_to_a_literal(node)
    ]
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(builds + branches, key=lambda n: n.lineno)]


def test_harness_builds_run_inputs_once():
    assert resolve_rule_breaks(HARNESS.read_text(encoding="utf-8")) == []


def test_detects_builds_outside_the_resolver():
    source = (
        "def _resolve_params(config):\n"
        "    kinds = tuple(MechanismKind(name, None) for name in names)\n"
        "    return Run(params, NoiseSpec(scale=0.1), kinds, _two_sample_instance(8, 8))\n"
        "def _trial(run):\n"
        "    noise = NoiseSpec(**fields)\n"
        "    kind = mechanisms.MechanismKind.hybrid(0.25)\n"
        "    inst = build_hard_instance(eps, gamma, n)\n"
        "    blocks = attack.BlockInstance(gamma, n)\n"
        "    held, dist = _two_sample_instance(n, ones)\n"
        "    real = _mechanism_kind(params, 'real'), MechanismKind.real()\n"
        "    return run.noise.variance(), NoiseSpec.family, _mechanism(run.kinds[0], run.noise)\n"
    )
    assert resolve_rule_breaks(source) == [
        "line 5: NoiseSpec(**fields)",
        "line 6: mechanisms.MechanismKind.hybrid(0.25)",
        "line 7: build_hard_instance(eps, gamma, n)",
        "line 8: attack.BlockInstance(gamma, n)",
        "line 9: _two_sample_instance(n, ones)",
        "line 10: _mechanism_kind(params, 'real')",
        "line 10: MechanismKind.real()",
    ]


def test_allows_builds_in_the_kinds_resolvers_and_the_builders():
    source = (
        "def _noise_spec(params):\n"
        "    return NoiseSpec(**params)\n"
        "def _resolve_llr(params):\n"
        "    return ('hybrid',), _two_sample_instance(8, 4), _noise_spec(params)\n"
        "def _resolve_unlisted(params):\n"
        "    return ('real',), build_block_instance(0.1, 30)\n"
        "def _trial(run):\n"
        "    return _noise_spec(run.params)\n"
        "KINDS = {'llr': ExperimentKind('llr', (), resolve=_resolve_llr)}\n"
    )
    assert resolve_rule_breaks(source) == [
        "line 6: build_block_instance(0.1, 30)",
        "line 8: _noise_spec(run.params)",
    ]


def test_detects_kind_branches_in_the_resolver():
    source = (
        "def _resolve_params(config):\n"
        "    kind = config.kind\n"
        "    if kind == 'bounds_table':\n"
        "        return Run(params, NoiseSpec(), (), None)\n"
        "    if 'llr' != config.kind or kind in ('attack', 'positive_accuracy'):\n"
        "        pass\n"
        "    ok = kind == other, mode == 'negative', name == 'hybrid'\n"
        "def _resolve_attack(params):\n"
        "    if params['mechanism'] == 'real' and kind == 'attack':\n"
        "        pass\n"
    )
    assert resolve_rule_breaks(source) == [
        "line 3: kind == 'bounds_table'",
        "line 5: 'llr' != config.kind",
        "line 5: kind in ('attack', 'positive_accuracy')",
    ]
