"""The harness builds every mechanism in ``_mechanism``: no other harness
code calls ``MechanismState`` or derives a ``mech_noise_*`` stream, so what
each mechanism kind reads is decided by ``MechanismKind.reads`` alone."""

import ast
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "src" / "adalab" / "harness.py"
BUILDER = "_mechanism"


def _builds_a_mechanism(node: ast.Call) -> bool:
    """A ``MechanismState(...)`` call, or a call given a ``mech_noise_*`` stream name."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name == "MechanismState":
        return True
    return any(
        isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value.startswith("mech_noise_")
        for arg in [*node.args, *(kw.value for kw in node.keywords)]
    )


def mechanism_rule_breaks(source: str) -> list[str]:
    """Each call that builds a mechanism or derives its noise stream outside
    ``_mechanism``, by line."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for builder in tree.body
        if isinstance(builder, ast.FunctionDef) and builder.name == BUILDER
        for node in ast.walk(builder)
    }
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside and _builds_a_mechanism(node)
    ]


def test_harness_builds_mechanisms_in_one_place():
    assert mechanism_rule_breaks(HARNESS.read_text(encoding="utf-8")) == []


def test_detects_builds_and_streams_outside_the_builder():
    source = (
        "def _mechanism(kind):\n"
        "    return MechanismState(kind, real_rng=derive_rng(m, t, 'mech_noise_real'))\n"
        "def _trial(kind):\n"
        "    mech = MechanismState(kind, sample=s)\n"
        "    seed = derive_entropy(m, t, stream='mech_noise_oracle')\n"
        "    rng = derive_rng(m, t, 'attack_p')\n"
        "    return mechanisms.MechanismState(kind)\n"
    )
    assert mechanism_rule_breaks(source) == [
        "line 4: MechanismState(kind, sample=s)",
        "line 5: derive_entropy(m, t, stream='mech_noise_oracle')",
        "line 7: mechanisms.MechanismState(kind)",
    ]
