"""The hybrid switch and the output grid each have one home in
``mechanisms.py``. Only ``MechanismKind.sample_rounds`` calls ``switches``;
only ``MechanismState.__init__`` and ``MechanismState._advance`` set a
mechanism's ``switched``, ``switch_round`` or ``rounds_answered``; and
``bounds.py`` rounds onto the grid through ``mechanisms`` alone, so it never
calls ``np.rint`` or ``np.clip`` or reads ``clip_lo``."""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "adalab").glob("*.py"))
SWITCH_HOME = "MechanismKind.sample_rounds"
FLAG_HOMES = {"MechanismState.__init__", "MechanismState._advance"}
FLAGS = {"switched", "switch_round", "rounds_answered"}
GRID_NAMES = {"rint", "clip", "clip_lo"}


def _qualified_functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions and class methods by ``Class.method`` name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
    return found


def _inside(tree: ast.Module, homes: set[str]) -> set[int]:
    functions = _qualified_functions(tree)
    return {id(node) for name in homes if name in functions for node in ast.walk(functions[name])}


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    return [leaf for target in targets for leaf in ast.walk(target)]


def switch_rule_breaks(source: str, grid_module: bool = False) -> list[str]:
    """Each ``switches`` call outside ``MechanismKind.sample_rounds``, each
    assignment to a mechanism's switch flag or round count outside its two
    homes, and, when ``grid_module``, each ``rint``, ``clip`` or ``clip_lo``
    read, by line."""
    tree = ast.parse(source)
    switch_home, flag_homes = _inside(tree, {SWITCH_HOME}), _inside(tree, FLAG_HOMES)
    breaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in switch_home:
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "switches":
                breaks.append(node)
        if id(node) not in flag_homes:
            breaks += [t for t in _targets(node) if isinstance(t, ast.Attribute) and t.attr in FLAGS]
        if grid_module and isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            if (node.id if isinstance(node, ast.Name) else node.attr) in GRID_NAMES:
                breaks.append(node)
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(breaks, key=lambda n: n.lineno)]


def test_package_keeps_one_home_per_rule():
    breaks = {
        path.name: switch_rule_breaks(path.read_text(encoding="utf-8"), grid_module=path.name == "bounds.py")
        for path in PACKAGE
    }
    assert {name: found for name, found in breaks.items() if found} == {}


def test_detects_switch_tests_and_flag_writes_outside_their_homes():
    source = (
        "class MechanismKind:\n"
        "    def sample_rounds(self, emp, tru, rounds, switched=False):\n"
        "        return 0 if switches(emp, tru, self.epsilon_switch) else rounds\n"
        "class MechanismState:\n"
        "    def __init__(self, kind):\n"
        "        self.switched = False\n"
        "        self.switch_round: int | None = None\n"
        "        self.rounds_answered = 0\n"
        "    def _advance(self, rounds, sample_rounds):\n"
        "        self.switched, self.switch_round = True, 0\n"
        "        self.rounds_answered += rounds\n"
        "def answer(state, query):\n"
        "    if state.switched or mechanisms.switches(emp, tru, eps):\n"
        "        state.switched = True\n"
        "    state.rounds_answered += 1\n"
        "    switched = switched or trips\n"
        "    record['switch_round'] = state.switch_round\n"
        "def sample_rounds(emp, tru):\n"
        "    return switches(emp, tru, 0.1)\n"
    )
    assert switch_rule_breaks(source) == [
        "line 13: mechanisms.switches(emp, tru, eps)",
        "line 14: state.switched",
        "line 15: state.rounds_answered",
        "line 19: switches(emp, tru, 0.1)",
    ]


def test_detects_grid_rounding_in_the_grid_module_only():
    source = (
        "clip_lo, grid_step = noise.clip_lo, noise.grid_step\n"
        "np.clip(values, lo, hi, out=values)\n"
        "index = np.rint(values).astype(np.intp)\n"
        "value = values.clip(0, 1)\n"
        "index = _grid_indices(noise, values) + grid_index(noise, 0.5)\n"
    )
    assert switch_rule_breaks(source) == []
    assert switch_rule_breaks(source, grid_module=True) == [
        "line 1: noise.clip_lo",
        "line 2: np.clip",
        "line 3: np.rint",
        "line 4: values.clip",
    ]
