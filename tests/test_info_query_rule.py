"""Info-query generation has one home in ``attack.py``: only
``draw_info_tables`` draws uniform doubles (a ``.random(`` call) anywhere in
the package, and only ``make_info_query`` turns a table into override ids (a
``nonzero`` or ``flatnonzero`` call) in ``attack.py``. So the per-round
reference, the array attack, the positive trial and ``InfoRoundAnalyst``
all issue the queries one draw and one table-to-query rule give."""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parent.parent / "src" / "adalab").glob("*.py"))
DRAW_HOME = "draw_info_tables"
QUERY_HOME = "make_info_query"
QUERY_NAMES = {"nonzero", "flatnonzero"}


def _inside(tree: ast.Module, home: str) -> set[int]:
    """Ids of every node in the module-level function ``home``."""
    return {
        id(node)
        for item in tree.body
        if isinstance(item, ast.FunctionDef) and item.name == home
        for node in ast.walk(item)
    }


def info_query_rule_breaks(source: str, attack_module: bool = False) -> list[str]:
    """Each ``.random(`` call outside ``draw_info_tables`` and, when
    ``attack_module``, each ``nonzero`` or ``flatnonzero`` call outside
    ``make_info_query``, by line. ``.random(`` counts everywhere; its home
    exists only in the attack module."""
    tree = ast.parse(source)
    draw_home = _inside(tree, DRAW_HOME) if attack_module else set()
    query_home = _inside(tree, QUERY_HOME)
    breaks = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(func, ast.Attribute) and name == "random" and id(node) not in draw_home:
            breaks.append(node)
        elif attack_module and name in QUERY_NAMES and id(node) not in query_home:
            breaks.append(node)
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(breaks, key=lambda n: n.lineno)]


def test_package_keeps_one_home_for_info_queries():
    breaks = {
        path.name: info_query_rule_breaks(path.read_text(encoding="utf-8"), attack_module=path.name == "attack.py")
        for path in PACKAGE
    }
    assert {name: found for name, found in breaks.items() if found} == {}


def test_detects_draws_and_table_reads_outside_their_homes():
    source = (
        "def draw_info_tables(inst, rng_p, rng_table, rounds):\n"
        "    p = rng_p.random(rounds)\n"
        "    return p, rng_table.random((rounds, inst.support_size)) < p[:, None]\n"
        "def make_info_query(table):\n"
        "    slots = np.flatnonzero(table)\n"
        "    return Query.from_arrays(0.0, slots, np.ones(slots.size))\n"
        "class InfoRoundAnalyst:\n"
        "    def next_query(self, rounds):\n"
        "        table = self.rng_table.random(self.inst.support_size) < self.rng_p.random()\n"
        "        return Query.from_arrays(0.0, table.nonzero()[0], np.ones(table.sum()))\n"
        "def run_simple_attack(emp):\n"
        "    held = np.count_nonzero(emp == 1.0) + random()\n"
        "    return nonzero(emp)\n"
    )
    assert info_query_rule_breaks(source, attack_module=True) == [
        "line 9: self.rng_table.random(self.inst.support_size)",
        "line 9: self.rng_p.random()",
        "line 10: table.nonzero()",
        "line 13: nonzero(emp)",
    ]
    # outside the attack module every .random( call breaks the rule, and
    # the table-to-query names are free
    assert info_query_rule_breaks(source) == [
        "line 2: rng_p.random(rounds)",
        "line 3: rng_table.random((rounds, inst.support_size))",
        "line 9: self.rng_table.random(self.inst.support_size)",
        "line 9: self.rng_p.random()",
    ]
