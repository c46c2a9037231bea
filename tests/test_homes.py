"""Every "one home" rule of the package (ROADMAP aim 2) is one row of
``RULES``, and one AST walker checks them all.

A row names the ROADMAP entry it guards (an aim-2 "Done" or an aim-1
"Measured"), the modules it scans, what it forbids there, and its homes:
the functions where that is allowed, written ``module.py::Class.method``,
plus each function the scanned module names by a keyword in
``keyword_homes`` (every ``resolve=`` of ``harness.KINDS``). A row with
``within`` scans only those functions, and a ``repeated`` row finds only
what lies in a loop, a comprehension or a cached function. A new rule is a
new row, and a home or callee that no longer exists fails
``test_every_name_exists``.
"""

import ast
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adalab"
EVERY = tuple(sorted(path.name for path in SRC.glob("*.py")))


@dataclass(frozen=True)
class Rule:
    done: str  # the ROADMAP entry the rule guards
    says: str
    modules: tuple[str, ...]
    calls: tuple[str, ...] = ()  # f(...) or x.f(...)
    method_calls: tuple[str, ...] = ()  # x.f(...) only
    calls_on: tuple[str, ...] = ()  # C.f(...) for a class C
    writes: tuple[str, ...] = ()  # x.a = ..., x.a += ... and the like
    loads: tuple[str, ...] = ()  # a read of a name or an attribute
    literal_prefix: str | None = None  # a call given a string literal with this prefix
    param_reads: bool = False  # int(...) or float(...) of a param, or params.get with a default
    kind_literals: bool = False  # the kind name compared with a string literal
    matmult: bool = False  # a @ b or a @= b
    homes: tuple[str, ...] = ()
    keyword_homes: tuple[str, ...] = ()
    within: tuple[str, ...] = ()
    repeated: bool = False  # only inside a loop, a comprehension or a cached function


BUILDERS = (
    "NoiseSpec", "MechanismKind", "HardInstance", "build_hard_instance", "BlockInstance", "build_block_instance",
    "_two_sample_instance", "_noise_spec",
)
SWITCH, INFO, KEYED = "hybrid switch and output grid", "info queries", "keyed oracle draw"
LAYOUT = "element layout"
LAPLACE, MEANS, SIZES = "numpy's Laplace formula", "means", "sizes"
SCORE = "score attack"
LLR_COST = "llr call's fixed cost"
GRID_RULE = tuple(
    f"mechanisms.py::{name}" for name in ("grid_index", "quantize", "_position_frame", "_grid_positions", "quantize_array")
)

RULES = (
    Rule("param defaults", "harness reads params as resolved: no param cast, no defaulted params.get",
         ("harness.py",), param_reads=True),
    Rule("mechanism inputs", "only _mechanism builds a MechanismState or derives a mech_noise_* stream",
         ("harness.py",), calls=("MechanismState",), literal_prefix="mech_noise_", homes=("harness.py::_mechanism",)),
    Rule("run inputs", "a run's noise spec, mechanism kinds and instance are built when it resolves",
         ("harness.py",), calls=BUILDERS, calls_on=("MechanismKind",), keyword_homes=("resolve",),
         homes=("harness.py::_resolve_params", "harness.py::_two_sample_instance", "harness.py::_noise_spec")),
    Rule("run inputs", "_resolve_params holds only shared steps: no kind name compared with a literal",
         ("harness.py",), kind_literals=True, within=("harness.py::_resolve_params",)),
    Rule(SWITCH, "only MechanismKind.sample_rounds calls switches",
         EVERY, calls=("switches",), homes=("mechanisms.py::MechanismKind.sample_rounds",)),
    Rule(SWITCH, "only MechanismState.__init__ and _advance set the switch flags and round count",
         EVERY, writes=("switched", "switch_round", "rounds_answered"),
         homes=("mechanisms.py::MechanismState.__init__", "mechanisms.py::MechanismState._advance")),
    Rule(SWITCH, "only answer_means and answer_batch advance the round counter",
         EVERY, method_calls=("_advance",), homes=("mechanisms.py::answer_means", "mechanisms.py::answer_batch")),
    Rule(SWITCH, "only the grid rule's functions read the output interval's module names",
         EVERY, loads=("_CLIP_LO", "_CLIP_HI"), homes=GRID_RULE),
    Rule(SWITCH, "bounds.py rounds onto the grid through mechanisms alone",
         ("bounds.py",), loads=("rint", "clip", "clip_lo")),
    Rule(INFO, "only draw_info_tables and laplace_uniforms draw uniform doubles",
         EVERY, method_calls=("random",), homes=("attack.py::draw_info_tables", "mechanisms.py::laplace_uniforms")),
    Rule(INFO, "only make_info_query turns a table into override ids",
         ("attack.py",), calls=("nonzero", "flatnonzero"), homes=("attack.py::make_info_query",)),
    Rule(KEYED, "only _mix_in and _spawned_state_words read the keyed chain's constants",
         EVERY, loads=("_STATE_HASH", "_MIX_MULT_L", "_MIX_MULT_R"),
         homes=("mechanisms.py::_mix_in", "mechanisms.py::_spawned_state_words")),
    Rule(LAPLACE, "in mechanisms.py only _laplace_from_uniform and laplace_grid_indices take a log",
         ("mechanisms.py",), loads=("log",),
         homes=("mechanisms.py::_laplace_from_uniform", "mechanisms.py::laplace_grid_indices")),
    Rule(LAPLACE, "the LLR reads its grid indices from laplace_grid_indices alone: no per-transcript draw or rounding",
         ("bounds.py",), calls=("_laplace_from_uniform", "grid_index", "quantize")),
    Rule(MEANS, "only run_score_attack, whose guess is certified for any order of its sums, takes a matrix product",
         EVERY, calls=("dot", "matmul", "inner", "vdot", "tensordot", "einsum"), matmult=True,
         homes=("attack.py::run_score_attack",)),
    Rule(SCORE, "in attack.py only info_round calls answer: the score attack answers its rounds in one batch",
         ("attack.py",), calls=("answer",), homes=("attack.py::info_round",)),
    Rule(SCORE, "no package code calls info_round: it is the per-round API for callers outside the package",
         EVERY, calls=("info_round",)),
    Rule(LAYOUT, "scan_blocks reads its means from the block layout: no query and no generic mean",
         ("attack.py",), calls=("empirical_mean", "true_mean", "Query"), calls_on=("Query",),
         method_calls=("query_for_block",), within=("attack.py::scan_blocks",)),
    Rule(LAYOUT, "only HardInstance's own methods read slot_elements: slot_query builds every slot indicator",
         EVERY, method_calls=("slot_elements",),
         homes=("attack.py::HardInstance.make_sample", "attack.py::HardInstance.slot_query")),
    Rule(LAYOUT, "only Sample's constructor counts ids: no np.unique elsewhere in the package",
         EVERY, calls=("unique",), homes=("core.py::Sample.__init__",)),
    Rule(LAYOUT, "only FiniteDistribution.element_rows repeats an array: no n-sized id array is built",
         EVERY, calls=("repeat",), homes=("core.py::FiniteDistribution.element_rows",)),
    Rule(SIZES, "only check_elements reads the element limit",
         EVERY, loads=("_SUPPORT_ELEMENT_LIMIT",), homes=("attack.py::check_elements",)),
    Rule(LLR_COST, "bounds.py evaluates each law set once: no output_distribution call in a loop or a cached closure",
         ("bounds.py",), calls=("output_distribution",), repeated=True),
    Rule(LLR_COST, "the LLR path clips with raw ufuncs and builds plain records: no clip or asdict call",
         ("bounds.py", "harness.py", "mechanisms.py"), calls=("clip", "asdict"),
         within=("bounds.py::run_llr_experiment", "bounds.py::_block_llrs", "harness.py::_run_llr",
                 "mechanisms.py::laplace_rounds", "mechanisms.py::laplace_grid_indices")),
)


# --- the walker -------------------------------------------------------------------


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions and class methods, by ``Class.method`` name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
    return found


def _in(module: str, entries: tuple[str, ...]) -> set[str]:
    """The names among ``module.py::name`` entries that live in ``module``."""
    return {name for entry in entries for where, name in [entry.split("::")] if where == module}


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


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_CACHES = ("cache", "lru_cache", "cached_property")


def _repeats(node: ast.AST) -> bool:
    """A loop or a comprehension, or a function a cache decorator wraps."""
    if isinstance(node, _LOOPS):
        return True
    decorators = node.decorator_list if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
    return any(_name(d.func if isinstance(d, ast.Call) else d) in _CACHES for d in decorators)


def _compares_the_kind_to_a_literal(node: ast.Compare) -> bool:
    """``kind == "llr"``, ``config.kind in ("attack", "positive_accuracy")`` and the like."""
    operands = [node.left, *node.comparators]
    literals = [item for o in operands for item in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
    return any(_name(o) == "kind" for o in operands) and any(
        isinstance(o, ast.Constant) and isinstance(o.value, str) for o in literals
    )


def _call_breaks(rule: Rule, node: ast.Call) -> bool:
    func, args = node.func, [*node.args, *(kw.value for kw in node.keywords)]
    method = isinstance(func, ast.Attribute)
    strings = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return (
        _name(func) in rule.calls
        or (method and (func.attr in rule.method_calls or _name(func.value) in rule.calls_on))
        or (rule.literal_prefix is not None and any(s.startswith(rule.literal_prefix) for s in strings))
        or (
            rule.param_reads
            and (
                (isinstance(func, ast.Name) and func.id in ("int", "float") and any(map(_reads_a_param, node.args)))
                or (method and _is_params(func.value) and func.attr == "get" and len(args) > 1)
            )
        )
    )


def _breaks_at(rule: Rule, node: ast.AST) -> list[ast.AST]:
    """What breaks ``rule`` at ``node``: the node itself, or the attributes
    an assignment writes."""
    if rule.matmult and isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return [node]
    if isinstance(node, ast.Call):
        return [node] if _call_breaks(rule, node) else []
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        leaves = [leaf for target in targets for leaf in ast.walk(target)]
        return [leaf for leaf in leaves if isinstance(leaf, ast.Attribute) and leaf.attr in rule.writes]
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        return [node] if _name(node) in rule.loads else []
    if isinstance(node, ast.Compare) and rule.kind_literals:
        return [node] if _compares_the_kind_to_a_literal(node) else []
    return []


def breaks(source: str, module: str, rules) -> list[str]:
    """Each break, by line, of the rules that scan ``module``, in ``source``."""
    tree = ast.parse(source)
    functions = _functions(tree)
    found = []
    for rule in (rule for rule in rules if module in rule.modules):
        keywords = [kw for kw in ast.walk(tree) if isinstance(kw, ast.keyword) and kw.arg in rule.keyword_homes]
        named = {_name(kw.value) for kw in keywords}
        homes = [functions[name] for name in _in(module, rule.homes) | named if name in functions]
        allowed = {id(node) for home in homes for node in ast.walk(home)}
        scope = [functions[name] for name in _in(module, rule.within) if name in functions] if rule.within else [tree]
        nodes = [node for root in scope for node in ast.walk(root) if id(node) not in allowed]
        if rule.repeated:
            repeating = {id(node) for root in ast.walk(tree) if _repeats(root) for node in ast.walk(root)}
            nodes = [node for node in nodes if id(node) in repeating]
        found += [hit for node in nodes for hit in _breaks_at(rule, node)]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


# --- the package ------------------------------------------------------------------


@pytest.mark.parametrize("rule", RULES, ids=[rule.says for rule in RULES])
def test_package_keeps_each_home(rule):
    found = {module: breaks((SRC / module).read_text(encoding="utf-8"), module, [rule]) for module in rule.modules}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_every_name_exists():
    """A rule whose module, home or forbidden callee names nothing guards nothing."""
    trees = {module: ast.parse((SRC / module).read_text(encoding="utf-8")) for module in EVERY}
    tops = [node for tree in trees.values() for node in tree.body]
    defined = {node.name for node in tops if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    functions = {module: _functions(tree) for module, tree in trees.items()}
    missing = [module for rule in RULES for module in rule.modules if module not in trees]
    missing += [
        entry
        for rule in RULES
        for entry in rule.homes + rule.within
        if entry.split("::")[1] not in functions.get(entry.split("::")[0], {})
    ]
    callees = {name for rule in RULES for name in rule.calls + rule.calls_on}
    missing += sorted(
        name for name in callees if name not in defined and not hasattr(np, name) and not hasattr(dataclasses, name)
    )
    assert missing == []


# --- the walker on sources with known breaks ----------------------------------------

PARAM_SOURCE = (
    "n = int(params['n'])\n"
    "b = float(params.get('noise_scale'))\n"
    "beta = params.get('beta', 0.1)\n"
    "n = params.get('n', None)\n"
    "ok = params['k'], params.get('constant'), int(config.trials), float(eps), other.get('x', 1)\n"
    "k, beta = int(run.params['k']), run.params.get('beta', 0.1)\n"
)
MECHANISM_SOURCE = (
    "def _mechanism(kind):\n"
    "    return MechanismState(kind, real_rng=derive_rng(m, t, 'mech_noise_real'))\n"
    "def _trial(kind):\n"
    "    mech = MechanismState(kind, sample=s)\n"
    "    seed = derive_entropy(m, t, stream='mech_noise_oracle')\n"
    "    rng = derive_rng(m, t, 'attack_p')\n"
    "    return mechanisms.MechanismState(kind)\n"
)
RESOLVE_BUILDS_SOURCE = (
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
RESOLVE_HOMES_SOURCE = (
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
RESOLVE_BRANCHES_SOURCE = (
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
SWITCH_SOURCE = (
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
ADVANCE_SOURCE = (
    "def answer_means(state, emp, tru):\n"
    "    return state._advance(1, 1)\n"
    "def answer_batch(state, emp, tru):\n"
    "    first = state._advance(len(emp), 0)\n"
    "def answer(state, query):\n"
    "    round_index = state._advance(1, 0)\n"
    "def _close(mech):\n"
    "    return mech._advance(1, 1), mechanisms.MechanismState._advance(mech, 1, 0), _advance(1, 1)\n"
)
GRID_SOURCE = (
    "clip_lo, grid_step = noise.clip_lo, noise.grid_step\n"
    "np.clip(values, lo, hi, out=values)\n"
    "index = np.rint(values).astype(np.intp)\n"
    "value = values.clip(0, 1)\n"
    "index = _grid_indices(noise, values) + grid_index(noise, 0.5)\n"
)
CLIP_SOURCE = (
    "def grid_index(spec, value):\n"
    "    return round((min(max(value, _CLIP_LO), _CLIP_HI) - _CLIP_LO) / spec.grid_step)\n"
    "def _position_frame(spec):\n"
    "    return _CLIP_LO, spec.grid_step, (_CLIP_HI - _CLIP_LO) / spec.grid_step\n"
    "def laplace_grid_indices(spec, u, means):\n"
    "    shift = (means - _CLIP_LO) / spec.grid_step\n"
    "    return np.clip(u + shift, 0.0, (mechanisms._CLIP_HI - _CLIP_LO) / spec.grid_step)\n"
    "class NoiseSpec:\n"
    "    clip_lo = _CLIP_LO\n"
    "_CLIP_LO, _CLIP_HI = NoiseSpec.clip_lo, NoiseSpec.clip_hi\n"
)
INFO_SOURCE = (
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
KEYED_SOURCE = (
    "def _entropy_pool(entropy):\n"
    "    return (_MIX_MULT_L * SeedSequence(entropy).pool) & _MASK32, _STATE_HASH\n"
    "def _mix_in(pool, const, words):\n"
    "    return (_MIX_MULT_L * pool[0] - _MIX_MULT_R * words[0]) & _MASK32\n"
    "def _mix(x, y):\n"
    "    return (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32\n"
    "class MechanismState:\n"
    "    def _oracle_noise(self, round_index):\n"
    "        return mechanisms._STATE_HASH[round_index % 9], _MIX_MULT_R\n"
    "def _spawned_state_words(entropy, first, count, streams=0):\n"
    "    return [(pool[i % 4] ^ _STATE_HASH[i]) * _STATE_HASH[i + 1] for i in range(8)]\n"
    "def _stream_block(master, block):\n"
    "    return _STATE_HASH[0] ^ block\n"
)
LAPLACE_SOURCE = (
    "def _laplace_from_uniform(u, scale):\n"
    "    return 0.0 - scale * math.log(2.0 - u - u) if u >= 0.5 else 0.0 + scale * math.log(u + u)\n"
    "def laplace_grid_indices(spec, u, means):\n"
    "    return np.log(np.minimum(u + u, (2.0 - u) - u), out=u)\n"
    "def _oracle_noise(self, round_index):\n"
    "    return 0.0 + scale * math.log(u + u)\n"
    "def laplace_uniforms(rng, size):\n"
    "    return np.log(rng.random(size)), log\n"
    "def noise_cdf(spec, x):\n"
    "    return np.log1p(x), _laplace_from_uniform(x, spec.scale)\n"
)
LLR_SOURCE = (
    "def run_llr_experiment(analyst, noise, means, uniforms):\n"
    "    def adaptive_llrs(sample_hybrid, uniforms):\n"
    "        value = tru + _laplace_from_uniform(u, noise.scale)\n"
    "        llr += drawn[mechanisms.grid_index(noise, value)]\n"
    "        rounds.append((query, quantize(noise, value)))\n"
    "    indices = laplace_grid_indices(noise, uniforms, means)\n"
    "    return quantize_array(noise, means), laplace_uniforms(rng, 8)\n"
)
PRODUCT_SOURCE = (
    "def run_score_attack(weights, tables):\n"
    "    approx = weights @ tables\n"
    "    approx @= np.dot(tables, weights)\n"
    "def true_mean(probs, means):\n"
    "    mean = probs @ means\n"
    "    means @= probs\n"
    "    return np.dot(probs, means), probs.dot(means), np.matmul(probs, means), np.inner(probs, means)\n"
    "def info_query_means(probs, rows):\n"
    "    ok = mean_under(probs, rows), np.add.reduce(rows * probs, axis=-1), probs * rows\n"
    "    return np.vdot(probs, rows), np.tensordot(rows, probs, 1), np.einsum('ij,j->i', rows, probs)\n"
)
LIMIT_SOURCE = (
    "def check_elements(what, count):\n"
    "    if count > _SUPPORT_ELEMENT_LIMIT:\n"
    "        raise ValueError(f'{what}, above the limit of {_SUPPORT_ELEMENT_LIMIT}')\n"
    "def _two_sample_instance(n, ones):\n"
    "    if 2 * n > attack._SUPPORT_ELEMENT_LIMIT:\n"
    "        check_elements(f'two-sample instance of n {n}', 2 * n)\n"
    "    return min(n, _SUPPORT_ELEMENT_LIMIT)\n"
)
SCORE_SOURCE = (
    "def info_round(state, inst, mech):\n"
    "    observed = answer(mech, make_info_query(table))\n"
    "def run_score_attack(inst, mech, k, rng_p, rng_table):\n"
    "    state = new_attack_state(inst, k, rng_p, rng_table)\n"
    "    for _ in range(k):\n"
    "        attack.info_round(state, inst, mech)\n"
    "    closing = mechanisms.answer(mech, inst.slot_query(guess)), answer_batch(mech, emp, None)\n"
    "    return answer_means(mech, 1.0, None), info_round(state, inst, mech)\n"
)
BLOCK_SOURCE = (
    "def scan_blocks(inst, mech):\n"
    "    queries = [inst.query_for_block(block) for block in range(r)]\n"
    "    emp = [empirical_mean(q, mech.sample) for q in queries], core.true_mean(queries[0], dist)\n"
    "    return Query(0.0, {1: 1.0}), Query.from_arrays(0.0, ids, vals), answer_batch(mech, emp, None)\n"
    "def reference(inst, mech):\n"
    "    return true_mean(inst.query_for_block(0), inst.distribution), Query.from_arrays(0.0, ids, vals)\n"
)
COUNTS_SOURCE = (
    "class Sample:\n"
    "    def __init__(self, elements=()):\n"
    "        ids, counts = np.unique(elements, return_counts=True)\n"
    "    def from_counts(cls, ids, counts):\n"
    "        return np.unique(ids), ids.repeat(2)\n"
    "class FiniteDistribution:\n"
    "    def element_rows(self):\n"
    "        return np.repeat(np.arange(3), sizes)\n"
    "def make_sample(slot):\n"
    "    return Sample(np.repeat(slot_elements(slot), copies)), numpy.unique(ids)\n"
)
SLOT_SOURCE = (
    "class HardInstance:\n"
    "    def make_sample(self, slot):\n"
    "        return Sample.from_counts(self.slot_elements(slot), counts)\n"
    "    def slot_query(self, slot):\n"
    "        return Query.from_arrays(0.0, self.slot_elements(slot), np.ones(r))\n"
    "def final_query(state, inst):\n"
    "    return Query.from_arrays(0.0, inst.slot_elements(best), np.ones(r))\n"
    "class BlockInstance(HardInstance):\n"
    "    def query_for_block(self, block):\n"
    "        return Query.from_arrays(0.0, self.slot_elements(block), np.ones(1))\n"
)
LAW_SOURCE = (
    "def run_llr_experiment(noise, means):\n"
    "    laws = np.log(output_distribution(noise, means))\n"
    "    rows = [output_distribution(noise, mean) for mean in means]\n"
    "    for mean in means:\n"
    "        law = mechanisms.output_distribution(noise, mean)\n"
    "    @functools.cache\n"
    "    def log_law(mean):\n"
    "        return np.log(output_distribution(noise, mean))\n"
    "    @lru_cache(maxsize=None)\n"
    "    def law(mean):\n"
    "        return output_distribution(noise, mean)\n"
    "def divergence_diagnostics(noise, a, b):\n"
    "    return output_distribution(noise, a), output_distribution(noise, b)\n"
    "while rounds:\n"
    "    output_distribution(noise, rounds.pop())\n"
)
LLR_PATH_SOURCE = (
    "def laplace_grid_indices(spec, u, means):\n"
    "    np.clip(positions, 0.0, top, out=positions)\n"
    "    return positions.clip(0.0, top), np.maximum(positions, 0.0, out=positions)\n"
    "def _block_llrs(noise, rounds, terms, offsets, u):\n"
    "    return np.clip(u, 0.0, 1.0)\n"
    "def run_llr_experiment(analyst):\n"
    "    return dataclasses.asdict(report)\n"
    "def _run_llr(config, run):\n"
    "    record = dataclasses.asdict(report)\n"
    "    return asdict(report), dict(vars(report))\n"
    "def _run_divergence(config, run):\n"
    "    return dataclasses.asdict(report), np.clip(x, 0.0, 1.0)\n"
)
PRODUCT_BREAKS = [
    "line 5: probs @ means", "line 6: means @= probs", "line 7: np.dot(probs, means)", "line 7: probs.dot(means)",
    "line 7: np.matmul(probs, means)", "line 7: np.inner(probs, means)", "line 10: np.vdot(probs, rows)",
    "line 10: np.tensordot(rows, probs, 1)", "line 10: np.einsum('ij,j->i', rows, probs)",
]
INFO_DRAWS = ["line 9: self.rng_table.random(self.inst.support_size)", "line 9: self.rng_p.random()"]


@pytest.mark.parametrize(
    "done, module, source, expected",
    [
        pytest.param("param defaults", "harness.py", PARAM_SOURCE, [
            "line 1: int(params['n'])", "line 2: float(params.get('noise_scale'))", "line 3: params.get('beta', 0.1)",
            "line 4: params.get('n', None)", "line 6: int(run.params['k'])", "line 6: run.params.get('beta', 0.1)",
        ], id="param casts and fallbacks"),
        pytest.param("mechanism inputs", "harness.py", MECHANISM_SOURCE, [
            "line 4: MechanismState(kind, sample=s)", "line 5: derive_entropy(m, t, stream='mech_noise_oracle')",
            "line 7: mechanisms.MechanismState(kind)",
        ], id="builds and streams outside the builder"),
        pytest.param("run inputs", "harness.py", RESOLVE_BUILDS_SOURCE, [
            "line 5: NoiseSpec(**fields)", "line 6: mechanisms.MechanismKind.hybrid(0.25)",
            "line 7: build_hard_instance(eps, gamma, n)", "line 8: attack.BlockInstance(gamma, n)",
            "line 9: _two_sample_instance(n, ones)", "line 10: MechanismKind.real()",
        ], id="builds outside the resolver"),
        pytest.param("run inputs", "harness.py", RESOLVE_HOMES_SOURCE, [
            "line 6: build_block_instance(0.1, 30)", "line 8: _noise_spec(run.params)",
        ], id="builds in the kinds' resolvers and the builders"),
        pytest.param("run inputs", "harness.py", RESOLVE_BRANCHES_SOURCE, [
            "line 3: kind == 'bounds_table'", "line 5: 'llr' != config.kind",
            "line 5: kind in ('attack', 'positive_accuracy')",
        ], id="kind branches in the resolver"),
        pytest.param(SWITCH, "mechanisms.py", SWITCH_SOURCE, [
            "line 13: mechanisms.switches(emp, tru, eps)", "line 14: state.switched", "line 15: state.rounds_answered",
            "line 19: switches(emp, tru, 0.1)",
        ], id="switch tests and flag writes outside their homes"),
        pytest.param(SWITCH, "mechanisms.py", ADVANCE_SOURCE, [
            "line 6: state._advance(1, 0)", "line 8: mech._advance(1, 1)",
            "line 8: mechanisms.MechanismState._advance(mech, 1, 0)",
        ], id="round counter advanced outside the answer rules"),
        pytest.param(SWITCH, "mechanisms.py", CLIP_SOURCE, [
            "line 6: _CLIP_LO", "line 7: mechanisms._CLIP_HI", "line 7: _CLIP_LO", "line 9: _CLIP_LO",
        ], id="the output interval read outside the grid rule"),
        pytest.param(SWITCH, "bounds.py", CLIP_SOURCE, [
            "line 2: _CLIP_LO", "line 2: _CLIP_HI", "line 2: _CLIP_LO", "line 4: _CLIP_LO", "line 4: _CLIP_HI",
            "line 4: _CLIP_LO", "line 6: _CLIP_LO", "line 7: np.clip", "line 7: mechanisms._CLIP_HI", "line 7: _CLIP_LO",
            "line 9: _CLIP_LO", "line 10: NoiseSpec.clip_lo",
        ], id="the output interval read outside mechanisms"),
        pytest.param(SWITCH, "mechanisms.py", GRID_SOURCE, [], id="grid rounding outside bounds"),
        pytest.param(SWITCH, "bounds.py", GRID_SOURCE, [
            "line 1: noise.clip_lo", "line 2: np.clip", "line 3: np.rint", "line 4: values.clip",
        ], id="grid rounding in bounds"),
        pytest.param(INFO, "attack.py", INFO_SOURCE, [
            *INFO_DRAWS, "line 10: table.nonzero()", "line 13: nonzero(emp)",
        ], id="draws and table reads in attack"),
        # outside attack.py every .random( call breaks the rule, and the
        # table-to-query names are free
        pytest.param(INFO, "mechanisms.py", INFO_SOURCE, [
            "line 2: rng_p.random(rounds)", "line 3: rng_table.random((rounds, inst.support_size))", *INFO_DRAWS,
        ], id="draws outside attack"),
        pytest.param(KEYED, "mechanisms.py", KEYED_SOURCE, [
            "line 2: _MIX_MULT_L", "line 2: _STATE_HASH",
            "line 6: _MIX_MULT_L", "line 6: _MIX_MULT_R", "line 9: mechanisms._STATE_HASH", "line 9: _MIX_MULT_R",
            "line 13: _STATE_HASH",
        ], id="keyed chain constants outside their homes"),
        pytest.param(LAPLACE, "mechanisms.py", LAPLACE_SOURCE, [
            "line 6: math.log", "line 8: np.log", "line 8: log",
        ], id="logs outside the Laplace formula's homes"),
        pytest.param(LAPLACE, "bounds.py", LAPLACE_SOURCE, [
            "line 10: _laplace_from_uniform(x, spec.scale)",
        ], id="logs outside mechanisms, the formula in bounds"),
        pytest.param(LAPLACE, "bounds.py", LLR_SOURCE, [
            "line 3: _laplace_from_uniform(u, noise.scale)", "line 4: mechanisms.grid_index(noise, value)",
            "line 5: quantize(noise, value)",
        ], id="a per-transcript LLR path in bounds"),
        pytest.param(LAPLACE, "harness.py", LLR_SOURCE, [], id="per-value draws and rounding outside bounds"),
        pytest.param(MEANS, "attack.py", PRODUCT_SOURCE, PRODUCT_BREAKS, id="products outside the certified guess"),
        pytest.param(MEANS, "core.py", PRODUCT_SOURCE, [
            "line 2: weights @ tables", "line 3: approx @= np.dot(tables, weights)", "line 3: np.dot(tables, weights)",
            *PRODUCT_BREAKS,
        ], id="products in a module without the guess"),
        pytest.param(SCORE, "attack.py", SCORE_SOURCE, [
            "line 6: attack.info_round(state, inst, mech)", "line 7: mechanisms.answer(mech, inst.slot_query(guess))",
            "line 8: info_round(state, inst, mech)",
        ], id="a per-round score attack in attack"),
        pytest.param(SCORE, "harness.py", SCORE_SOURCE, [
            "line 6: attack.info_round(state, inst, mech)", "line 8: info_round(state, inst, mech)",
        ], id="per-round score attack outside attack"),
        pytest.param(LAYOUT, "attack.py", BLOCK_SOURCE, [
            "line 2: inst.query_for_block(block)", "line 3: empirical_mean(q, mech.sample)",
            "line 3: core.true_mean(queries[0], dist)", "line 4: Query(0.0, {1: 1.0})",
            "line 4: Query.from_arrays(0.0, ids, vals)",
        ], id="queries and generic means in the block attack"),
        pytest.param(LAYOUT, "core.py", COUNTS_SOURCE, [
            "line 5: np.unique(ids)", "line 5: ids.repeat(2)", "line 10: np.repeat(slot_elements(slot), copies)",
            "line 10: numpy.unique(ids)",
        ], id="counts and repeats outside their homes"),
        pytest.param(LAYOUT, "attack.py", COUNTS_SOURCE, [
            "line 3: np.unique(elements, return_counts=True)", "line 5: np.unique(ids)", "line 5: ids.repeat(2)",
            "line 8: np.repeat(np.arange(3), sizes)", "line 10: np.repeat(slot_elements(slot), copies)",
            "line 10: numpy.unique(ids)",
        ], id="counts and repeats outside core"),
        pytest.param(LAYOUT, "attack.py", SLOT_SOURCE, [
            "line 7: inst.slot_elements(best)", "line 10: self.slot_elements(block)",
        ], id="slot indicators built outside HardInstance"),
        pytest.param(LAYOUT, "cli.py", SLOT_SOURCE, [
            "line 3: self.slot_elements(slot)", "line 5: self.slot_elements(slot)",
            "line 7: inst.slot_elements(best)", "line 10: self.slot_elements(block)",
        ], id="slot indicators built outside attack"),
        pytest.param(SIZES, "harness.py", LIMIT_SOURCE, [
            "line 2: _SUPPORT_ELEMENT_LIMIT", "line 3: _SUPPORT_ELEMENT_LIMIT",
            "line 5: attack._SUPPORT_ELEMENT_LIMIT", "line 7: _SUPPORT_ELEMENT_LIMIT",
        ], id="element limit read outside check_elements"),
        pytest.param(SIZES, "attack.py", LIMIT_SOURCE, [
            "line 5: attack._SUPPORT_ELEMENT_LIMIT", "line 7: _SUPPORT_ELEMENT_LIMIT",
        ], id="element limit read in attack outside check_elements"),
        pytest.param(LLR_COST, "bounds.py", LAW_SOURCE, [
            "line 3: output_distribution(noise, mean)", "line 5: mechanisms.output_distribution(noise, mean)",
            "line 8: output_distribution(noise, mean)", "line 11: output_distribution(noise, mean)",
            "line 15: output_distribution(noise, rounds.pop())",
        ], id="laws evaluated over and over in bounds"),
        pytest.param(LLR_COST, "mechanisms.py", LAW_SOURCE, [], id="laws evaluated outside bounds"),
        pytest.param(LLR_COST, "mechanisms.py", LLR_PATH_SOURCE, [
            "line 2: np.clip(positions, 0.0, top, out=positions)", "line 3: positions.clip(0.0, top)",
        ], id="np.clip in the grid map"),
        pytest.param(LLR_COST, "bounds.py", LLR_PATH_SOURCE, [
            "line 5: np.clip(u, 0.0, 1.0)", "line 7: dataclasses.asdict(report)",
        ], id="np.clip and asdict in the LLR"),
        pytest.param(LLR_COST, "harness.py", LLR_PATH_SOURCE, [
            "line 9: dataclasses.asdict(report)", "line 10: asdict(report)",
        ], id="asdict in the llr runner"),
    ],
)
def test_walker_finds_each_break(done, module, source, expected):
    assert breaks(source, module, [rule for rule in RULES if rule.done == done]) == expected
