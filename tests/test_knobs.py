"""The knob audit: every library option takes a second value somewhere in the product.

A *knob* is a defaulted parameter of a function or method in ``src/repro``,
or a dataclass field with a default that ``__init__`` accepts.  A knob is
*set* when a call in product code (``src/repro``, ``benchmarks/``,
``examples/``) passes it to a callee of that name — by keyword, by position
or through ``**`` — with a value other than a literal equal to its default.
For ``__init__`` and for dataclass fields the callee is the class (or a
subclass that inherits the constructor), and only an attribute call
(``tree.range(...)``, never the builtin ``range(...)``) reaches a method;
an argument built from data
(``count=traverser.bulk``) counts as set.  A ``**kwargs`` forwarded from the
enclosing def's own ``**`` parameter passes what that def's callers pass.

An option no product run sets is a constant with a name: the code only its
other values reach is test-only, and every reader has to ask what the other
values do.  So an unset knob fails unless :data:`KEPT_KNOBS` lists it with
a reason; a listed knob that the product does set fails as stale.

Three groups are skipped, each named once below: the ``run_*`` parameters
of the benchmark specs (CLI flags — each must have an ``Arg``), the ledger
dataclasses (their fields hold counters and are never passed in) and the
public graph and DSL surface (``GraphDatabase`` / ``GraphTraversal`` methods,
``begin_session(isolation)``).

The check is static (``ast`` only): one scan of the product takes about a second.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from repro.bench import registry

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = "src/repro"
PRODUCT = ("src/repro", "benchmarks", "examples")

#: Dataclasses whose fields are state — counters, clocks, ledgers — that
#: the owner fills in; nothing passes them in.
LEDGER_CLASSES = frozenset(
    {
        "TxnStats",
        "ConcurrencyStats",
        "GCStats",
        "CacheStats",
        "NetworkStats",
        "DistributedResult",
        "ChaosResult",
        "ScheduleResult",
        "StalenessClock",
        "BarrierClock",
        "StorageMetrics",
        "VersionDiff",
        "_Row",
        "Record",
    }
)

#: The public graph and DSL surface documented in README and ARCHITECTURE:
#: its optional arguments are the API, whatever the product passes.
PUBLIC_CLASSES = frozenset({"GraphDatabase", "GraphTraversal"})
PUBLIC_KNOBS = frozenset({"begin_session(isolation)"})

#: Knobs the product never sets, kept on purpose.  Each is a test seam that
#: selects the product's own code path at a smaller size, a value the
#: product reaches through a call the name rule cannot follow, or an
#: optional argument of a documented surface.
_REGISTERED_ENGINE = "create_engine builds every engine as engine_class(config) from the registry"
_REGISTERED_DATASET = "get_dataset calls every generator as DatasetSpec.generator(**kwargs)"
KEPT_KNOBS: dict[str, str] = {
    **{
        f"{engine}.__init__(config)": _REGISTERED_ENGINE
        for engine in (
            "BitmapEngine",
            "ColumnarEngine",
            "DocumentEngine",
            "NativeIndirectEngine",
            "NativeLinkedV3Engine",
            "RelationalEngine",
            "TripleEngine",
        )
    },
    **{
        f"{generator}({name})": _REGISTERED_DATASET
        for generator in ("frb_s", "frb_o", "frb_m", "frb_l", "ldbc_social", "mico", "yeast")
        for name in ("scale", "seed")
    },
    "Query.__call__(params)": (
        "queries run as query(graph, params) from the MICRO_QUERIES / COMPLEX_QUERIES tables"
    ),
    "main(argv)": "the console entry point reads sys.argv; tests pass argument lists",
    "FaultEvent.shard": (
        "explicit fault-plan coordinate (None matches any shard); seeded plans draw faults "
        "without events, tests pin one to a shard"
    ),
    "FaultEvent.torn": "tests crash a shard without tearing its WAL tail",
    "TxnFaultEvent.txn": (
        "explicit commit-fault coordinate (None matches any); tests pin a fault to one commit"
    ),
    "Traverser.loops": (
        "walker state that spawn / with_loops / with_bulk copy; the constructor builds fresh walkers"
    ),
    "Traverser.bulk": (
        "walker state that spawn / with_loops / with_bulk copy; tests build bulked walkers directly"
    ),
    **{
        f"BPlusTree.range({name})": (
            "the B+Tree property tests hold bounded scans and iter_prefix to this reference "
            "scan; the product scans whole trees and prefixes"
        )
        for name in ("low", "high")
    },
    "TripleStore.remove(object_)": (
        "engines remove by subject or (subject, predicate); the store's property test removes "
        "whole patterns against its reference"
    ),
    # Test seams: each selects the product's own code path at a smaller size.
    "BenchmarkSuite.run_indexed_micro(query_ids)": "test_harness runs the indexed sweep on one query",
    "BulkMergeStep.capacity": "the kernel-parity test merges in windows of 8 walkers",
    "BPlusTree.__init__(order)": "the index tests split order-3/4 trees of a few keys",
    "RecordStore.__init__(page_size)": "the layout tests cross 64-byte pages with few records",
    "WriteAheadLog.__init__(value_threshold)": "test_wal_kv separates values at small thresholds",
    "WriteAheadLog.tear_tail(records)": (
        "the WAL-fault tests tear several records; a product crash tears one"
    ),
    "ChargedCache.invalidation_charge_per_entry": (
        "test_cache prices an invalidation apart from the default"
    ),
    "NetworkCostModel.retransmit_penalty": (
        "test_executor prices a retransmission apart from the default"
    ),
}


# ----------------------------------------------------------------------
# The scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    path: str
    line: int
    #: Enclosing class, or None for a module-level or nested function.
    owner: str | None
    #: The def's name, or None for a dataclass field.
    function: str | None
    name: str
    default: ast.AST
    #: Index among the positional arguments a caller writes (``self`` and
    #: ``cls`` excluded); None for keyword-only parameters and fields.
    position: int | None

    @property
    def key(self) -> str:
        if self.function is None:
            return f"{self.owner}.{self.name}"
        prefix = f"{self.owner}." if self.owner else ""
        return f"{prefix}{self.function}({self.name})"

    @property
    def where(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class ClassInfo:
    bases: list[str]
    dataclass: bool
    #: Own init fields, in declaration order.
    fields: list[str] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CallSite:
    where: str
    positional: tuple[ast.AST, ...]
    keywords: Mapping[str, ast.AST | None]
    #: An unresolvable ``**`` may pass any keyword.
    wildcard: bool
    #: ``**kwargs`` of the enclosing def: whatever that def's callers pass.
    forwarded_from: str | None
    #: Called by a bare name (``f(...)``), which cannot reach a method.
    bare: bool


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in node.decorator_list
    )


def _field_default(value: ast.AST) -> tuple[bool, ast.AST | None]:
    """``(in __init__, default)`` of a dataclass field's right-hand side."""
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        options = {keyword.arg: keyword.value for keyword in value.keywords}
        init = options.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False, None
        return True, options.get("default", options.get("default_factory"))
    return True, value


def _scan_defs(path: str, tree: ast.Module, knobs: list[Knob], classes: dict[str, ClassInfo]) -> None:
    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                info = ClassInfo([_name(base) or "" for base in child.bases], _is_dataclass(child))
                classes.setdefault(child.name, info)
                for statement in child.body:
                    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods.add(statement.name)
                    if not (
                        info.dataclass
                        and isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and "ClassVar" not in ast.unparse(statement.annotation)
                    ):
                        continue
                    init, default = (
                        _field_default(statement.value) if statement.value is not None else (True, None)
                    )
                    if init:
                        info.fields.append(statement.target.id)
                        if default is not None:
                            knobs.append(
                                Knob(path, statement.lineno, child.name, None,
                                     statement.target.id, default, None)
                            )
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                positional = arguments.posonlyargs + arguments.args
                static = any(_name(d) == "staticmethod" for d in child.decorator_list)
                bound = 1 if owner is not None and not static else 0
                first = len(positional) - len(arguments.defaults)
                for index, (parameter, default) in enumerate(
                    zip(positional[first:], arguments.defaults)
                ):
                    knobs.append(Knob(path, child.lineno, owner, child.name, parameter.arg,
                                      default, first + index - bound))
                for parameter, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                    if default is not None:
                        knobs.append(Knob(path, child.lineno, owner, child.name, parameter.arg,
                                          default, None))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)


def _dict_keys(node: ast.AST | None) -> dict[str, ast.AST] | None:
    """The keys of a dict display or ``dict(...)`` call; None if not literal."""
    if isinstance(node, ast.Dict):
        if not all(isinstance(key, ast.Constant) and isinstance(key.value, str) for key in node.keys):
            return None
        return {key.value: value for key, value in zip(node.keys, node.values)}  # type: ignore[union-attr]
    if (
        isinstance(node, ast.Call)
        and _name(node.func) == "dict"
        and not node.args
        and all(keyword.arg is not None for keyword in node.keywords)
    ):
        return {keyword.arg: keyword.value for keyword in node.keywords}  # type: ignore[misc]
    return None


def _local_dict_keys(function: ast.AST, name: str) -> dict[str, ast.AST] | None:
    """Every key a local dict ``name`` is given inside ``function``; None if unknown."""
    keys: dict[str, ast.AST] = {}
    built = False
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    literal = _dict_keys(node.value)
                    if literal is None:
                        return None
                    keys.update(literal)
                    built = True
                elif (
                    isinstance(target, ast.Subscript)
                    and _name(target.value) == name
                    and isinstance(target.value, ast.Name)
                ):
                    if not isinstance(target.slice, ast.Constant):
                        return None
                    keys[target.slice.value] = node.value  # type: ignore[assignment]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
            and node.func.attr in ("update", "setdefault")
        ):
            return None
    return keys if built else None


def _scan_calls(
    path: str, tree: ast.Module, classes: Mapping[str, ClassInfo], calls: dict[str, list[CallSite]]
) -> None:
    def visit(node: ast.AST, owner: str | None, function: ast.FunctionDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, function)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner, child)  # type: ignore[arg-type]
                continue
            if isinstance(child, ast.Call):
                record(child, owner, function)
            visit(child, owner, function)

    def record(call: ast.Call, owner: str | None, function: ast.FunctionDef | None) -> None:
        callee = call.func
        positional: tuple[ast.AST, ...] = tuple(call.args)
        if owner and isinstance(callee, ast.Name) and callee.id == "cls":
            names = [owner]
        elif owner and isinstance(callee, ast.Call) and _name(callee.func) == "type":
            names = [owner]  # type(self)(...)
        elif owner and isinstance(callee, ast.Attribute) and callee.attr == "__init__":
            names = list(classes[owner].bases) if owner in classes else []  # super().__init__
        elif isinstance(callee, ast.Name) and callee.id == "replace":
            # dataclasses.replace(obj, field=...): obj's class, unknown unless self.
            target = call.args[0] if call.args else None
            if owner and isinstance(target, ast.Name) and target.id == "self":
                names = [owner]
            else:
                names = [name for name, info in classes.items() if info.dataclass]
            positional = ()
        else:
            name = _name(callee)
            names = [name] if name else []
        keywords: dict[str, ast.AST | None] = {}
        wildcard = False
        forwarded = None
        for keyword in call.keywords:
            if keyword.arg is not None:
                keywords[keyword.arg] = keyword.value
                continue
            literal = _dict_keys(keyword.value)
            if literal is None and isinstance(keyword.value, ast.Name) and function is not None:
                star = function.args.kwarg
                if star is not None and star.arg == keyword.value.id:
                    forwarded = function.name
                    continue
                literal = _local_dict_keys(function, keyword.value.id)
            if literal is None:
                wildcard = True
            else:
                keywords.update(literal)
        site = CallSite(
            f"{path}:{call.lineno}", positional, keywords, wildcard, forwarded,
            isinstance(callee, ast.Name),
        )
        for name in names:
            calls[name].append(site)

    visit(tree, None, None)


def _literal(node: ast.AST) -> tuple[type, object] | None:
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return None
    return type(value), value


def _equals_default(value: ast.AST | None, default: ast.AST) -> bool:
    if value is None:
        return False
    literal, expected = _literal(value), _literal(default)
    if literal is not None and expected is not None:
        return literal == expected
    return ast.dump(value) == ast.dump(default)


@dataclass
class Scan:
    knobs: list[Knob]
    classes: dict[str, ClassInfo]
    calls: dict[str, list[CallSite]]

    def callees(self, knob: Knob) -> set[str]:
        """Names a call must use to reach ``knob``."""
        if knob.function not in (None, "__init__"):
            return {knob.function}  # type: ignore[arg-type]
        reach = {knob.owner}
        grew = True
        while grew:  # subclasses that inherit the constructor
            grew = False
            for name, info in self.classes.items():
                if name in reach or not any(base in reach for base in info.bases):
                    continue
                if knob.function == "__init__" and ("__init__" in info.methods or info.dataclass):
                    continue
                reach.add(name)
                grew = True
        return reach  # type: ignore[return-value]

    def field_position(self, owner: str, name: str) -> int | None:
        order: list[str] = []

        def collect(cls: str, seen: set[str]) -> None:
            info = self.classes.get(cls)
            if info is None or cls in seen:
                return
            seen.add(cls)
            for base in info.bases:
                collect(base, seen)
            order.extend(item for item in info.fields if item not in order)

        collect(owner, set())
        return order.index(name) if name in order else None

    def setter(self, knob: Knob) -> str | None:
        """The ``file:line`` of a product call that sets ``knob``, or None."""
        position = (
            self.field_position(knob.owner, knob.name)  # type: ignore[arg-type]
            if knob.function is None
            else knob.position
        )
        method = knob.owner is not None and knob.function not in (None, "__init__")
        return self._setter(
            self.callees(knob), position, knob.name, knob.default, method, depth=0
        )

    def _setter(
        self,
        callees: Iterable[str],
        position: int | None,
        name: str,
        default: ast.AST,
        method: bool,
        depth: int,
    ) -> str | None:
        for callee in callees:
            for site in self.calls.get(callee, ()):
                if method and site.bare:
                    continue  # range(...) is not BPlusTree.range(...)
                if name in site.keywords:
                    if not _equals_default(site.keywords[name], default):
                        return site.where
                    continue
                if position is not None:
                    for index, argument in enumerate(site.positional[: position + 1]):
                        if isinstance(argument, ast.Starred):
                            return site.where  # *args may reach the position
                        if index == position and not _equals_default(argument, default):
                            return site.where
                if site.wildcard:
                    return site.where
                if site.forwarded_from and depth < 4:
                    found = self._setter(
                        [site.forwarded_from], None, name, default, False, depth + 1
                    )
                    if found:
                        return found
        return None


@lru_cache(maxsize=None)
def _parse(path: str, text: str) -> ast.Module:
    return ast.parse(text, filename=path)


def scan(sources: Mapping[str, str]) -> Scan:
    """Knobs of the library files in ``sources`` and the calls of all of them."""
    trees = {path: _parse(path, text) for path, text in sources.items()}
    knobs: list[Knob] = []
    classes: dict[str, ClassInfo] = {}
    for path, tree in trees.items():
        if path.startswith(LIBRARY + "/"):
            _scan_defs(path, tree, knobs, classes)
    calls: dict[str, list[CallSite]] = defaultdict(list)
    for path, tree in trees.items():
        _scan_calls(path, tree, classes, calls)
    return Scan(knobs, classes, calls)


@lru_cache(maxsize=1)
def product_scan() -> Scan:
    return scan(product_sources())


def product_sources() -> dict[str, str]:
    sources = {}
    for top in PRODUCT:
        for path in sorted((ROOT / top).rglob("*.py")):
            relative = path.relative_to(ROOT).as_posix()
            if "/tests/" not in f"/{relative}":
                sources[relative] = path.read_text()
    return sources


@lru_cache(maxsize=1)
def spec_functions() -> dict[tuple[str, str], set[str]]:
    """``(library path, run_* name)`` → the ``Arg`` keywords of its spec."""
    functions = {}
    for spec in registry.SPECS.values():
        module = spec.run.__module__.replace(".", "/")
        functions[(f"src/{module}.py", spec.run.__name__)] = {
            arg.kwarg for arg in spec.args if arg.kwarg is not None
        }
    return functions


def skipped(knob: Knob, result: Scan, specs: Mapping[tuple[str, str], set[str]]) -> bool:
    """True for the three groups the audit does not judge."""
    if (knob.path, knob.function) in specs:
        return True
    if knob.function is None and knob.owner in LEDGER_CLASSES:
        return True
    if knob.key in PUBLIC_KNOBS:
        return True
    if knob.function is not None and knob.owner is not None:
        for public in PUBLIC_CLASSES:
            if knob.owner == public or (
                knob.function in result.classes.get(public, ClassInfo([], False)).methods
                and _inherits(result, knob.owner, public)
            ):
                return True
    return False


def _inherits(result: Scan, cls: str, ancestor: str) -> bool:
    seen: set[str] = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current == ancestor:
            return True
        if current in seen or current not in result.classes:
            continue
        seen.add(current)
        pending.extend(result.classes[current].bases)
    return False


def audit(result: Scan, kept: Mapping[str, str]) -> tuple[list[str], list[str]]:
    """``(unset knobs not kept, stale kept entries)``, as ``file:line  key`` lines."""
    specs = spec_functions()
    unset: list[str] = []
    judged: dict[str, tuple[Knob, str | None]] = {}
    for knob in result.knobs:
        if skipped(knob, result, specs):
            continue
        setter = result.setter(knob)
        judged[knob.key] = (knob, setter)
        if setter is None and knob.key not in kept:
            unset.append(f"{knob.where}  {knob.key}")
    stale = []
    for key in kept:
        if key not in judged:
            stale.append(f"{key}: no such knob")
        elif judged[key][1] is not None:
            knob, setter = judged[key]
            stale.append(f"{knob.where}  {key}: set at {setter}")
    return unset, stale


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------


def test_every_knob_takes_a_second_value_or_is_kept():
    unset, _stale = audit(product_scan(), KEPT_KNOBS)
    assert not unset, (
        "options no product call sets to a second value (make each a constant "
        "and delete what only its other values reach, or list it in KEPT_KNOBS "
        "with a reason):\n  " + "\n  ".join(unset)
    )


def test_kept_knobs_are_still_unset():
    _unset, stale = audit(product_scan(), KEPT_KNOBS)
    assert not stale, "stale KEPT_KNOBS entries:\n  " + "\n  ".join(stale)


def test_kept_knobs_give_reasons():
    assert all(reason.strip() for reason in KEPT_KNOBS.values())


def test_spec_run_parameters_are_flags():
    result = product_scan()
    missing = [
        f"{knob.where}  {knob.key}"
        for knob in result.knobs
        if (knob.path, knob.function) in spec_functions()
        and knob.name not in spec_functions()[(knob.path, knob.function)]
    ]
    assert not missing, "run_* parameters without an Arg in registry.SPECS:\n  " + "\n  ".join(missing)


class TestTeeth:
    """The audit fails on the shapes it exists to keep out."""

    CONFIG = f"{LIBRARY}/config.py"

    def test_a_readded_unset_field_fails(self):
        sources = dict(product_sources())
        sources[self.CONFIG] = sources[self.CONFIG].replace(
            '    durability: str = "sync"', '    durability: str = "sync"\n    bulk_load: bool = True', 1
        )
        unset, _stale = audit(scan(sources), KEPT_KNOBS)
        assert [line for line in unset if line.endswith("EngineConfig.bulk_load")]
        assert all(line.startswith(f"{self.CONFIG}:") for line in unset)

    def test_a_kept_entry_the_product_sets_is_stale(self):
        kept = {**KEPT_KNOBS, "create_engine(config)": "not really unset"}
        _unset, stale = audit(product_scan(), kept)
        assert [line for line in stale if "create_engine(config): set at" in line]

    def test_a_default_literal_does_not_count_as_set(self):
        sources = {
            f"{LIBRARY}/toy.py": "def knob(x, flag=True):\n    return x\n",
            "examples/toy.py": "knob(1, flag=True)\nknob(2, True)\n",
        }
        assert scan(sources).setter(scan(sources).knobs[0]) is None
        sources["examples/toy.py"] += "knob(3, flag=data)\n"
        assert scan(sources).setter(scan(sources).knobs[0]) == "examples/toy.py:3"

    def test_a_bare_call_does_not_set_a_method_knob(self):
        sources = {
            f"{LIBRARY}/toy.py": "class Tree:\n    def range(self, low=None):\n        return low\n",
            "examples/toy.py": "for x in range(0, 9):\n    pass\n",
        }
        result = scan(sources)
        assert result.setter(result.knobs[0]) is None
        sources["examples/toy.py"] += "Tree().range(3)\n"
        result = scan(sources)
        assert result.setter(result.knobs[0]) == "examples/toy.py:3"

    @pytest.mark.parametrize(
        "call",
        [
            "Toy(1, 2)",
            "Toy(b=2)",
            "Toy(**{'b': 2})",
            "opts = {}\n    opts['b'] = 2\n    Toy(**opts)",
            "Sub(a=1, b=2)",
        ],
    )
    def test_fields_are_set_by_position_keyword_star_star_and_subclass(self, call):
        library = (
            "from dataclasses import dataclass\n@dataclass\nclass Toy:\n    a: int\n    b: int = 0\n"
            "@dataclass\nclass Sub(Toy):\n    c: int = 0\n"
        )
        sources = {f"{LIBRARY}/toy.py": library, "examples/toy.py": f"def main():\n    {call}\n"}
        result = scan(sources)
        toy_b = next(knob for knob in result.knobs if knob.key == "Toy.b")
        assert result.setter(toy_b) is not None
