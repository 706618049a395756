"""Checks that the benchmark harness under perfbench/ and the tools/ scripts still fit the package.

The tier-1 suite does not run perfbench, so a renamed or deleted function
that perfbench traces would otherwise break only traced benchmark runs.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves_in_nodegae(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "stats"):  # perfbench's own modules, imported fresh
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        for name in ("tracing", "stats"):
            sys.modules.pop(name, None)
    missing = []
    for module, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"nodegae.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"nodegae.{module}.{attr}")
    assert missing == []


REPO = Path(__file__).resolve().parents[1]


def test_every_bench_record_names_one_claim_the_benchmark_defines():
    """Each committed BENCH_*.json keeps the layout perf records share: its provenance
    fields, and one claim series on a declared workload and metric with >= 10 pairs."""
    import json

    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    records = sorted(REPO.glob("BENCH_*.json"))
    assert records
    for path in records:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        missing = {"label", "change", "parent_commit", "command", "machine",
                   "series"} - set(record)
        assert not missing, f"{path.name} lacks {sorted(missing)}"
        claims = [s for s in record["series"] if s.get("role") == "claim"]
        assert len(claims) == 1, f"{path.name} has {len(claims)} claim series"
        (claim,) = claims
        assert claim.get("workload") in workloads, path.name
        assert claim.get("claimed_metric") in metrics, path.name
        pairs = claim.get("pairs", [])
        assert len(pairs) >= 10, f"{path.name}: {len(pairs)} claim pairs"
        for pair in pairs:
            assert {"seed", "first", "parent", "change"} <= set(pair), path.name


def test_every_bench_claim_wins_nine_in_ten_of_its_pairs():
    """A claim series holds only when the change beats the parent on the claimed metric,
    in the direction BENCHMARK.json gives it, in at least 9 of every 10 pairs."""
    import json

    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for path in sorted(REPO.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        (claim,) = [s for s in record["series"] if s.get("role") == "claim"]
        metric = claim["claimed_metric"]
        wins = 0
        for pair in claim["pairs"]:
            parent, change = (pair[side]["metrics"][metric]["value"]
                              for side in ("parent", "change"))
            wins += change < parent if better[metric] == "lower" else change > parent
        assert 10 * wins >= 9 * len(claim["pairs"]), \
            f"{path.name}: {wins} of {len(claim['pairs'])} pairs beat the parent on {metric}"


def test_every_cli_matrix_command_parses(monkeypatch):
    from nodegae import cli

    monkeypatch.syspath_prepend(str(REPO / "tools"))
    monkeypatch.delitem(sys.modules, "cli_matrix", raising=False)
    matrix = importlib.import_module("cli_matrix").MATRIX
    parser = cli.build_parser()
    assert {argv[0] for argv in matrix} == set(cli.COMMANDS)
    for argv in matrix:
        parser.parse_args(argv)  # exits on an unknown flag or value


# Dataclasses of src/nodegae that are not frozen, and why each is not.
MUTABLE_DATACLASSES = {
    "AdamState": "its step count moves with every adam_step",
}


def test_every_dataclass_is_frozen_but_the_allowlisted():
    """A frozen dataclass that checks itself when built stays valid; one that is not
    frozen can be assigned around its checks, so it needs a reason here."""
    import dataclasses
    import inspect

    mutable = []
    for path in sorted((REPO / "src" / "nodegae").glob("[!_]*.py")):
        module = importlib.import_module(f"nodegae.{path.stem}")
        mutable += [name for name, cls in inspect.getmembers(module, inspect.isclass)
                    if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
                    and not cls.__dataclass_params__.frozen]
    assert sorted(mutable) == sorted(MUTABLE_DATACLASSES)


# Public names with no caller in src/nodegae or tools/, and why each stays.
UNCALLED_PUBLIC_API = {
    "gelu": "perfbench's tracer looks it up by name; the benchmark PR deletes it",
    "softmax_lastdim": "perfbench's tracer looks it up by name; the benchmark PR deletes it",
    "layernorm_lastdim": "perfbench's tracer looks it up by name; the benchmark PR deletes it",
    "predict_links": "perfbench's stage-2 scoring calls it until it moves to score_splits",
    "encode_node": "perfbench's row check calls it, and it is the extraction contract's reference",
}
# Defaulted parameters of public functions and methods, as "module.function.parameter",
# that no call in src/nodegae or tools/ passes, and why each stays. This list only
# shrinks: an entry leaves when its parameter gets a caller there or goes.
UNPASSED_PARAMETERS = {
    "cli.main.argv": "the console script calls main() bare, so it falls back to sys.argv",
    "autoencoder.reconstruct.max_gen_len": "perfbench's warm-up passes it",
}


def _is_record(node):
    """Whether a class definition is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases))


def _name(node):
    """The last name of a Name or an Attribute chain (`C`, `dc.C`), else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _annotated_class(annotation, classes):
    """The class of `classes` that an annotation names: `C`, `m.C`, `"C"`, `Optional[C]`
    or `C | None`; else None."""
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Subscript) and _name(node.value) == "Optional":
        node = node.slice
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
            and isinstance(node.right, ast.Constant) and node.right.value is None):
        node = node.left
    return _name(node) if _name(node) in classes else None


def _built_class(value, classes, returns):
    """The class of `classes` that `value` names or builds: `C`, `m.C`, `C(...)`,
    `m.C(...)`, or a call of a function or method that `returns` maps to it; else None."""
    if isinstance(value, ast.Call):
        name = _name(value.func)
        return name if name in classes else returns.get(name)
    return _name(value) if _name(value) in classes else None


def _local_classes(scope, classes, returns):
    """The names of a function's or a module's scope that only ever hold one class of
    `classes` or an instance of it: a parameter annotated with it, or a variable whose
    every binding is annotated with it or assigned a value that names or builds it (see
    `_built_class`)."""
    kinds = {}  # name -> the classes its bindings give it; None for a binding of unknown kind
    if not isinstance(scope, ast.Module):
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        for arg in params + [a for a in (args.vararg, args.kwarg) if a is not None]:
            kind = _annotated_class(arg.annotation, classes) if arg in params else None
            kinds.setdefault(arg.arg, set()).add(kind)
    known = set()  # ids of the Name targets whose binding gave a kind above
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    todo = list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, nested):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            known.add(id(node.targets[0]))
            kinds.setdefault(node.targets[0].id, set()).add(
                _built_class(node.value, classes, returns))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            known.add(id(node.target))
            kinds.setdefault(node.target.id, set()).add(
                _annotated_class(node.annotation, classes))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
              and id(node) not in known):
            kinds.setdefault(node.id, set()).add(None)
    return {name: kind for name, (kind, *more) in kinds.items() if kind and not more}


def test_public_api_has_a_caller_outside_the_tests():
    """Public surface of src/nodegae and tools/ has a user there, unless allowlisted:

    - every public top-level function or class, and every public method, is
      named somewhere outside its own definition, as a Name, an Attribute or
      a from-import (else it is on UNCALLED_PUBLIC_API);
    - every defaulted parameter of a public function or method is passed by
      some call of that name, by keyword or by position; a call that unpacks
      *args or **kwargs passes them all (else it is on UNPASSED_PARAMETERS);
    - every field of a dataclass or NamedTuple is read as an attribute of
      its class, or of an object whose class the code does not show.

    A read `x.field` has the owner class C when x is `self` or `cls` inside
    C, or a name of the enclosing function or module that only holds C or a
    C (see `_local_classes`). A call builds a C when it calls C, or a
    function whose return annotation names C and no same-named function or
    method returns anything else. Unresolved, and so matched by field name
    alone: reads off any other expression (`a.b.field`, `f().field`,
    `xs[0].field`), and off an unannotated parameter, a loop or
    comprehension variable, a name bound to different things, or a name
    from an enclosing scope.

    Methods and parameters match by name, so a method whose name is used
    elsewhere (say by another method of that name) or a parameter that a
    same-named function's call passes is not caught.

    No module assigns `__all__`: the rules above are the one definition of
    what is public, a name without a leading underscore.
    """
    defined, used = set(), set()
    defaulted = {}  # "module.function.parameter" -> (function, parameter, call position or None)
    record_fields = set()  # (class, field)
    passed = set()  # (function name, parameter or position)
    read = set()  # (owner class or None when unresolved, attribute name)

    class Uses(ast.NodeVisitor):
        def __init__(self):
            self.inside = []  # names of the definitions around the visited node
            self.classes = []  # names of the class definitions around the visited node
            self.local = []  # per module or function around the visited node: _local_classes

        def visit_FunctionDef(self, node):
            self.inside.append(node.name)
            self.local.append(_local_classes(node, classes, returns))
            self.generic_visit(node)
            self.local.pop()
            self.inside.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Module(self, node):
            self.local.append(_local_classes(node, classes, returns))
            self.generic_visit(node)

        def visit_ClassDef(self, node):
            self.inside.append(node.name)
            self.classes.append(node.name)
            self.generic_visit(node)
            self.classes.pop()
            self.inside.pop()

        def owner(self, value):
            """The class of the object that `value` evaluates to, when the AST shows it."""
            if not isinstance(value, ast.Name):
                return None
            if value.id in ("self", "cls") and self.classes:
                return self.classes[-1]
            return value.id if value.id in classes else self.local[-1].get(value.id)

        def note(self, name):
            if name not in self.inside:
                used.add(name)

        def visit_Name(self, node):
            self.note(node.id)

        def visit_Attribute(self, node):
            self.note(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add((self.owner(node.value), node.attr))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            for alias in node.names:
                self.note(alias.name)

        def visit_Call(self, node):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
            passed.update((name, i) for i in range(len(node.args)))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.add((name, "*"))
            self.generic_visit(node)

    def note_defaults(qualname, func, bound):
        """Record func's defaulted parameters; `bound` leading ones are not passed in calls."""
        args = func.args.posonlyargs + func.args.args
        for i in range(len(args) - len(func.args.defaults), len(args)):
            defaulted[f"{qualname}.{args[i].arg}"] = (func.name, args[i].arg, i - bound)
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                defaulted[f"{qualname}.{arg.arg}"] = (func.name, arg.arg, None)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions = (*functions, ast.ClassDef)
    paths = sorted((REPO / "src" / "nodegae").glob("*.py")) + sorted((REPO / "tools").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    exports = [f"{path.relative_to(REPO)}:{node.lineno}"
               for path in paths for node in ast.walk(trees[path.stem])
               if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "__all__"
               and isinstance(node.ctx, ast.Store)]
    assert exports == [], "__all__ is assigned at " + ", ".join(exports)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    returned = {}  # function or method name -> the classes its definitions return
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                returned.setdefault(node.name, set()).add(
                    node.returns and _annotated_class(node.returns, classes))
    returns = {name: kind for name, (kind, *more) in returned.items() if kind and not more}
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defined.update(d.name for d in [node, *members]
                           if isinstance(d, definitions) and not d.name.startswith("_"))
            if isinstance(node, functions) and not node.name.startswith("_"):
                note_defaults(f"{module}.{node.name}", node, 0)
            for member in members:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in member.decorator_list)
                    note_defaults(f"{module}.{node.name}.{member.name}", member, 0 if static else 1)
            if isinstance(node, ast.ClassDef) and _is_record(node):
                record_fields.update((node.name, s.target.id) for s in node.body
                                     if isinstance(s, ast.AnnAssign)
                                     and isinstance(s.target, ast.Name))
        Uses().visit(tree)

    def is_passed(name, parameter, position):
        keys = {(name, parameter), (name, "**")}
        if position is not None:
            keys |= {(name, position), (name, "*")}
        return bool(keys & passed)

    assert sorted(defined - used) == sorted(UNCALLED_PUBLIC_API)
    unpassed = [key for key, how in defaulted.items() if not is_passed(*how)]
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS)
    unread = [f"{cls}.{field}" for cls, field in record_fields
              if (cls, field) not in read and (None, field) not in read]
    assert sorted(unread) == []
