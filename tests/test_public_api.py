"""Census of the public API: every name floerlab exports has a reader, every
module-level function is referenced in the package, and every defaulted
parameter has a call that passes it (see the later sections).

A name exported by floerlab/__init__.py must either be named in README.md,
which makes it public API, or be reached from a program entry: the
module-level code of src/floerlab and perfbench (cli's reaches `main`,
the `floerlab` entry point), and the functions perfbench's tracer hooks by
name in its HOOKS table.  Reach follows identifiers, read as names or
attributes, from one top-level definition to the next; a definition read
only by itself, by dead code or in type annotations is not reached.  Test
files are not readers.
"""

from __future__ import annotations

import ast
import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "floerlab"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def _program_files() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return sorted(files)


def _reads(nodes) -> set[str]:
    """Identifiers the nodes read as names or attributes, skipping annotations."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d]
            stack += node.body
            continue
        if isinstance(node, ast.ClassDef):
            stack += node.decorator_list + node.bases + node.body
            continue
        if isinstance(node, ast.AnnAssign):
            stack += [node.target] + ([node.value] if node.value else [])
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue  # binding a name is not reading it
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack += ast.iter_child_nodes(node)
    return found


def _hooked() -> set[str]:
    """The names in perfbench's tracer HOOKS table, "Class.method" split at the dot."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "HOOKS")
    return {
        part
        for node in ast.walk(table)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }


def _unread(exported: list[str], readme: str, sources: list[str], hooked: set[str]) -> list[str]:
    """The exported names no program entry reaches and README does not name, in export order."""
    defs: dict[str, set[str]] = {}
    roots = hooked | {name for name in exported if re.search(rf"\b{name}\b", readme)}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_reads([node]) - {node.name})
            else:
                roots |= _reads([node])
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += defs.get(name, ())
    return [name for name in exported if name not in reached]


def test_every_exported_name_has_a_reader_or_is_public_api():
    sources = [p.read_text() for p in _program_files()]
    unread = _unread(_exported(), (ROOT / "README.md").read_text(), sources, _hooked())
    assert not unread, f"exported but never read and not in README.md: {unread}"


def test_census_follows_reads_from_the_entries():
    source = """
def used(): return helper()
def helper(): return 1
def dead(): return read_by_dead()
def read_by_dead(): return 1
def annotated(x: Annot) -> Annot: return x
def recursive(n): return recursive(n - 1)
class Holder:
    def method(self): return from_method()
def from_method(): return 1
entry = used() or Holder
"""
    exported = ["used", "helper", "dead", "read_by_dead", "Annot", "recursive", "from_method", "hooked", "public"]
    unread = _unread(exported, "see `public`", [source], {"hooked"})
    assert unread == ["dead", "read_by_dead", "Annot", "recursive"]


# ---------------------------------------------------------------------------
# Census of module-level functions: each is referenced in src/floerlab.
#
# A function of the package that no code of the package names serves only
# the tests.  A reference is a name or attribute read anywhere in
# src/floerlab, as _reads finds them, so a runner held in a dict such as
# suites.SUITES counts, or a name __init__.py exports.  A function's reads of
# its own name in its own body are not references.


def _unreferenced(sources: list[str], exported: list[str]) -> list[str]:
    """The module-level functions of the sources that nothing else references, in source order."""
    functions, references = [], set(exported)
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(node.name)
                references |= _reads([node]) - {node.name}
            else:
                references |= _reads([node])
    return [name for name in functions if name not in references]


def test_every_module_level_function_is_referenced_in_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    unreferenced = _unreferenced(sources, _exported())
    assert not unreferenced, f"functions nothing in src/floerlab references: {unreferenced}"


def test_reference_census_rules():
    source = """
def called(): return helper()
def helper(): return 1
def only_tests(): return 1
def recursive(n): return recursive(n - 1)
def annotated(x: only_in_annotation) -> only_in_annotation: return x
def only_in_annotation(): return 1
def runner(cfg): return cfg
def exported(): return 1
def from_another_file(): return 1
class Holder:
    def method(self): return from_method()
def from_method(): return 1
def attribute(): return 1
TABLE = {"run": runner}
entry = called() or module.attribute
"""
    unreferenced = _unreferenced([source, "value = from_another_file()"], ["exported"])
    assert unreferenced == ["only_tests", "recursive", "annotated", "only_in_annotation"]


# ---------------------------------------------------------------------------
# Census of defaulted parameters: every one has a call that passes it.
#
# A defaulted parameter that no call passes is a setting no run changes; it
# belongs in a module constant.  The calls are those in src/, perfbench/ and
# tests/, matched to definitions by the callee's bare name (`f(...)`,
# `obj.f(...)`, and `C(...)` for `C.__init__`).  A call passes a parameter
# by keyword, or by position when it has more leading positional arguments
# than the parameter's index (self not counted).  `*args` passes nothing;
# `**mapping` passes the string keys of the dict displays in the call's own
# file.  An argument that is the bare name of an unset defaulted parameter of
# the enclosing function forwards that parameter, and sets nothing.


def _walk(tree: ast.AST, module: str):
    """Each node, with the qualified name of its innermost enclosing function
    (None at module level), the prefix of its own qualified name, and its
    directly enclosing class (or None)."""
    todo = [(tree, None, module, None)]
    while todo:
        node, owner, prefix, cls = todo.pop()
        for child in ast.iter_child_nodes(node):
            yield child, owner, prefix, cls
            if isinstance(child, ast.ClassDef):
                todo.append((child, owner, f"{prefix}.{child.name}", child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((child, f"{prefix}.{child.name}", f"{prefix}.{child.name}", None))
            else:
                todo.append((child, owner, prefix, cls))


def _defaulted(program: dict[str, str]) -> dict[str, list[tuple[str, str, int | None]]]:
    """Callee name -> (function, parameter, positional index or None) per defaulted parameter."""
    found: dict[str, list[tuple[str, str, int | None]]] = {}
    for module, source in program.items():
        for node, _, prefix, cls in _walk(ast.parse(source), module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            bound = int(cls is not None and not static)
            first = len(positional) - len(args.defaults)
            owner = f"{prefix}.{node.name}"
            entries = found.setdefault(cls if cls and node.name == "__init__" else node.name, [])
            entries += [(owner, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            entries += [(owner, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _argument(call: ast.Call, name: str, index: int | None) -> ast.expr | None:
    """The expression a call gives the parameter by keyword or by position, if any."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    leading = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args))
    return leading[index] if index is not None and index < len(leading) else None


def _unset_defaults(program: dict[str, str], others: list[str]) -> list[str]:
    """`function(parameter)` for each defaulted parameter of the program that no call passes.

    program maps module names to sources; the calls counted are those in
    the program and in the other sources.
    """
    defs = _defaulted(program)
    defaulted = {(owner, name) for entries in defs.values() for owner, name, _ in entries}
    passes = []  # (parameter, the enclosing function's parameter it forwards, or None)
    for module, source in [*program.items(), *(("", s) for s in others)]:
        tree = ast.parse(source)
        keys = {
            k.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
        for call, owner, _, _ in _walk(tree, module):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            callee = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            spread = any(k.arg is None for k in call.keywords)
            for target, name, index in defs.get(callee, ()):
                arg = _argument(call, name, index)
                if arg is not None:
                    forwarded = isinstance(arg, ast.Name) and (owner, arg.id) in defaulted
                    passes.append(((target, name), (owner, arg.id) if forwarded else None))
                elif spread and name in keys:
                    passes.append(((target, name), None))
    passed: set[tuple[str, str]] = set()
    grew = True
    while grew:
        grew = False
        for param, via in passes:
            if param not in passed and (via is None or via in passed):
                passed.add(param)
                grew = True
    return sorted(f"{owner}({name})" for owner, name in defaulted - passed)


def test_every_defaulted_parameter_is_passed_by_some_call():
    program = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for d in ("perfbench", "tests") for p in sorted((ROOT / d).rglob("*.py"))]
    unset = _unset_defaults(program, others)
    assert not unset, f"defaulted parameters no call passes; make them module constants: {unset}"


def test_parameter_census_rules():
    program = {
        "mod": """
def plain(a, b=1, *, c=2): return a
def forwards(x, depth=3): return plain(x, depth)
def recursive(n, acc=0): return recursive(n - 1, acc)
def inner(a, mode="x"): return a
def outer(a, mode="y"): return inner(a, mode=mode)
def starred(a, k=0): return a
def spread(a, budget=1): return a
class Box:
    def __init__(self, size=4): self.size = size
    def grow(self, by=1): return self.size + by
    @staticmethod
    def make(width=2): return Box()
"""
    }
    caller = """
plain(0, c=5)
outer(1, mode="z")
starred(*[1, 2])
spread(0, **opts)
opts = {"budget": 3}
Box(8).grow()
Box.make(3)
"""
    assert _unset_defaults(program, [caller]) == [
        "mod.Box.grow(by)",
        "mod.forwards(depth)",
        "mod.plain(b)",
        "mod.recursive(acc)",
        "mod.starred(k)",
    ]
    # the same call in a file with no such dict display passes nothing
    assert "mod.spread(budget)" in _unset_defaults(program, [caller.replace('"budget"', '"other"')])


def test_a_map_is_its_chart():
    # a superposition map is evaluated from its chart, and charts compose
    # through compose_charts: no map type or map compose is exported
    import floerlab
    from floerlab import floer_map

    for name in ("SuperpositionMap", "compose"):
        assert name not in _exported()
        assert not hasattr(floerlab, name)
        assert not hasattr(floer_map, name)
