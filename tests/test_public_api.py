"""Census of the public API: every name floerlab exports has a reader.

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
