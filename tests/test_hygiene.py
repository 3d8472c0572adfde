"""Source hygiene: no module of the package imports a name it never reads
or imports inside a function body, no function takes a parameter it never
reads, no function or method outside the references is left that no
package code reads, and every name a module exports in ``__all__`` is
bound in it."""

import ast
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pstray"


def exported(tree: ast.Module) -> set[str]:
    """The string entries of every ``__all__ = [...]`` assignment."""
    return {elt.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts}


def unbound_exports(source: str) -> list[str]:
    """``__all__`` entries of ``source`` that no top-level statement binds
    (a def, a class, an import or an assignment)."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return sorted(exported(tree) - bound)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read, skipping
    ``from __future__`` imports, names listed in ``__all__`` and import
    statements whose last line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import sys  # noqa: F401\n"
              "from a import (b,\n"
              "               c)\n"
              "from d import e as f, g\n"
              "__all__ = ['g']\n"
              "print(b, os.sep)\n")
    assert unused_imports(source) == ["line 4: c", "line 6: f"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []


def test_unbound_export_check_sees_what_it_should():
    source = ("import os.path\n"
              "from a import b as c\n"
              "d, (e, f) = 1, (2, 3)\n"
              "g: int = 4\n"
              "def h(): i = 5\n"
              "class J: pass\n"
              "__all__ = ['os', 'c', 'd', 'e', 'f', 'g', 'h', 'J',\n"
              "           'b', 'i', 'gone']\n")
    assert unbound_exports(source) == ["b", "gone", "i"]


# The one import made inside a function: ``index_io.load`` looks up
# ``validate_psa`` per call, so that a wrapper installed on
# ``suffixes.validate_psa`` (the benchmark's load span) sees the call.
FUNCTION_IMPORTS = {"index_io.py": ["load: validate_psa"]}


def function_imports(source: str) -> list[str]:
    """``function: names`` for every import statement inside a function
    body, named after the innermost function around it."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                names = ", ".join(a.name for a in child.names)
                found.append(f"{function}: {names}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == \
        FUNCTION_IMPORTS.get(path.name, [])


def test_function_import_check_sees_what_it_should():
    source = ("import os\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from a import b\n"
              "def f():\n"
              "    import sys\n"
              "    def g():\n"
              "        from c import d, e\n"
              "    return sys\n"
              "class K:\n"
              "    def m(self):\n"
              "        if self:\n"
              "            from .x import y\n")
    assert function_imports(source) == ["f: sys", "g: d, e", "m: y"]


def unread_parameters(source: str) -> list[str]:
    """``function: parameter`` for every parameter that its function's body
    never reads, skipping ``self``, ``cls`` and names starting with ``_``.
    A read inside a nested function counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}: {p}" for p in params
                  if p not in read and p not in ("self", "cls")
                  and not p.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_check_sees_what_it_should():
    source = ("def f(a, b, *c, d, e=1, **g):\n"
              "    def h(i, j):\n"
              "        return a + i\n"
              "    return d, c\n"
              "class K:\n"
              "    def m(self, _n, o):\n"
              "        o = 1\n"
              "        return o\n"
              "    @classmethod\n"
              "    def p(cls, q):\n"
              "        return [q for _ in cls]\n")
    assert unread_parameters(source) == [
        "f: b", "f: e", "f: g", "h: j"]


# Attribute names of the builtin and numpy types the package handles. Reads
# are matched by name alone, so a read of ``x.decode`` cannot tell a
# package method from ``bytes.decode``: a method with one of these names is
# reported unless ``SHADOWED_READS`` lists it.
SHADOWED = frozenset().union(*(dir(t) for t in (
    str, bytes, list, dict, set, memoryview, np.ndarray)))

# Package methods named like one of those attributes, each with the package
# line (``file: stripped line``) that reads it as the method.
SHADOWED_READS = {
    "size": 'cli.py: "nodes": tree.size, "pnodes": pnodes,',  # TrayTree.size
}


def unread_functions(sources: dict[str, str], exempt,
                     allowed) -> list[str]:
    """``file: qualified name`` for every function and method defined in
    ``sources`` (file name -> source) whose name no code in any of them
    reads, as a variable or as an attribute, outside that function's own
    body, or whose name is in ``SHADOWED`` and not in ``allowed``. Dunder
    names and the names in ``exempt`` are skipped. Reads are matched by
    name alone, so a read of a method's name anywhere counts."""
    reads = []  # (file, name, line)
    defs = []  # (file, qualified name, name, first line, last line)
    for path, source in sources.items():
        module = ast.parse(source)
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.id, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.append((path, node.attr, node.lineno))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((path, prefix + child.name, child.name,
                                 child.lineno, child.end_lineno))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(module, "")
    return [f"{path}: {qualname}" for path, qualname, name, first, last in defs
            if not (name.startswith("__") and name.endswith("__"))
            and name not in exempt
            and (name in SHADOWED and name not in allowed
                 or not any(read == name and not (where == path
                                                  and first <= line <= last)
                            for where, read, line in reads))]


def test_every_function_is_read():
    """Each function or method of the package is read by package code, or
    is exported in ``pstray.__all__``; the brute-force references in
    ``oracle.py`` serve the tests and ``self-check`` and are exempt."""
    import pstray
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert [f for f in unread_functions(sources, set(pstray.__all__),
                                        set(SHADOWED_READS))
            if not f.startswith("oracle.py: ")] == []


@pytest.mark.parametrize("name", sorted(SHADOWED_READS))
def test_shadowed_reads_are_where_listed(name):
    """Each allowed shadowed name is an attribute of a builtin or numpy
    type, and its listed package line reads it as an attribute."""
    where, line = SHADOWED_READS[name].split(": ", 1)
    source = (PACKAGE / where).read_text()
    assert name in SHADOWED
    assert line in (row.strip() for row in source.splitlines())
    assert f".{name}" in line


def test_unread_function_check_sees_what_it_should():
    sources = {
        "a.py": ("def used(x):\n"
                 "    return used(x - 1) if x else helper()\n"
                 "def helper():\n"
                 "    def inner():\n"
                 "        return 1\n"
                 "    return 0\n"
                 "def recursive(x):\n"
                 "    return recursive(x)\n"
                 "def public():\n"
                 "    return 2\n"),
        "b.py": ("from a import used\n"
                 "class K:\n"
                 "    def __init__(self):\n"
                 "        self.m = 1\n"
                 "    def read(self):\n"
                 "        return self.m\n"
                 "    def dead(self):\n"
                 "        return self.dead\n"
                 "print(K().read(), used(3))\n"),
        "c.py": ("class D:\n"
                 "    def decode(self):\n"
                 "        return 1\n"
                 "    def copy(self):\n"
                 "        return 2\n"
                 "print(b''.decode(), D().copy())\n"),
    }
    assert unread_functions(sources, {"public"}, {"copy"}) == [
        "a.py: helper.inner", "a.py: recursive", "b.py: K.dead",
        "c.py: D.decode"]


def test_star_import_of_the_package_runs():
    namespace = {}
    exec("from pstray import *", namespace)
    import pstray
    assert set(pstray.__all__) <= set(namespace)


# The tray's construction path, the suffix sort's correction offsets and
# the suffix-array checks run as whole-array numpy passes, with no
# per-node, per-symbol or per-depth Python loop.
ARRAY_PASSES = {
    "suffixes.py": {"validate_psa": [], "_window_symbols": [],
                    "_last_corrections": []},
    "tree.py": {"build_tree": [], "tray_shape": []},
    "tray.py": {"_first_after": [], "_canonical_ids": [],
                "annotate": [], "_ranges": []},
}


def python_loops(source: str, names) -> dict[str, list[str]]:
    """Per named top-level function of ``source``: its ``for`` and
    ``while`` loops (``for <target>``, ``while``) and comprehensions (by
    node type), nested functions included, in source order."""
    kinds = {ast.ListComp: "listcomp", ast.SetComp: "setcomp",
             ast.DictComp: "dictcomp", ast.GeneratorExp: "genexp",
             ast.While: "while"}
    found = {}
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in names):
            continue
        loops = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                kind = f"for {ast.unparse(sub.target)}"
            elif type(sub) in kinds:
                kind = kinds[type(sub)]
            else:
                continue
            loops.append((sub.lineno, sub.col_offset, kind))
        found[node.name] = [kind for *_, kind in sorted(loops)]
    return found


@pytest.mark.parametrize("name", sorted(ARRAY_PASSES))
def test_construction_has_no_per_node_loop(name):
    want = ARRAY_PASSES[name]
    assert python_loops((PACKAGE / name).read_text(), want) == want


def test_loop_check_sees_what_it_should():
    source = ("def f(xs):\n"
              "    for a, b in xs:\n"
              "        while a:\n"
              "            a -= 1\n"
              "    def g():\n"
              "        return {k: v for k, v in xs}\n"
              "    return [x for x in xs], sum(x for x in xs), \\\n"
              "        {x for x in xs}\n"
              "def h(xs):\n"
              "    return xs.tolist()\n"
              "def skipped(xs):\n"
              "    for x in xs:\n"
              "        pass\n")
    assert python_loops(source, {"f", "h", "absent"}) == {
        "f": ["for (a, b)", "while", "dictcomp", "listcomp", "genexp",
              "setcomp"],
        "h": []}
