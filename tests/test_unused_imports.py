"""Every name a module imports is read somewhere in that module, and every
name the package defines at top level is read somewhere in the project."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/mibvqa", "tests")
                 for path in (ROOT / folder).glob("*.py"))
PACKAGE = sorted((ROOT / "src/mibvqa").glob("*.py"))
READERS = MODULES + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str, package_init: bool = False) -> list:
    """(line, name) of every imported name the module never reads.

    `import a.b` binds `a`; `from __future__` imports and star imports bind
    nothing checked. In a package's __init__.py the entries of __all__
    count as reads: they are what its imports re-export.
    """
    tree = ast.parse(source)
    imported = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif (package_init and isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            reads.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in reads)


def test_the_checker_flags_only_names_never_read():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import pi, tau\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    return os.path.join(js.dumps(pi))\n")
    assert unused_imports(source) == [(4, "tau")]
    init = "from .core import train, evaluate\n__all__ = ['train']\n"
    assert unused_imports(init) == [(1, "evaluate"), (1, "train")]
    assert unused_imports(init, package_init=True) == [(1, "evaluate")]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(path.read_text(encoding="utf-8"),
                                               path.name == "__init__.py")]
    assert unused == []


def top_level_names(source: str) -> list:
    """(line, name) of every def, class and assignment target in the
    module's own body; dunder names (__all__) are left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(node.lineno, name.id) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return [(line, name) for line, name in names if not re.fullmatch(r"__\w+__", name)]


def read_names(source: str) -> set:
    """Every name the module reads: a name load, an attribute load, or a
    string constant that is a dotted name (each of its parts), as in
    setattr(module, "name", ...) or a table of names to wrap."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            reads.update(node.value.split("."))
    return reads


def test_the_dead_name_checker_sees_defs_classes_assignments_and_reads():
    source = ("import json\n"
              "__all__ = ['f']\n"
              "A, (B, C) = 1, (2, 3)\n"
              "D: int = 4\n"
              "class E:\n"
              "    inner = 5\n"
              "def f():\n"
              "    return json.dumps(A)\n")
    assert top_level_names(source) == [(3, "A"), (3, "B"), (3, "C"), (4, "D"),
                                       (5, "E"), (7, "f")]
    reads = read_names("x.B\nsetattr(x, 'C', 1)\nwrap = 'mod.D'\nnote = 'E is dead'\n")
    assert {"x", "B", "C", "mod", "D", "setattr"} <= reads
    assert "E" not in reads and "wrap" not in reads


def test_every_top_level_name_of_the_package_is_read_somewhere():
    reads = set().union(*(read_names(path.read_text(encoding="utf-8"))
                          for path in READERS))
    dead = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in PACKAGE
            for line, name in top_level_names(path.read_text(encoding="utf-8"))
            if name not in reads]
    assert dead == []
