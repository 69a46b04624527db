"""Every name a module imports is read somewhere in that module."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/mibvqa", "tests")
                 for path in (ROOT / folder).glob("*.py"))


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
