"""Write the import digraph of the running interpreter's standard library.

    python tests/data/stdlib_imports.py > tests/data/stdlib-imports-3.11.edges

The checked-in fixture was written by CPython 3.11.7; other versions and
builds give other graphs, which is why the output is kept as a file.

The rules:

* one vertex per ``.py`` module under ``sysconfig.get_paths()["stdlib"]``,
  skipping the directories ``test``, ``tests``, ``idlelib``, ``lib2to3*``,
  ``site-packages`` and ``__pycache__``; ids follow the sorted module names;
* one arc from importer to imported for ``import x`` and for absolute
  ``from x import ...``, found with ``ast.walk`` (so imports inside functions
  and ``try`` blocks count), where ``x`` resolves to its longest dotted
  prefix that is a module; names that resolve to none, repeated arcs and
  self-imports are dropped.

Import cycles stay in: read the file with ``read_arc_list`` and contract
them with ``condense_scc``.  The output is an edge list whose comment lines
name the module of each id.
"""

import ast
import os
import sys
import sysconfig

SKIPPED_DIRS = {"test", "tests", "idlelib", "site-packages", "__pycache__"}


def stdlib_modules(root: str) -> dict[str, str]:
    """Dotted module name -> file path, for every ``.py`` file kept."""
    modules = {}
    for folder, dirs, files in os.walk(root):
        dirs[:] = [
            d for d in dirs if d not in SKIPPED_DIRS and not d.startswith("lib2to3")
        ]
        rel = os.path.relpath(folder, root)
        package = [] if rel == os.curdir else rel.split(os.sep)
        for name in files:
            if name.endswith(".py"):
                parts = package if name == "__init__.py" else [*package, name[:-3]]
                modules[".".join(parts)] = os.path.join(folder, name)
    return modules


def imported_names(path: str):
    with open(path, "rb") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def import_arcs(modules: dict[str, str]) -> set[tuple[str, str]]:
    def resolve(name):
        parts = name.split(".")
        for k in range(len(parts), 0, -1):
            prefix = ".".join(parts[:k])
            if prefix in modules:
                return prefix
        return None

    arcs = set()
    for importer, path in modules.items():
        for name in imported_names(path):
            target = resolve(name)
            if target is not None and target != importer:
                arcs.add((importer, target))
    return arcs


def main() -> int:
    modules = stdlib_modules(sysconfig.get_paths()["stdlib"])
    ids = {name: i for i, name in enumerate(sorted(modules))}
    arcs = sorted((ids[u], ids[v]) for u, v in import_arcs(modules))
    out = sys.stdout
    version = sys.version.split()[0]
    out.write(f"# import digraph of the Python {version} standard library\n")
    out.write("# written by tests/data/stdlib_imports.py; cycles included\n")
    out.writelines(f"# {i} {name}\n" for name, i in ids.items())
    out.write(f"p {len(ids)} {len(arcs)}\n")
    out.writelines(f"{u} {v}\n" for u, v in arcs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
