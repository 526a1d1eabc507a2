"""Every public name the package defines has a caller outside the tests.

A public top-level function, class or module constant of `src/prooforge`,
or a public method of a top-level class, must be named by code in
`src/prooforge` (the package's `__init__.py` aside, since it only
re-exports), in `perfbench/` (its tests aside) or in `demos/`. A name only
tests use is API nothing needs: delete it, or test it through the code that
ships.

"Named" is read off the syntax tree, so a mention in a comment or a string
does not count. A function, class or constant counts when it is loaded as a
name, read as an attribute or imported; a method only when it is read as an
attribute, since a bare name of the same spelling is some other thing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prooforge"

def _shipped_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files.extend(sorted((ROOT / "perfbench").glob("*.py")))
    files.extend(sorted((ROOT / "demos").glob("*.py")))
    return files


def _definitions():
    """(module, kind, name) of each public definition in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((path.stem, "function", node.name))
            elif isinstance(node, ast.ClassDef):
                found.append((path.stem, "class", node.name))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.append((path.stem, "method", item.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        found.append((path.stem, "constant", target.id))
    return [entry for entry in found if not entry[2].startswith("_")]


def _references():
    """The names read as names or imported, and the names read as attributes,
    across the shipped files."""
    names: set = set()
    attributes: set = set()
    for path in _shipped_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


DEFINITIONS = _definitions()
NAMES, ATTRIBUTES = _references()


def test_the_walk_finds_the_package():
    kinds = {kind for _module, kind, _name in DEFINITIONS}
    assert kinds == {"function", "class", "method", "constant"}
    assert ("tokenizer", "function", "tokenize_term") in DEFINITIONS


def _unnamed():
    return [
        f"{module}.{name}"
        for module, kind, name in DEFINITIONS
        if name not in (ATTRIBUTES if kind == "method" else NAMES | ATTRIBUTES)
    ]


def test_every_public_name_has_a_caller():
    unnamed = _unnamed()
    assert not unnamed, "named nowhere in src/, perfbench/ or demos/: " + ", ".join(unnamed)
