"""Every public function and method of the package has a caller outside
the tests.

An AST scan, no imports: a public module-level function of
``src/totseg/*.py``, and a public method or property of a public class
there, must be referenced by name, as a Name or an Attribute, somewhere in
the package, ``demos/``, ``scripts/`` or ``perfbench/`` other than its own
``def`` and ``__init__.py``. A function that only tests call is surface to
delete, or a path the program forgot to take. And every name
``totseg.__all__`` exports exists.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "totseg"
CALLERS = ("src/totseg/*.py", "demos/*.py", "scripts/*.py", "perfbench/**/*.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_defs(body):
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def public_functions():
    """(module stem, qualified name, name) for every public module-level def
    and every public method or property of a public module-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in public_defs(parse(path).body):
            if isinstance(node, ast.FunctionDef):
                found.append((path.stem, node.name, node.name))
                continue
            for method in public_defs(node.body):
                if isinstance(method, ast.FunctionDef):
                    found.append((path.stem, f"{node.name}.{method.name}", method.name))
    return found


def referenced_names():
    """Name ids and Attribute attrs of every caller file; a function's own
    body does not count as a reference to its name."""
    names = set()
    for pattern in CALLERS:
        for path in sorted(ROOT.glob(pattern)):
            if path == PACKAGE / "__init__.py":
                continue
            for statement in parse(path).body:
                found = {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(statement)
                    if isinstance(node, (ast.Name, ast.Attribute))
                }
                if isinstance(statement, ast.FunctionDef):
                    found.discard(statement.name)
                names |= found
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    functions = public_functions()
    assert len(functions) > 40  # the scan found the package
    assert any("." in qualified for _, qualified, _ in functions)  # and its methods
    names = referenced_names()
    unreferenced = [
        f"{module}.{qualified}" for module, qualified, name in functions if name not in names
    ]
    assert unreferenced == []


def test_every_exported_name_exists():
    import totseg

    assert [name for name in totseg.__all__ if not hasattr(totseg, name)] == []
