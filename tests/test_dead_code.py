"""No dead helpers: every function, method and module-level class defined in
src/spiroflow/ is referenced by name from the package, scripts/ or perfbench/,
outside its own definition.  Only the code's syntax tree counts, so a name that appears in a
docstring, a comment or a test does not keep a helper alive."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# unreferenced on purpose, each with its reason
ALLOWED = {
    "training.grad_check": "the tests' finite-difference reference for every analytic gradient",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node) of every function, method and module-level
    class in the module."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{child.name}", child
                yield from walk(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                if node is tree:
                    yield f"{prefix}.{child.name}", child
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _references(tree: ast.Module):
    """(name, ids of the enclosing function and class nodes) for every
    ast.Name and ast.Attribute in the tree."""

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)

    yield from walk(tree, frozenset())


def unreferenced(root: Path = ROOT) -> list[str]:
    package = root / "src" / "spiroflow"
    scope = [path for d in (package, root / "scripts", root / "perfbench") for path in sorted(d.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in scope}
    refs: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    dead = []
    for path in sorted(package.glob("*.py")):
        for qualname, node in _definitions(trees[path], path.stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(id(node) not in enclosing for enclosing in refs.get(node.name, [])):
                dead.append(qualname)
    return sorted(dead)


def test_every_helper_is_referenced():
    assert unreferenced() == sorted(ALLOWED)


def test_a_helper_named_only_in_its_own_body_or_docstring_is_dead(tmp_path):
    package = tmp_path / "src" / "spiroflow"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def live():\n"
        "    return helper(), Box\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def recursive(n):\n"
        '    """Calls recursive, and mentions orphan."""\n'
        "    return recursive(n - 1) if n else live\n"
        "\n"
        "def orphan():\n"
        "    pass\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def used(self):\n"
        "        return self\n"
        "\n"
        "    def unused(self):\n"
        "        return self.used()\n"
        "\n"
        "class Orphan:\n"
        '    """Named only in its own body, as Orphan."""\n'
        "    def copy(self):\n"
        "        return Orphan()\n"
    )
    assert unreferenced(tmp_path) == ["mod.Box.unused", "mod.Orphan", "mod.Orphan.copy", "mod.orphan", "mod.recursive"]
