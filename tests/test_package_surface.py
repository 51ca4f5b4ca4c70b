"""Every public function and class of the package is used by the package or the benchmark.

Code that only the tests call belongs beside the tests (``oracles.py``). A
name counts as used when its own module refers to it, or when another module
of ``src/airtwin/`` or of ``perfbench/`` (its tests aside) imports it from its
module or reads it as an attribute of that module. A bare name elsewhere does
not count: ``perfbench.workloads.load_scene`` is not ``airtwin.scene``'s.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "airtwin"


def module_name(path: pathlib.Path) -> str:
    if path.is_relative_to(PACKAGE):
        return "airtwin" if path.stem == "__init__" else f"airtwin.{path.stem}"
    return ".".join(path.relative_to(ROOT).with_suffix("").parts)


def absolute(module: str | None, level: int, importer: str) -> str:
    """The module an ``from <module> import`` in ``importer`` names."""
    if level == 0:
        return module or ""
    base = importer.split(".")[:-level]
    return ".".join(base + ([module] if module else []))


def definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(tree: ast.Module, importer: str) -> set[tuple[str, str]]:
    """The (module, name) pairs ``tree`` imports from a module or reads off one."""
    used, modules = set(), {}   # modules: local dotted name -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = absolute(node.module, node.level, importer)
            for alias in node.names:
                used.add((source, alias.name))
                modules[alias.asname or alias.name] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    modules.update({p: p for p in
                                    (".".join(alias.name.split(".")[:i + 1])
                                     for i in range(alias.name.count(".") + 1))})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = ast.unparse(node.value)
            if value in modules:
                used.add((modules[value], node.attr))
    return used


def self_references(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def sources() -> list[pathlib.Path]:
    bench = [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts]
    return sorted(PACKAGE.glob("*.py")) + sorted(bench)


def test_every_public_name_has_a_use_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in sources()}
    used = set().union(*(references(tree, module_name(path)) for path, tree in trees.items()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree, module = trees[path], module_name(path)
        own = self_references(tree)
        unused += [f"{module}.{name}" for name in definitions(tree)
                   if name not in own and (module, name) not in used]
    assert unused == []


def test_a_name_only_the_tests_use_is_found():
    tree = ast.parse("def helper():\n    pass\n\ndef used():\n    pass\n\nused()\n")
    assert definitions(tree) == ["helper", "used"]
    assert self_references(tree) == {"used"}
    importer = ast.parse("from . import kernels\nimport airtwin.scene\n"
                         "from .spectrum import beam_rsrp\n"
                         "kernels.chunks(1)\nairtwin.scene.read_json('x', 'y')\n")
    assert references(importer, "airtwin.cli") >= {
        ("airtwin.kernels", "chunks"), ("airtwin.scene", "read_json"),
        ("airtwin.spectrum", "beam_rsrp")}
    bare = ast.parse("def load_scene():\n    pass\n\nload_scene()\n")
    assert references(bare, "perfbench.workloads") == set()
