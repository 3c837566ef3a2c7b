"""Package shape: NumPy-only at runtime, modules that import each other one
way, and the README's import block works."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_runtime_imports_are_relative_numpy_or_stdlib():
    for path in sorted((ROOT / "src" / "csicodec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                continue
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def relative_imports() -> dict:
    """Module -> the package modules it imports (`from .x import`, `from .
    import x`), anywhere in its source."""
    package = ROOT / "src" / "csicodec"
    modules = {p.stem for p in package.glob("*.py")}
    graph = {}
    for name in modules:
        deps = graph[name] = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module
                            else (a.name for a in node.names if a.name in modules))
    return graph


def test_package_modules_import_each_other_one_way():
    graph = relative_imports()
    assert "training" not in graph["codec"]
    assert {"codec", "evaluate"} <= graph["training"]
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(path + [name])
        if name not in done:
            path.append(name)
            for dep in sorted(graph[name]):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^from csicodec import \(.*?\)", readme, re.S | re.M)
    assert block is not None, "README has no `from csicodec import (...)` block"
    exec(compile(block.group(0), "README.md", "exec"), {})
