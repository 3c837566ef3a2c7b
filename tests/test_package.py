"""Package shape: NumPy-only at runtime, and the README's import block works."""

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


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^from csicodec import \(.*?\)", readme, re.S | re.M)
    assert block is not None, "README has no `from csicodec import (...)` block"
    exec(compile(block.group(0), "README.md", "exec"), {})
