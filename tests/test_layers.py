"""The package's modules import one way, each from the layers below it."""

import ast
import pathlib

import bandchol

# lowest first; bayes and competitors share a layer and import neither the other
LAYERS = (("errors",), ("linalg",), ("mcd",), ("stats",), ("bayes", "competitors"),
          ("bandwidth",), ("simulate",), ("cli",))
# the package's entry points, above every layer
ENTRY_POINTS = {"__init__", "__main__"}


def test_relative_imports_run_down_the_layers():
    level = {name: i for i, names in enumerate(LAYERS) for name in names}
    sources = sorted(pathlib.Path(bandchol.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} == set(level) | ENTRY_POINTS
    for path in sources:
        if path.stem in ENTRY_POINTS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                for name in names:
                    assert level[name] < level[path.stem], f"{path.stem} imports {name}"
