"""Every exception type in errors.py is raised by the package."""

import ast
import pathlib

import bandchol

SRC = pathlib.Path(bandchol.__file__).resolve().parent


def raised_names(tree):
    """The names in the raise statements of a module: raise X and raise X(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_type_is_raised():
    # BandcholError is the base the others share, never raised itself
    defined = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)} - {"BandcholError"}
    raised = {name for path in SRC.glob("*.py") if path.name != "errors.py"
              for name in raised_names(ast.parse(path.read_text()))}
    assert defined and not defined - raised, sorted(defined - raised)
