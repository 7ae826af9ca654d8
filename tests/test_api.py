"""The public surface: exported names and the error classes."""

import ast
import inspect
from pathlib import Path

import symindex
from symindex import errors


def test_exported_names_resolve_once():
    names = symindex.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(symindex, n)] == []


def _raised_names():
    """Names of the exception classes in every raise statement of the package."""
    raised = set()
    for path in Path(symindex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return raised


def test_every_error_class_is_raised():
    # the base class and the catch-all for malformed input are exempt
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert classes - {"SymindexError", "InputError"} - _raised_names() == set()
