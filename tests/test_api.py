"""The public surface: exported names and the error classes."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import symindex
from symindex import (
    SymplecticSpace,
    conley_zehnder,
    is_hamiltonian,
    krein_spectrum,
    lagrangian_frame,
    make_system,
    maslov_index_symplectic,
    standard_J,
    subspace_intersection,
    symplectic_orthogonal,
)
from symindex import errors
from symindex.errors import InputError
from symindex.symplectic import max_principal_angle


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


def _top_level(trees):
    """(module, name, referenced names) of every top-level statement."""
    for module, tree in trees.items():
        for node in tree.body:
            refs = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            yield module, name, refs - {name}


def test_every_definition_is_exported_or_used():
    # same_span is the span comparator the tests use
    package = Path(symindex.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    entries = list(_top_level(trees))
    used = set().union(*(refs for _, _, refs in entries)) | set(symindex.__all__)
    dead = {"%s.%s" % (module, name) for module, name, _ in entries
            if name is not None and name not in used}
    assert dead - {"symplectic.same_span"} == set()


# -- one contract per operand: real finite rectangular matrices -----------------

ROTATION = 5.0 * standard_J(1)
COMPLEX_GENERATOR = ROTATION + 2j * standard_J(1)
COMPLEX_FRAME = np.array([[1.0], [1j]])

COMPLEX_CALLS = {
    "make_system": lambda: make_system(COMPLEX_GENERATOR),
    "maslov_index_symplectic": lambda: maslov_index_symplectic(COMPLEX_GENERATOR),
    "conley_zehnder": lambda: conley_zehnder(COMPLEX_GENERATOR),
    "krein_spectrum": lambda: krein_spectrum(COMPLEX_GENERATOR),
    "is_hamiltonian": lambda: is_hamiltonian(1j * standard_J(1) @ np.diag([1.0, 2.0])),
    "lagrangian_frame": lambda: lagrangian_frame(SymplecticSpace.standard(1), COMPLEX_FRAME),
    "subspace_intersection": lambda: subspace_intersection(COMPLEX_FRAME, [[1.0], [0.0]]),
    "pairing": lambda: SymplecticSpace.standard(1).pairing(COMPLEX_FRAME, [[1.0], [0.0]]),
    "pairing nested list": lambda: SymplecticSpace.standard(1).pairing([[1], [1j]],
                                                                       [[1.0], [0.0]]),
    "omega": lambda: SymplecticSpace.standard(1).omega(COMPLEX_FRAME[:, 0], [1.0, 0.0]),
    "max_principal_angle": lambda: max_principal_angle(COMPLEX_FRAME, [[1.0], [0.0]]),
}


@pytest.mark.parametrize("call", COMPLEX_CALLS.values(), ids=COMPLEX_CALLS.keys())
def test_imaginary_part_rejected(call):
    """No route drops an imaginary part: 5J + 2iJ is not a real generator
    and (1, i) is not a real frame."""
    with pytest.raises(InputError, match="imaginary part"):
        call()


def test_complex_dtype_with_zero_imaginary_part_is_real():
    h = ROTATION.astype(complex)
    assert maslov_index_symplectic(h) == maslov_index_symplectic(ROTATION)
    assert conley_zehnder(h) == conley_zehnder(ROTATION)
    assert repr(krein_spectrum(h)) == repr(krein_spectrum(ROTATION))


MALFORMED_ROUTES = {
    "make_system": make_system,
    "lagrangian_frame": lambda m: lagrangian_frame(SymplecticSpace.standard(1), m),
    "krein_spectrum": krein_spectrum,
    "symplectic_orthogonal": lambda m: symplectic_orthogonal(SymplecticSpace.standard(1), m),
    "pairing": lambda m: SymplecticSpace.standard(1).pairing(m, [[1.0], [0.0]]),
    "max_principal_angle": lambda m: max_principal_angle(m, [[1.0], [0.0]]),
}


@pytest.mark.parametrize("data", [[[0.0, -1.0], [1.0]], [["a", "b"], ["c", "d"]]],
                         ids=["ragged", "non-numeric"])
@pytest.mark.parametrize("route", MALFORMED_ROUTES.values(), ids=MALFORMED_ROUTES.keys())
def test_ragged_or_non_numeric_input_is_an_input_error(route, data):
    with pytest.raises(InputError, match="rectangular array of numbers"):
        route(data)
