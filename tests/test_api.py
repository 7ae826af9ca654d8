"""The public surface: exported names and the error classes."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import symindex
from symindex import (
    SymplecticReduction,
    SymplecticSpace,
    calibrate_sign,
    classify_normal_form,
    conley_zehnder,
    correction_matrix,
    correction_sign,
    crossing_form,
    darboux_frame,
    find_crossings,
    graph_lagrangian,
    graph_path,
    herm_signature,
    hormander_index,
    horizontal_lagrangian,
    intersection_dim,
    is_hamiltonian,
    is_semisimple,
    is_symplectic,
    kashiwara_index,
    kashiwara_reduced,
    kashiwara_transversal,
    krein_positive_angles,
    krein_signature,
    krein_spectrum,
    lagrangian_frame,
    make_system,
    maslov_index,
    maslov_index_symplectic,
    maslov_via_formula,
    orbit_path,
    random_hamiltonian,
    random_lagrangian,
    spectral_conley_zehnder,
    standard_J,
    subspace_intersection,
    sym_signature,
    symplectic_orthogonal,
    transversal_triple,
    triple_routes_from,
    validate,
    vertical_lagrangian,
)
from symindex import errors
from symindex.errors import InputError
from symindex.symplectic import diagonal_lagrangian, max_principal_angle


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


# -- one contract for tol: a Tolerances ----------------------------------------

STD1 = SymplecticSpace.standard(1)

TOL_ROUTES = {
    "validate": lambda tol: validate(make_system(ROTATION), tol=tol),
    "validate sigma=-1": lambda tol: validate(make_system(ROTATION), sigma=-1, tol=tol),
    "conley_zehnder": lambda tol: conley_zehnder(ROTATION, tol=tol),
    "maslov_index_symplectic": lambda tol: maslov_index_symplectic(ROTATION, tol=tol),
    "make_system": lambda tol: make_system(ROTATION, tol),
    "kashiwara_index": lambda tol: kashiwara_index(
        SymplecticSpace.standard(1), vertical_lagrangian(1), horizontal_lagrangian(1),
        vertical_lagrangian(1), tol),
    "find_crossings": lambda tol: find_crossings(graph_path(ROTATION), diagonal_lagrangian(1),
                                                 tol=tol),
    "kashiwara_transversal": lambda tol: kashiwara_transversal(np.eye(2), tol),
    "lagrangian_frame": lambda tol: lagrangian_frame(SymplecticSpace.standard(1),
                                                     [[1.0], [0.0]], tol),
    "is_symplectic": lambda tol: is_symplectic(np.eye(2), tol),
    "correction_sign": lambda tol: correction_sign(make_system(ROTATION), tol),
    "maslov_via_formula": lambda tol: maslov_via_formula(make_system(ROTATION), tol=tol),
    "SymplecticReduction": lambda tol: SymplecticReduction(STD1, [[1.0], [0.0]], tol),
    "calibrate_sign": lambda tol: calibrate_sign(tol=tol),
    "classify_normal_form": lambda tol: classify_normal_form(ROTATION, tol),
    "correction_matrix": lambda tol: correction_matrix(make_system(ROTATION), tol),
    "crossing_form": lambda tol: crossing_form(orbit_path(ROTATION), vertical_lagrangian(1),
                                               0.0, tol),
    "darboux_frame": lambda tol: darboux_frame(STD1, tol),
    "graph_lagrangian": lambda tol: graph_lagrangian(np.eye(2), tol),
    "graph_path": lambda tol: graph_path(ROTATION, tol=tol),
    "herm_signature": lambda tol: herm_signature(np.eye(2), tol),
    "hormander_index": lambda tol: hormander_index(
        STD1, vertical_lagrangian(1), horizontal_lagrangian(1), vertical_lagrangian(1),
        horizontal_lagrangian(1), tol),
    "intersection_dim": lambda tol: intersection_dim(vertical_lagrangian(1),
                                                     horizontal_lagrangian(1), tol),
    "is_hamiltonian": lambda tol: is_hamiltonian(ROTATION, tol),
    "is_semisimple": lambda tol: is_semisimple(ROTATION, tol),
    "kashiwara_reduced": lambda tol: kashiwara_reduced(
        STD1, np.zeros((2, 0)), vertical_lagrangian(1), horizontal_lagrangian(1),
        vertical_lagrangian(1), tol),
    "krein_positive_angles": lambda tol: krein_positive_angles(ROTATION, tol),
    "krein_signature": lambda tol: krein_signature(ROTATION, 5.0, tol),
    "krein_spectrum": lambda tol: krein_spectrum(ROTATION, tol),
    "maslov_index": lambda tol: maslov_index(orbit_path(ROTATION), vertical_lagrangian(1),
                                             tol=tol),
    "orbit_path": lambda tol: orbit_path(ROTATION, tol=tol),
    "spectral_conley_zehnder": lambda tol: spectral_conley_zehnder(ROTATION, tol),
    "subspace_intersection": lambda tol: subspace_intersection([[1.0], [0.0]],
                                                               [[0.0], [1.0]], tol),
    "symplectic_orthogonal": lambda tol: symplectic_orthogonal(STD1, [[1.0], [0.0]], tol),
    "sym_signature": lambda tol: sym_signature(np.eye(2), tol),
    "transversal_triple": lambda tol: transversal_triple(np.eye(1), tol),
    "triple_routes_from": lambda tol: triple_routes_from(make_system(ROTATION).psi(1.0), tol),
}
#: the reference frames cached per (n, tol), checked for a float tol only:
#: an unhashable tol fails in their cache first, with TypeError
CACHED_TOL_ROUTES = {
    "vertical_lagrangian": lambda tol: vertical_lagrangian(1, tol),
    "horizontal_lagrangian": lambda tol: horizontal_lagrangian(1, tol),
    "diagonal_lagrangian": lambda tol: diagonal_lagrangian(1, tol),
    "random_lagrangian": lambda tol: random_lagrangian(1, 0, tol),
}


@pytest.mark.parametrize("tol", [1e-3, [1], None], ids=["float", "list", "None"])
@pytest.mark.parametrize("route", TOL_ROUTES.values(), ids=TOL_ROUTES.keys())
def test_tol_that_is_not_tolerances_is_an_input_error(route, tol):
    """A float, or an unhashable list that the calibrated sign's cache
    could not take, raises InputError, not AttributeError or TypeError."""
    with pytest.raises(InputError, match="tol must be a Tolerances"):
        route(tol)


@pytest.mark.parametrize("route", CACHED_TOL_ROUTES.values(), ids=CACHED_TOL_ROUTES.keys())
def test_float_tol_of_a_cached_reference_frame_is_an_input_error(route):
    with pytest.raises(InputError, match="tol must be a Tolerances"):
        route(1e-3)


def test_every_route_with_tol_has_a_float_tol_case():
    """Each exported name whose signature has ``tol`` is checked above."""
    routes = {name: getattr(symindex, name) for name in symindex.__all__}
    with_tol = {name for name, obj in routes.items()
                if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))
                and "tol" in inspect.signature(obj).parameters}
    covered = {key.split()[0] for key in list(TOL_ROUTES) + list(CACHED_TOL_ROUTES)}
    assert with_tol - covered == set()


#: public size arguments that once escaped as numpy's TypeError
SIZE_ROUTES = {
    "standard_J float": lambda: standard_J(1.5),
    "standard_J bool": lambda: standard_J(True),
    "vertical_lagrangian": lambda: vertical_lagrangian(1.0),
    "horizontal_lagrangian": lambda: horizontal_lagrangian("2"),
    "graph_product": lambda: SymplecticSpace.graph_product(1.5),
    "random_hamiltonian": lambda: random_hamiltonian(1.5),
    "random_hamiltonian mixed": lambda: random_hamiltonian(1.5, 0, "mixed"),
    "random_lagrangian": lambda: random_lagrangian(2.0),
}


@pytest.mark.parametrize("route", SIZE_ROUTES.values(), ids=SIZE_ROUTES.keys())
def test_size_that_is_not_an_integer_is_an_input_error(route):
    """A bool, float or string size fails the one integer check of
    ``numerics.as_int`` with InputError."""
    with pytest.raises(InputError, match="n must be an integer"):
        route()


def test_numpy_integer_size_is_an_integer():
    assert np.array_equal(standard_J(np.int64(2)), standard_J(2))
    assert random_hamiltonian(np.int32(2), 0, "mixed").shape == (4, 4)
    assert vertical_lagrangian(np.int64(2)).n == 2
