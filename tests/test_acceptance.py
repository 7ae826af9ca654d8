"""Acceptance gate: the thirteen headline guarantees, one line each.

Every criterion delegates to the library's own check suite so that the
command-line ``symindex check`` and this gate can never drift apart.
Run directly (``python3 tests/test_acceptance.py``) to get the thirteen
pass/fail lines on stdout; under pytest each criterion is one test.
"""

import inspect
import sys

from symindex import checks
from symindex.numerics import DEFAULT_TOL


def _report(result):
    line = "%s %s: %s" % ("PASS" if result.passed else "FAIL",
                          result.name, result.details)
    print(line)
    assert result.passed, line


def test_criterion_01_rotation_closed_forms():
    _report(checks.check_rotation_closed_forms())


def test_criterion_02_triple_index_axioms():
    _report(checks.check_triple_axioms())


def test_criterion_03_transversal_triple_closed_form():
    _report(checks.check_transversal_triple())


def test_criterion_04_correction_matrix_symmetry():
    _report(checks.check_correction_symmetry())


def test_criterion_05_reduction_equality():
    _report(checks.check_reduction_equality())


def test_criterion_06_reduced_form_signature():
    _report(checks.check_reduced_form_signature())


def test_criterion_07_quadruple_path_independence():
    _report(checks.check_quadruple_path_independence())


def test_criterion_08_sign_calibration():
    _report(checks.check_calibration())


def test_criterion_09_orbit_equals_graph_plus_correction():
    _report(checks.check_main_identity())


def test_criterion_10_loop_indices():
    _report(checks.check_loop_identity())


def test_criterion_11_spectral_index_identities():
    _report(checks.check_spectral_identities())


def test_criterion_12_zero_property_off_unit_circle():
    _report(checks.check_zero_property())


def test_criterion_13_krein_signature_pairing():
    _report(checks.check_krein_pairing())


def test_the_gate_has_one_size():
    """Each of the 13 checks and the suite take one parameter, a
    keyword-only ``tol`` defaulting to ``DEFAULT_TOL``: no caller can
    shrink an ensemble or move its range."""
    gate = [fn for name, fn in vars(checks).items() if name.startswith("check_")]
    assert len(gate) == 13
    for fn in gate + [checks.run_property_suite]:
        assert [(p.name, p.kind, p.default)
                for p in inspect.signature(fn).parameters.values()] == [
            ("tol", inspect.Parameter.KEYWORD_ONLY, DEFAULT_TOL)], fn.__name__


if __name__ == "__main__":
    failed = 0
    for result in checks.run_property_suite():
        print("%s %s: %s" % ("PASS" if result.passed else "FAIL",
                             result.name, result.details))
        if not result.passed:
            failed += 1
    sys.exit(1 if failed else 0)
