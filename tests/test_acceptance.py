"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (about 1-2 minutes; the
trajectory-ensemble criterion dominates).  The same checks back the
``qtherm verify`` subcommand.
"""

import sys

from qtherm import verify


def _report(result):
    print(result.line(), file=sys.stderr)
    assert result.passed, result.line() + (f"\n{result.detail}" if result.detail else "")


def test_c01_closed_form_block_oracle():
    _report(verify.check_block_oracle())


def test_c02_poisson_average_closed_form():
    _report(verify.check_poisson_average())


def test_c03_second_law_suite():
    _report(verify.check_second_law_run())


def test_c04_trajectory_density_matrix_consistency():
    _report(verify.check_mode_consistency(10_000))


def test_c05_einstein_rate_recovery():
    _report(verify.check_einstein_rate(10_000))


def test_c06_weak_exact_steady_state_agreement():
    _report(verify.check_weak_vs_exact_steady())


def test_c07_canonical_limit():
    _report(verify.check_canonical_limit())


def test_c08_minimum_temperature():
    _report(verify.check_minimum_temperature())


def test_c09_fast_limit_consistency():
    _report(verify.check_fast_limit())


def test_c10_klein_r_positivity():
    _report(verify.check_klein_positivity())


def test_c11_csv_determinism(tmp_path):
    _report(verify.check_csv_determinism(str(tmp_path)))
