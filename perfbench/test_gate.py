"""Tests of the output gate on canned CLI outputs.

Run with: python3 -m pytest perfbench
"""

import gate
import pytest

REPORT = (b"p,N,verdict,j,witness_k,witness_slope,prediction_match,status\n"
          b"2,5,irregular,4,,,,inconclusive\n"
          b"2,11,irregular,2,2,1/2,true,ok\n")
QUARANTINED = REPORT + (b"# error p=3 N=7 ConsistencyError: engine disagreement\n"
                        b"# error p=3 N=8 ArithmeticError: non-integral trace\n")
CROSSCHECK = (b"engine identity:   127 checked, 9 beyond trace budget\n"
              b"assembly = direct: 13 checked, 123 beyond dim cap 0\n"
              b"crosscheck: PASS\n")


def test_operation_counts():
    assert gate.survey_operations((2, 3, 5, 7), range(1, 31)) == 85
    assert gate.crosscheck_points((2, 3, 5, 7, 11, 13), range(1, 15), 16) == 536
    # repeated primes or levels do not repeat work
    assert gate.survey_operations((2, 2), (1, 1, 3)) == 2


def test_report_matching_reference_has_no_failures():
    assert gate.grade_report(3, REPORT, 3, REPORT, 2) == gate.Grade(2, 0)


def test_quarantined_rows_count_as_failed_operations():
    assert gate.survey_error_rows(QUARANTINED) == 2
    grade = gate.grade_report(3, QUARANTINED, 3, QUARANTINED, 4)
    assert grade.ok and (grade.attempted, grade.failed) == (4, 2)


@pytest.mark.parametrize("exit_code, stdout", [(0, REPORT), (2, REPORT), (3, REPORT[:-1])])
def test_wrong_exit_code_or_bytes_fail_every_operation(exit_code, stdout):
    grade = gate.grade_report(exit_code, stdout, 3, REPORT, 58)
    assert not grade.ok
    assert (grade.attempted, grade.failed) == (58, 58)


def test_parse_crosscheck():
    assert gate.parse_crosscheck(CROSSCHECK) == (127, 9, True)
    failing = CROSSCHECK.replace(b"crosscheck: PASS\n", b"FAIL x\ncrosscheck: FAIL (1)\n")
    assert gate.parse_crosscheck(failing) == (127, 9, False)
    with pytest.raises(ValueError):
        gate.parse_crosscheck(b"crosscheck: PASS\n")


def test_refused_points_count_as_failed():
    grade = gate.grade_crosscheck(0, CROSSCHECK, 136)
    assert grade.ok and (grade.attempted, grade.failed) == (136, 9)
    assert gate.grade_crosscheck(0, CROSSCHECK.replace(b" 9 ", b" 0 "), 127) == gate.Grade(127, 0)


@pytest.mark.parametrize("exit_code, stdout, points", [
    (2, CROSSCHECK, 136),  # wrong exit code
    (0, CROSSCHECK.replace(b"PASS", b"FAIL (1)"), 136),  # not PASS
    (0, CROSSCHECK, 536),  # counts do not cover the grid
    (0, b"crosscheck: PASS (trivial, empty grid)\n", 136),  # no summary line
])
def test_crosscheck_gate_failures_fail_every_point(exit_code, stdout, points):
    grade = gate.grade_crosscheck(exit_code, stdout, points)
    assert not grade.ok
    assert (grade.attempted, grade.failed) == (points, points)
