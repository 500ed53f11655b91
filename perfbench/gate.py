"""Output gate and failure accounting for the heckeslopes benchmark.

Pure functions of a finished CLI run (exit code and stdout bytes), so the
benchmark's own tests can check them on canned outputs.  A run is graded
into (operations attempted, operations failed, problem); problem is None
when the run's output is correct.  An operation is a survey pair, a
crosscheck grid point, or the single witness query.
"""

import re
from dataclasses import dataclass

_ENGINE_LINE = re.compile(rb"^engine identity: +(\d+) checked, (\d+) beyond trace budget$",
                          re.MULTILINE)
_SURVEY_ERROR = re.compile(rb"^# error p=\d+ N=\d+ ", re.MULTILINE)


@dataclass(frozen=True)
class Grade:
    attempted: int
    failed: int
    problem: str = None  # None when the output passed the gate

    @property
    def ok(self):
        return self.problem is None


def survey_operations(primes, levels):
    """Number of (p, N) pairs a survey computes: pairs with p | N are skipped."""
    return sum(1 for p in set(primes) for N in set(levels) if N % p)


def crosscheck_points(primes, levels, k_max):
    """Number of (p, N, k) points crosscheck visits, as cmd_crosscheck builds them."""
    return survey_operations(primes, levels) * len(range(2, k_max + 1, 2))


def survey_error_rows(stdout):
    """Quarantined error rows in a CSV survey report."""
    return len(_SURVEY_ERROR.findall(stdout))


def parse_crosscheck(stdout):
    """(checked, beyond budget, passed) from a crosscheck report.

    Raises ValueError when the engine-identity summary line is missing or
    appears more than once.
    """
    found = _ENGINE_LINE.findall(stdout)
    if len(found) != 1:
        raise ValueError("expected one engine identity line, found %d" % len(found))
    checked, beyond = (int(x) for x in found[0])
    passed = stdout.endswith(b"crosscheck: PASS\n")
    return checked, beyond, passed


def grade_report(exit_code, stdout, expected_exit, reference, operations):
    """Gate a witness or survey run against reference bytes.

    Each quarantined error row is a failed operation; a wrong exit code or
    wrong bytes fails every operation of the run.
    """
    if exit_code != expected_exit:
        return Grade(operations, operations,
                     "exit code %d, expected %d" % (exit_code, expected_exit))
    if stdout != reference:
        return Grade(operations, operations,
                     "stdout differs from the reference (%d vs %d bytes)"
                     % (len(stdout), len(reference)))
    return Grade(operations, survey_error_rows(stdout))


def grade_crosscheck(exit_code, stdout, points):
    """Gate a crosscheck run: exit 0, PASS, and checked + refused = points.

    Points beyond the trace budget are refused operations and count as
    failed; a run that does not pass the gate fails every point.
    """
    if exit_code != 0:
        return Grade(points, points, "exit code %d, expected 0" % exit_code)
    try:
        checked, beyond, passed = parse_crosscheck(stdout)
    except ValueError as exc:
        return Grade(points, points, str(exc))
    if not passed:
        return Grade(points, points, "crosscheck did not PASS")
    if checked + beyond != points:
        return Grade(points, points, "%d checked + %d beyond budget != %d points"
                     % (checked, beyond, points))
    return Grade(points, beyond)
