"""Each `coulombev verify` suite runs once per pytest session.

The suites in `coulombev.suites` are the only home of the table checks.  A
test that covers part of a suite names the labels of the checks it stands
for and asserts that the suite ran each of them and that each passed.
"""

import re
import time

import pytest

from coulombev.suites import SUITES


class SuiteRun:
    """One suite's result and its wall-clock time."""

    def __init__(self, result, elapsed):
        self.result = result
        self.elapsed = elapsed

    def assert_passed(self, labels):
        """Each label names at least one check of the suite, and all such checks passed."""
        status = {}
        for label, ok in self.result.record:
            status[label] = status.get(label, True) and ok
        missing = [label for label in labels if label not in status]
        failed = [label for label in labels if status.get(label) is False]
        assert not missing, "suite %s ran no check named %s" % (self.result.name, missing[:5])
        assert not failed, "suite %s failed %s" % (self.result.name, failed[:5])

    def matching(self, pattern):
        """Pass flags of the checks whose label matches the regular expression in full."""
        return [ok for label, ok in self.result.record if re.fullmatch(pattern, label)]


@pytest.fixture(scope="session")
def suite():
    runs = {}

    def run(name):
        if name not in runs:
            t0 = time.perf_counter()
            result = SUITES[name]()
            runs[name] = SuiteRun(result, time.perf_counter() - t0)
        return runs[name]

    return run
