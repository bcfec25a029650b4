"""Shared fixtures and the acceptance-summary hook."""

import os
import sys

# One BLAS thread unless the caller sets one.  numpy reads these when it is
# first imported, which is still to come here; the suite's many small
# products run faster without thread hand-offs.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo one verdict line per acceptance criterion, pass or fail
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
