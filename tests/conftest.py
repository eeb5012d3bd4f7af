"""Suite-wide fixtures: a per-test time limit."""

import faulthandler
import os
import sys

import pytest

# Far above the slowest test (about 2 s), so only a test that hangs reaches
# it: the run then exits with every thread's traceback instead of waiting.
TEST_TIME_LIMIT_S = 120

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure, so this copies
    # the run's own stderr, which a test's captured stderr is not
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
