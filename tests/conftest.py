"""Suite-wide guard: a test that hangs ends the run with a traceback.

A host fast path that stops advancing (a page walk that never moves past
its cursor, say) spins forever, and the suite would then hang rather
than fail. Every test runs under a ``faulthandler`` timer armed over its
setup, call and teardown: past :data:`TEST_TIMEOUT_S` seconds it dumps
every thread's stack to the terminal and exits the process non-zero.
"""

import faulthandler
import os
import sys

import pytest

#: host seconds one test may take, setup and teardown included
TEST_TIMEOUT_S = 300

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # the terminal's stderr, duplicated while output capture is off: a
    # test's captured fd 2 is a temporary file that dies with the process
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
