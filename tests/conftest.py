"""A test fails when one of its forks warns that the process has several threads.

From Python 3.12 on, ``os.fork()`` in a process of several threads issues
a DeprecationWarning: the child may deadlock.  The pipeline forks its
workers from one thread (`pipeline._deal`).  CPython clears the warning
once it is issued, so an "error" filter would drop it, not raise it:
each fork is wrapped and records it instead.  Only tests that fork are
affected, and no other warning is touched.
"""

import os
import warnings

import pytest


@pytest.fixture(autouse=True)
def fork_warning_is_an_error(monkeypatch):
    fork, warned = os.fork, []

    def recording_fork():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DeprecationWarning)
            pid = fork()
        warned.extend(str(w.message) for w in caught if "multi-threaded" in str(w.message))
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield
    assert not warned, warned[0]
