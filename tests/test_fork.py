"""spawn and reap, the fork-and-pipe pair behind the acceptance workers."""

import os
import signal

import pytest

from horoflow._fork import reap, spawn

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")


def write_forever(out):
    while True:
        os.write(out, b"x" * 4096)


def test_reap_stops_a_child_still_writing_by_closing_its_pipe():
    pid, pipe = spawn(write_forever)
    assert pipe.read(4096)  # it has started
    # its next write into the closed pipe raises BrokenPipeError, as Python
    # ignores SIGPIPE, and the child leaves through os._exit(1)
    assert signal.getsignal(signal.SIGPIPE) == signal.SIG_IGN
    assert reap(pid, pipe) == 1


def test_a_failed_fork_leaves_no_descriptor_open(monkeypatch):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc to list open descriptors")

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    before = os.listdir("/proc/self/fd")
    assert spawn(write_forever) is None
    assert os.listdir("/proc/self/fd") == before
