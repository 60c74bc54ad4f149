"""Forked helpers shared by the acceptance runner and the read-ahead stream.

Both find the CPUs they may spread over the same way, and both fork
children that leave only through os._exit, so that a child never returns
into its parent's stack.  Each caller keeps its own pipes and wire format.
"""

import os
import sys


def usable_cpus():
    """The CPUs this process may run on, sorted; none where it cannot fork
    or cannot tell."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


def fork(child):
    """Fork a process that runs child() and leaves through os._exit, with
    status 0 if child returns and 1 if it raises; returns its pid, or None
    where the fork fails.  Buffered output is flushed first, so that the
    child does not write it again."""
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        finally:
            os._exit(code)
    return pid
