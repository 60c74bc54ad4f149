"""Forked helpers shared by the acceptance runner and the read-ahead stream.

Both find the CPUs they may spread over the same way, and both fork
children that leave only through os._exit, so that a child never returns
into its parent's stack.  Each caller keeps its own pipes and wire format,
and sends an exception through portable.
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


def portable(exc):
    """exc if it pickles and unpickles, so that a child can send it to its
    parent, or else a RuntimeError naming its type and message."""
    import pickle  # here, as a flow or density child has no other use for it

    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))
    return exc
