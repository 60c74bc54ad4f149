"""Forked children for the acceptance runner, the one command that forks.

The runner spreads its workers over the CPUs usable_cpus finds, starts
each with spawn, which hands it the write end of a new pipe, and ends it
with reap.  A child leaves only through os._exit, so that it never returns
into its parent's stack, and its pipe reaches its end when it exits.  A
child sends an exception through portable.
"""

import os
import pickle
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


def spawn(body, close=()):
    """Fork a child that closes the descriptors `close` and runs body(out),
    `out` the write end of a new pipe; returns (pid, pipe), `pipe` the read
    end as a binary file, or None, with no descriptor left open, where the
    fork fails."""
    read, write = os.pipe()

    def child():
        for fd in (read, *close):
            os.close(fd)
        body(write)

    pid = fork(child)
    os.close(write)
    if pid is None:
        os.close(read)
        return None
    return pid, open(read, "rb")


def reap(pid, pipe):
    """Close a spawned child's pipe, so that a child still writing into it
    stops, and wait for it; returns its exit code, or minus the signal that
    ended it."""
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def portable(exc):
    """exc if it pickles and unpickles, so that a child can send it to its
    parent, or else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError("%s: %s" % (type(exc).__name__, exc))
    return exc
