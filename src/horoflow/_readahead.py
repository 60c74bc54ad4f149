"""Read a streamed orbit ahead: its kernel calls in a forked producer.

flows.orbit_chunks(..., ahead=True) hands a run of two or more kernel calls
here.  On first read, read_ahead spawns a producer, pins it to one usable
CPU and this process to its neighbour, and the producer runs the chunks
while this process renders or bins the ones already sent.  Both are
pinned because, left to itself, the scheduler of a 2-vCPU Linux host
often kept the two on one vCPU, where they take turns instead of
overlapping: pure `dense-octagon` runs took a median 1.07 s pinned against
1.57 s unpinned, and 0.98 s against 1.32 s at a second seed (10
alternating pairs each, pinned faster in 19 of 20).  The pair of CPUs is
picked by this process's pid, so runs started side by side on a host of
four or more CPUs spread over them in pairs.  Each chunk crosses a
pipe as a header of two int64s, (doubles, offset), followed by the chunk's
coordinate buffer, written from the array itself and read with readinto
into an array allocated here.  A run that fails sends an ERROR header,
whose second field counts the bytes of the pickled exception that follow.
That exception is raised here after the chunks before it, so a failing run
fails at the same chunk, with the same type, message and step, as in one
process.  The pipe's end ends the stream: a producer that exits 0 has sent
the whole run, and any other exit status raises a RuntimeError.

The parent always reaps the producer and restores its CPU set before the
stream ends or raises.  A stream that is left before its end closes the
pipe and kills the producer; a parent that dies closes the pipe, so a
producer that writes next gets EPIPE and exits.  With one usable CPU, or
without fork, the chunks run in this process as without `ahead`.
"""

import os
from array import array
from functools import partial

from horoflow._fork import portable, reap, spawn, usable_cpus

ERROR = -1


def read_ahead(chunks, make, first):
    """The segments of the run chunks() yields, read ahead in a producer.

    chunks is a zero-argument callable returning the run's in-process
    chunk iterator.  Each segment is rebuilt here by `make`, the run's
    OrbitSegment partial; the segment at offset 0 gets `first`, the point
    of the reduced start.
    """
    cpus = usable_cpus()
    if len(cpus) < 2:
        yield from chunks()
        return
    here, there = _cpu_pair(cpus, os.getpid())
    producer = spawn(partial(_produce, chunks, there))
    if producer is None:
        yield from chunks()
        return
    pid, pipe = producer
    ended = False
    try:
        _pin((here,))
        while True:
            header = array("q", (0, 0))
            if pipe.readinto(header) != header.itemsize * 2:
                break
            size, offset = header
            if size == ERROR:
                import pickle

                raise pickle.loads(pipe.read(offset))
            values = array("d", (0.0,)) * size
            if pipe.readinto(values) != values.itemsize * size:
                break
            yield (make(values, start=first) if offset == 0
                   else make(values, offset=offset))
        ended = True
    finally:
        try:
            status = reap(pid, pipe, kill=not ended)
        finally:
            _pin(cpus)
    if status:
        raise RuntimeError("the orbit producer ended before its stream did "
                           "(exit status %d)" % status)


def _cpu_pair(cpus, pid):
    """The reader's CPU and the producer's: two neighbours in the sorted
    `cpus`, the pid picking which pair."""
    first = 2 * (pid % (len(cpus) // 2))
    return cpus[first], cpus[first + 1]


def _produce(chunks, cpu, out):
    """The producer, in the forked process: send each chunk, or the pickled
    exception that ended the run after the chunks before it.  A send into a
    pipe the reader has closed raises, which ends the producer with status
    1."""
    _pin((cpu,))
    try:
        for chunk in chunks():
            _send(out, array("q", (len(chunk.values), chunk.offset)))
            _send(out, chunk.values)
    except Exception as exc:  # a closed pipe fails this send too
        import pickle

        data = pickle.dumps(portable(exc))
        _send(out, array("q", (ERROR, len(data))))
        _send(out, data)


def _pin(cpus):
    """Run this process on `cpus`, if the system lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _send(out, data):
    """Write all of a buffer to the pipe, from the buffer itself."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(out, view):]
