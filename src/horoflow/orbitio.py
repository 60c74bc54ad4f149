"""Flat-file emission and parsing for orbits and density reports.

Orbit CSV layout: `#`-prefixed legend comments (model, flow, seed, steps and
one line per coordinate column), then a `time,c1,...` header, then one row
per sample.  Floats are printed with 17 significant digits so equal orbits
produce byte-identical files and parsing recovers the exact doubles.

Density reports serialize to a flat JSON object with sorted keys: model,
flow, steps, seed, bins, visited, total, fraction.

A new file, or one that replaces a regular file, is written to a temp file
in the target directory and renamed over the path, so readers never observe
a half-written file.  Any other existing target, such as a device like
/dev/null or a FIFO, is opened and written in place: a rename would replace
the node itself.  If the writing fails, as when a streamed orbit's kernel
raises part way, a temp file is removed and the path is left as it was,
while a device or FIFO target has already received the text written
before the failure.  An orbit CSV is rendered and written CSV_CHUNK_ROWS
rows at a time, so its whole text is never held at once; each chunk's rows
are rendered by the kernel backend's csv_rows, straight from the flat
sample buffer.  The CLI's stream (flows.orbit_chunks) runs the kernel for
each chunk as this module asks for it, so the kernel and the rendering
take turns in one process.
"""

from __future__ import annotations

import os
import stat

from horoflow._kernels import csv_rows
from horoflow.flows import OrbitSegment, flow_label

# Rows rendered per text: a smaller piece keeps less of the file at once,
# and hundreds of rows still take one csv_rows call.
CSV_CHUNK_ROWS = 512
# Names tried for a temp file before giving up, as tempfile.TMP_MAX.
TEMP_NAME_ATTEMPTS = 10000


def _create_temp(directory):
    """A new empty file in `directory`, open for writing, and its path.

    It is created with mode 0o666 less the umask, as open() creates a file.
    """
    for attempt in range(TEMP_NAME_ATTEMPTS):
        tmp = os.path.join(directory, ".horoflow-%d-%d.part" % (os.getpid(), attempt))
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError("no free temp file name in %s" % directory)


def _atomic_write(path, chunks):
    """Write an iterable of text chunks to path.

    A regular file is replaced by a temp file that takes its mode; a path
    that does not exist gets the mode open() would give it.  Any other
    existing target is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    fd, tmp = _create_temp(os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def orbit_csv_text(segment, start=0, stop=None):
    """Render rows start..stop-1 of one orbit segment in the CSV layout
    described above; the legend and the header come only with orbit row 0,
    so the texts of consecutive ranges, and of consecutive chunks of a
    stream (flows.orbit_chunks), concatenate to the whole file.  The rows
    are the backend's csv_rows of the segment's flat values.
    """
    lines = []
    if segment.offset + start == 0:
        names = segment.coord_names
        lines += [
            "# model = %s" % segment.model,
            "# flow = %s" % flow_label(segment.flow),
            "# seed = %s" % segment.seed,
            "# steps = %d" % segment.steps,
        ]
        lines.extend("# c%d = %s" % (i + 1, name) for i, name in enumerate(names))
        lines.append("time," + ",".join("c%d" % (i + 1) for i in range(len(names))))
    head = "\n".join(lines) + "\n" if lines else ""
    stop = len(segment) if stop is None else min(stop, len(segment))
    return head + csv_rows(segment.values, segment.width, segment.time_step,
                           segment.offset, start, stop)


def write_orbit_csv(orbit, path):
    """Write an OrbitSegment, or the chunks of a stream in order, as CSV."""
    segments = (orbit,) if isinstance(orbit, OrbitSegment) else orbit
    # one text even for no rows, which carries the legend and header
    texts = (
        orbit_csv_text(segment, start, min(start + CSV_CHUNK_ROWS, len(segment)))
        for segment in segments
        for start in range(0, max(len(segment), 1), CSV_CHUNK_ROWS)
    )
    _atomic_write(path, texts)
    return path


def read_orbit_csv(path):
    """Parse an orbit CSV into (legend dict, column names, float rows).

    Raises ValueError naming the offending line on any malformed content.
    """
    legend = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    legend[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = line.split(",")
                if columns[0] != "time":
                    raise ValueError(
                        "%s:%d: header must start with 'time'" % (path, lineno)
                    )
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(
                    "%s:%d: expected %d fields, got %d"
                    % (path, lineno, len(columns), len(cells))
                )
            try:
                rows.append(tuple(float(cell) for cell in cells))
            except ValueError:
                raise ValueError(
                    "%s:%d: non-numeric cell" % (path, lineno)
                ) from None
    if columns is None:
        raise ValueError("%s: no header line found" % path)
    return legend, columns, rows


def density_json_text(report):
    import json  # here, so that a flow run does not load it

    payload = {
        "model": report.model,
        "flow": report.flow,
        "steps": report.steps,
        "seed": report.seed,
        "bins": list(report.bins),
        "visited": report.visited,
        "total": report.total,
        "fraction": report.fraction,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_density_json(report, path):
    """Write a DensityReport as JSON.  `report` may instead be a function
    that makes one, called once the file is open, so that a path that
    cannot be written is found before the report is made."""
    _atomic_write(path, (density_json_text(r() if callable(r) else r)
                         for r in (report,)))
    return path
