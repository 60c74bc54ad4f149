"""Flat-file emission and parsing for orbits and density reports.

Orbit CSV layout: `#`-prefixed legend comments (model, flow, seed, steps and
one line per coordinate column), then a `time,c1,...` header, then one row
per sample.  Floats are printed with 17 significant digits so equal orbits
produce byte-identical files and parsing recovers the exact doubles.

Density reports serialize to a flat JSON object with sorted keys: model,
flow, steps, seed, bins, visited, total, fraction.

All writes go through a temp file in the target directory followed by an
atomic rename, so readers never observe a half-written file.  An orbit CSV
is rendered and written CSV_CHUNK_ROWS rows at a time, so its whole text is
never held at once; each chunk's rows take one `%` format call.
"""

from __future__ import annotations

import json
import os
import tempfile

from horoflow.flows import flow_label

FLOAT_FMT = "%.17g"
CSV_CHUNK_ROWS = 2048


def _atomic_write(path, chunks):
    """Write an iterable of text chunks to path through a temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".horoflow-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def orbit_csv_text(segment, start=0, stop=None):
    """Render rows start..stop-1 of one orbit segment in the CSV layout
    described above; the legend and the header come only with row 0, so
    the texts of consecutive ranges concatenate to the whole file.

    The rows are rendered by one format call: the row format repeated once
    per row, applied to the times and the coordinate columns interleaved
    into one flat tuple.
    """
    lines = []
    if start == 0:
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
    w = segment.width
    stop = len(segment) if stop is None else min(stop, len(segment))
    count = stop - start
    if count <= 0:
        return head
    args = [None] * (count * (w + 1))
    args[::w + 1] = segment.times(start, stop)
    chunk = segment.values[start * w:stop * w].tolist()
    for c in range(w):
        args[c + 1::w + 1] = chunk[c::w]
    row_fmt = ",".join([FLOAT_FMT] * (w + 1)) + "\n"
    return head + (row_fmt * count) % tuple(args)


def write_orbit_csv(segment, path):
    rows = len(segment)
    # one chunk even for no rows, which carries the legend and header
    chunks = (
        orbit_csv_text(segment, start, min(start + CSV_CHUNK_ROWS, rows))
        for start in range(0, max(rows, 1), CSV_CHUNK_ROWS)
    )
    _atomic_write(path, chunks)
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
    _atomic_write(path, (density_json_text(report),))
    return path
