"""SVG scatter plots of orbit CSV columns, for `horoflow plot`.

Only `plot` loads this module.  Every command compiles cli.py where no
bytecode is cached, and in a `check` run that compile sets the peak
memory, so the renderer stays out of cli.py.
"""


def _svg_scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_scatter_svg(xs, ys, xlabel, ylabel, title):
    """Fixed-size deterministic scatter; degenerate ranges get unit padding.

    The labels and the title come from the CSV and are escaped; saxutils is
    imported here, as it pulls in urllib.request.
    """
    from xml.sax.saxutils import escape

    width, height, margin = 640, 480, 54
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    px = _svg_scale(xs, xlo, xhi, margin, width - margin)
    py = _svg_scale(ys, ylo, yhi, height - margin, margin)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<g stroke="black" stroke-width="1">',
        '<line x1="%d" y1="%d" x2="%d" y2="%d"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%d" y1="%d" x2="%d" y2="%d"/>'
        % (margin, height - margin, margin, margin),
        "</g>",
        '<text x="%d" y="%d" font-size="13" text-anchor="middle">%s</text>'
        % (width // 2, 22, escape(title)),
        '<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>'
        % (width // 2, height - 10, escape(xlabel)),
        '<text x="14" y="%d" font-size="12" text-anchor="middle" '
        'transform="rotate(-90 14 %d)">%s</text>'
        % (height // 2, height // 2, escape(ylabel)),
        '<text x="%d" y="%d" font-size="10">%.4g</text>'
        % (margin, height - margin + 14, xlo),
        '<text x="%d" y="%d" font-size="10" text-anchor="end">%.4g</text>'
        % (width - margin, height - margin + 14, xhi),
        '<text x="%d" y="%d" font-size="10" text-anchor="end">%.4g</text>'
        % (margin - 4, height - margin, ylo),
        '<text x="%d" y="%d" font-size="10" text-anchor="end">%.4g</text>'
        % (margin - 4, margin + 4, yhi),
    ]
    if len(px) == 1:
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="navy"/>' % (px[0], py[0])
        )
    elif len(px) <= 2000:
        parts.append('<g fill="navy">')
        parts.extend(
            '<circle cx="%.2f" cy="%.2f" r="1.6"/>' % (x, y)
            for x, y in zip(px, py)
        )
        parts.append("</g>")
    else:
        coords = " ".join("%.2f,%.2f" % (x, y) for x, y in zip(px, py))
        parts.append(
            '<polyline fill="none" stroke="navy" stroke-width="0.5" '
            'points="%s"/>' % coords
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
