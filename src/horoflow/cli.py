"""Command line front end: reproducible orbit runs, density reports, group
classification, the acceptance suite, and SVG plots.

Subcommands
-----------
flow      integrate one orbit and write it as CSV
density   integrate one orbit and write its grid coverage as JSON
classify  read a generator file and report the projection classification
check     run a named acceptance suite (exit 1 when a criterion fails)
plot      render two columns of an orbit CSV as a deterministic SVG

Model descriptors: `modular`, `octagon`, `octagon_boundary` (diagonal
boundary holonomy), `octagon_so3` (seeded rotation holonomy), `t3a` (pass
the integer matrix with --A "2 1 1 1").

Flow descriptors: `u`, `geo`, `b`, `sol3u`, `dual` with step sizes --dt
(or --dalpha/--dbeta for `b`).  Without --seed an orbit starts at the
model's origin (identity frame, zero coordinates, or the unit dual pair);
with --seed both the start and any seeded holonomy are drawn reproducibly.

Options may come from a `key = value` config file (--config); explicit
flags win over the file, unknown keys are a usage error.  Exit codes:
0 success, 1 dynamics or criterion failure, 2 usage or parse error.

Generator files for `classify`: one generator per line, `name kind args`,
blank lines and `#` comments ignored.  Kinds: `mat a b c d` (entries are
scaled to unit determinant), `u t`, `geo lam`, `rot theta`, `b alpha beta`.
"""

from __future__ import annotations

import argparse
import sys

from horoflow import models
from horoflow.acceptance import run_suite
from horoflow.diagnostics import BinningSpec, coverage
from horoflow.flows import (
    BorelB,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    Sol3U,
    integrate_orbit,
)
from horoflow.groups import (
    BOUNDARY_CIRCLE,
    GeneratedGroup,
    classify_psl_projection,
    detect_semi_parabolic,
)
from horoflow.models import MODEL_NAMES
from horoflow.models.base import QuotientPoint, ReductionError
from horoflow.moebius import BoundaryPoint, MoebiusElement
from horoflow.orbitio import read_orbit_csv, write_density_json, write_orbit_csv

FLOW_NAMES = ("u", "geo", "b", "sol3u", "dual")

DEFAULT_DT = {"u": 0.01, "geo": 0.01, "sol3u": 0.037}


class UsageError(Exception):
    pass


class RunError(Exception):
    pass


# -- config handling ----------------------------------------------------------


def read_config_file(path):
    """Parse `key = value` lines; `#` comments and blank lines are skipped."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError("cannot read config file: %s" % exc) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _merge_config(args, parser_keys):
    """Fill argparse gaps from the config file; flags always win."""
    if not getattr(args, "config", None):
        return
    values = read_config_file(args.config)
    for key, text in values.items():
        dest = key.replace("-", "_")
        if dest not in parser_keys:
            raise UsageError("unknown config key %r" % key)
        if getattr(args, dest) is None:
            caster = parser_keys[dest]
            try:
                setattr(args, dest, caster(text))
            except ValueError:
                raise UsageError(
                    "config key %r: cannot parse %r" % (key, text)
                ) from None


def _require(args, name):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise UsageError("missing required option --%s" % name)
    return value


# -- model and flow construction ----------------------------------------------


def _parse_int_matrix(text):
    parts = text.split()
    if len(parts) != 4:
        raise UsageError("--A needs four integers, e.g. \"2 1 1 1\"")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError:
        raise UsageError("--A entries must be integers") from None
    return ((a, b), (c, d))


def build_model(name, a_text, seed):
    """Build a model through horoflow.models.build_model.

    --A is parsed for t3a only; without --seed the octagon_so3 holonomy
    seed is 0, where the library's default is 7.
    """
    if name not in MODEL_NAMES:
        raise UsageError(
            "unknown model %r; choose from %s" % (name, ", ".join(MODEL_NAMES))
        )
    a_mat = _parse_int_matrix(a_text) if name == "t3a" and a_text else None
    try:
        return models.build_model(name, a_mat, seed=seed or 0)
    except ValueError as exc:
        raise UsageError("bad --A matrix: %s" % exc) from None


def build_flow(args):
    kind = _require(args, "flow")
    if kind in ("u", "geo", "sol3u"):
        dt = args.dt if args.dt is not None else DEFAULT_DT[kind]
        try:
            return {"u": HorocycleU, "geo": GeodesicD, "sol3u": Sol3U}[kind](dt)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "b":
        da = args.dalpha if args.dalpha is not None else 0.01
        db = args.dbeta if args.dbeta is not None else 0.01
        try:
            return BorelB(da, db)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "dual":
        return DualBoundaryIterate()
    raise UsageError(
        "unknown flow %r; choose from %s" % (kind, ", ".join(FLOW_NAMES))
    )


def origin_point(model, flow):
    """Deterministic start used when no seed is given."""
    if isinstance(flow, DualBoundaryIterate):
        return (BoundaryPoint.from_real(1.0), 1.0)
    name = getattr(model, "name", "")
    if name == "t3a":
        return model.reduce((0.0, 0.0, 0.0))
    identity = MoebiusElement.identity()
    if hasattr(model, "point_from_state"):
        if model.space is BOUNDARY_CIRCLE and model.diagonal():
            return model.graph_point(identity)
        return model.point_from_state(identity, model.space.identity())
    return model.point_from_frame(identity)


def _integrate(args):
    model = build_model(_require(args, "model"), args.A, args.seed)
    flow = build_flow(args)
    steps = _require(args, "steps")
    start = None if args.seed is not None else origin_point(model, flow)
    try:
        segment = integrate_orbit(
            model, start, flow, steps,
            seed=args.seed,
            sample_every=args.sample_every or 1,
        )
    except (ValueError, ArithmeticError, ReductionError) as exc:
        raise RunError(str(exc)) from None
    if steps == 0:
        # zero steps means "emit the format, integrate nothing"
        segment = segment.__class__(
            segment.model, segment.flow, (), segment.seed, 0, segment.coord_names
        )
    return model, segment


# -- subcommands ---------------------------------------------------------------


def cmd_flow(args):
    out = _require(args, "out")
    _, segment = _integrate(args)
    write_orbit_csv(segment, out)
    print("wrote %s (%d samples)" % (out, len(segment)))
    return 0


def _default_ranges(model, flow, count):
    ranges = model.default_ranges(flow)
    if count > len(ranges):
        raise UsageError(
            "no default ranges for %d axes on model %s; pass --box"
            % (count, model.name)
        )
    return ranges[:count]


def cmd_density(args):
    out = _require(args, "out")
    bins_text = _require(args, "bins")
    try:
        counts = tuple(int(p) for p in bins_text.split())
    except ValueError:
        raise UsageError("--bins must be whitespace-separated integers") from None
    if not counts:
        raise UsageError("--bins must name at least one axis")
    model, segment = _integrate(args)
    flow = segment.flow
    if args.box is not None:
        try:
            edges = tuple(float(p) for p in args.box.split())
        except ValueError:
            raise UsageError("--box must be whitespace-separated numbers") from None
        if len(edges) != 2 * len(counts):
            raise UsageError("--box needs two numbers per binned axis")
        ranges = tuple(
            (edges[2 * i], edges[2 * i + 1]) for i in range(len(counts))
        )
    else:
        ranges = _default_ranges(model, flow, len(counts))
    try:
        spec = BinningSpec(ranges, counts)
        report = coverage(segment, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_density_json(report, out)
    print(
        "wrote %s (visited %d of %d cells, fraction %.4f)"
        % (out, report.visited, report.total, report.fraction)
    )
    return 0


_GENERATOR_KINDS = {
    "mat": (4, lambda v: MoebiusElement(v[0], v[1], v[2], v[3])),
    "u": (1, lambda v: MoebiusElement.u(v[0])),
    "geo": (1, lambda v: MoebiusElement.geo(v[0])),
    "rot": (1, lambda v: MoebiusElement.rot(v[0])),
    "b": (2, lambda v: MoebiusElement.b_el(v[0], v[1])),
}


def parse_generator_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError("cannot read generator file: %s" % exc) from None
    generators = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise UsageError("%s:%d: expected `name kind args`" % (path, lineno))
        name, kind, rest = parts[0], parts[1], parts[2:]
        if kind not in _GENERATOR_KINDS:
            raise UsageError(
                "%s:%d: unknown kind %r (known: %s)"
                % (path, lineno, kind, ", ".join(sorted(_GENERATOR_KINDS)))
            )
        argc, maker = _GENERATOR_KINDS[kind]
        if len(rest) != argc:
            raise UsageError(
                "%s:%d: kind %r takes %d numbers" % (path, lineno, kind, argc)
            )
        try:
            values = [float(p) for p in rest]
            element = maker(values)
        except ValueError as exc:
            raise UsageError("%s:%d: %s" % (path, lineno, exc)) from None
        generators.append((name, element))
    if not generators:
        raise UsageError("%s: no generators found" % path)
    return generators


def cmd_classify(args):
    generators = parse_generator_file(_require(args, "generators"))
    radius = args.radius if args.radius is not None else 6
    tol = args.tol if args.tol is not None else 0.05
    try:
        group = GeneratedGroup.from_moebius(generators)
        report = classify_psl_projection(group, radius=radius, tol=tol)
        parabolic = detect_semi_parabolic(group, radius)
    except (ValueError, RuntimeError) as exc:
        raise RunError(str(exc)) from None
    print("classification: %s" % report.describe())
    if report.gap is not None:
        print("identity gap over ball(%d): %.6g" % (radius, report.gap))
    print("semi-parabolic words in ball(%d): %d" % (radius, len(parabolic)))
    for word, pe in parabolic[:20]:
        print("  %s  (trace %.6g)" % (" ".join(word), pe.m.trace_abs()))
    if len(parabolic) > 20:
        print("  ... and %d more" % (len(parabolic) - 20))
    return 0


def cmd_check(args):
    try:
        results = run_suite(args.suite, report=print)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    return 0 if all(r.passed and r.in_budget for r in results) else 1


def _svg_scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def render_scatter_svg(xs, ys, xlabel, ylabel, title):
    """Fixed-size deterministic scatter; degenerate ranges get unit padding."""
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
        % (width // 2, 22, title),
        '<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>'
        % (width // 2, height - 10, xlabel),
        '<text x="14" y="%d" font-size="12" text-anchor="middle" '
        'transform="rotate(-90 14 %d)">%s</text>'
        % (height // 2, height // 2, ylabel),
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


def cmd_plot(args):
    infile = _require(args, "infile")
    out = _require(args, "out")
    try:
        legend, columns, rows = read_orbit_csv(infile)
    except (OSError, ValueError) as exc:
        raise UsageError("cannot plot %s: %s" % (infile, exc)) from None
    xcol, ycol = args.x or "c1", args.y or "c2"
    for col in (xcol, ycol):
        if col not in columns:
            raise UsageError(
                "no column %r in %s (have: %s)" % (col, infile, ", ".join(columns))
            )
    if not rows:
        raise UsageError("%s has no data rows to plot" % infile)
    xi, yi = columns.index(xcol), columns.index(ycol)
    xs = [row[xi] for row in rows]
    ys = [row[yi] for row in rows]
    title = "%s / %s" % (legend.get("model", "orbit"), legend.get("flow", ""))
    svg = render_scatter_svg(
        xs, ys, legend.get(xcol, xcol), legend.get(ycol, ycol), title.strip(" /")
    )
    from horoflow.orbitio import _atomic_write

    _atomic_write(out, svg)
    print("wrote %s (%d points)" % (out, len(xs)))
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_orbit_options(sub):
    sub.add_argument("--model", type=str, default=None)
    sub.add_argument("--A", type=str, default=None,
                     help='integer matrix for t3a, e.g. "2 1 1 1"')
    sub.add_argument("--flow", type=str, default=None)
    sub.add_argument("--dt", type=float, default=None)
    sub.add_argument("--dalpha", type=float, default=None)
    sub.add_argument("--dbeta", type=float, default=None)
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--sample-every", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--config", type=str, default=None)


_ORBIT_KEYS = {
    "model": str, "A": str, "flow": str, "dt": float, "dalpha": float,
    "dbeta": float, "steps": int, "sample_every": int, "seed": int, "out": str,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="horoflow",
        description="orbit experiments on foliated homogeneous quotients",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    flow = subs.add_parser("flow", help="integrate an orbit, write CSV")
    _add_orbit_options(flow)

    density = subs.add_parser("density", help="orbit grid coverage as JSON")
    _add_orbit_options(density)
    density.add_argument("--bins", type=str, default=None,
                         help='cells per axis, e.g. "50 50"')
    density.add_argument("--box", type=str, default=None,
                         help='explicit ranges "lo hi" per axis')

    classify = subs.add_parser("classify", help="classify a generator file")
    classify.add_argument("--generators", type=str, default=None)
    classify.add_argument("--radius", type=int, default=None)
    classify.add_argument("--tol", type=float, default=None)
    classify.add_argument("--config", type=str, default=None)

    check = subs.add_parser("check", help="run an acceptance suite")
    check.add_argument("suite", nargs="?", default="all")

    plot = subs.add_parser("plot", help="render an orbit CSV as SVG")
    plot.add_argument("--in", dest="infile", type=str, default=None)
    plot.add_argument("--x", type=str, default=None)
    plot.add_argument("--y", type=str, default=None)
    plot.add_argument("--out", type=str, default=None)
    plot.add_argument("--config", type=str, default=None)
    return parser


_CONFIG_KEYS = {
    "flow": _ORBIT_KEYS,
    "density": dict(_ORBIT_KEYS, bins=str, box=str),
    "classify": {"generators": str, "radius": int, "tol": float},
    "plot": {"infile": str, "x": str, "y": str, "out": str},
}

_HANDLERS = {
    "flow": cmd_flow,
    "density": cmd_density,
    "classify": cmd_classify,
    "check": cmd_check,
    "plot": cmd_plot,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _CONFIG_KEYS:
            _merge_config(args, _CONFIG_KEYS[args.command])
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except RunError as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
