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
scaled to unit determinant), `u t`, `geo lam`, `rot theta`, `b alpha beta`;
every number must be finite.
"""

from __future__ import annotations

import argparse
import math
import sys

# Every command loads these modules anyway.  `acceptance`, `diagnostics`,
# `flows` and `orbitio` are imported inside the functions that use them, so a
# command pays only for the modules it needs: `flow` skips the first two and
# `classify` all four.
from horoflow import models
from horoflow.groups import (
    BOUNDARY_CIRCLE,
    GeneratedGroup,
    classify_psl_projection,
    detect_semi_parabolic,
)
from horoflow.models import MODEL_NAMES
from horoflow.moebius import BoundaryPoint, MoebiusElement

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


def _merge_config(args):
    """Fill argparse gaps from the config file, whose keys are the dests in
    args.config_keys; flags always win."""
    if not getattr(args, "config", None):
        return
    values = read_config_file(args.config)
    for key, text in values.items():
        dest = key.replace("-", "_")
        if dest not in args.config_keys:
            raise UsageError("unknown config key %r" % key)
        if getattr(args, dest) is None:
            caster = args.config_keys[dest]
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
    from horoflow.flows import (
        BorelB,
        DualBoundaryIterate,
        GeodesicD,
        HorocycleU,
        Sol3U,
    )

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
    from horoflow.flows import DualBoundaryIterate

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
    """The model, the flow and the orbit's chunks, which run the kernel as
    they are read; a failure of the run, before or while the chunks come,
    is a RunError."""
    from horoflow.flows import orbit_chunks

    model = build_model(_require(args, "model"), args.A, args.seed)
    flow = build_flow(args)
    steps = _require(args, "steps")
    start = None if args.seed is not None else origin_point(model, flow)
    try:
        chunks = orbit_chunks(
            model, start, flow, steps,
            seed=args.seed,
            sample_every=1 if args.sample_every is None else args.sample_every,
        )
    except (ValueError, ArithmeticError) as exc:
        raise RunError(str(exc)) from None
    return model, flow, _run(chunks, steps)


def _run(chunks, steps):
    try:
        for chunk in chunks:
            if steps == 0:
                # zero steps means "emit the format, integrate nothing"
                chunk.values = chunk.values[:0]
            yield chunk
    except (ValueError, ArithmeticError) as exc:
        raise RunError(str(exc)) from None


# -- subcommands ---------------------------------------------------------------


def cmd_flow(args):
    from horoflow.orbitio import write_orbit_csv

    out = _require(args, "out")
    _, _, chunks = _integrate(args)
    write_orbit_csv(chunks, out)
    samples = args.steps // (args.sample_every or 1) + 1 if args.steps else 0
    print("wrote %s (%d samples)" % (out, samples))
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
    from horoflow.diagnostics import BinningSpec, coverage
    from horoflow.orbitio import write_density_json

    out = _require(args, "out")
    bins_text = _require(args, "bins")
    try:
        counts = tuple(int(p) for p in bins_text.split())
    except ValueError:
        raise UsageError("--bins must be whitespace-separated integers") from None
    if not counts:
        raise UsageError("--bins must name at least one axis")
    model, flow, chunks = _integrate(args)
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
    try:  # a kernel error reaches here as a RunError, from _run
        spec = BinningSpec(ranges, counts)
        report = coverage(chunks, spec)
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
            if not all(map(math.isfinite, values)):
                raise ValueError("numbers must be finite, got %r" % " ".join(rest))
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
    if radius < 1:  # ball(0) holds the identity alone
        raise UsageError("--radius must be an integer >= 1, got %r" % radius)
    tol = args.tol if args.tol is not None else 0.05
    if not 0 < tol < math.inf:  # false for nan too
        raise UsageError("--tol must be a finite number > 0, got %r" % tol)
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
    from horoflow.acceptance import UnknownSuite, run_suite

    try:
        results = run_suite(args.suite, report=print)
    except UnknownSuite as exc:
        raise UsageError(str(exc.args[0])) from None
    return 0 if all(r.passed and r.in_budget for r in results) else 1


def cmd_plot(args):
    from horoflow.orbitio import _atomic_write, read_orbit_csv
    from horoflow.plot import render_scatter_svg

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
    for col, values in ((xcol, xs), (ycol, ys)):
        if not all(map(math.isfinite, values)):
            raise UsageError(
                "cannot plot %s: column %s has a non-finite value" % (infile, col)
            )
    title = "%s / %s" % (legend.get("model", "orbit"), legend.get("flow", ""))
    svg = render_scatter_svg(
        xs, ys, legend.get(xcol, xcol), legend.get(ycol, ycol), title.strip(" /")
    )
    _atomic_write(out, (svg,))
    print("wrote %s (%d points)" % (out, len(xs)))
    return 0


# -- argument plumbing ---------------------------------------------------------


def _add_orbit_options(sub):
    """Add the orbit options, then --config; returns the orbit options."""
    options = [
        sub.add_argument("--model", type=str, default=None),
        sub.add_argument("--A", type=str, default=None,
                         help='integer matrix for t3a, e.g. "2 1 1 1"'),
        sub.add_argument("--flow", type=str, default=None),
        sub.add_argument("--dt", type=float, default=None),
        sub.add_argument("--dalpha", type=float, default=None),
        sub.add_argument("--dbeta", type=float, default=None),
        sub.add_argument("--steps", type=int, default=None),
        sub.add_argument("--sample-every", type=int, default=None),
        sub.add_argument("--seed", type=int, default=None),
        sub.add_argument("--out", type=str, default=None),
    ]
    sub.add_argument("--config", type=str, default=None)
    return options


def _config_keys(sub, options):
    """Let a config file set `options`, the actions add_argument returned."""
    sub.set_defaults(config_keys={o.dest: o.type for o in options})


def build_parser():
    parser = argparse.ArgumentParser(
        prog="horoflow",
        description="orbit experiments on foliated homogeneous quotients",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    flow = subs.add_parser("flow", help="integrate an orbit, write CSV")
    _config_keys(flow, _add_orbit_options(flow))

    density = subs.add_parser("density", help="orbit grid coverage as JSON")
    _config_keys(density, _add_orbit_options(density) + [
        density.add_argument("--bins", type=str, default=None,
                             help='cells per axis, e.g. "50 50"'),
        density.add_argument("--box", type=str, default=None,
                             help='explicit ranges "lo hi" per axis'),
    ])

    classify = subs.add_parser("classify", help="classify a generator file")
    _config_keys(classify, [
        classify.add_argument("--generators", type=str, default=None),
        classify.add_argument("--radius", type=int, default=None),
        classify.add_argument("--tol", type=float, default=None),
    ])
    classify.add_argument("--config", type=str, default=None)

    check = subs.add_parser("check", help="run an acceptance suite")
    check.add_argument("suite", nargs="?", default="all")

    plot = subs.add_parser("plot", help="render an orbit CSV as SVG")
    _config_keys(plot, [
        plot.add_argument("--in", dest="infile", type=str, default=None),
        plot.add_argument("--x", type=str, default=None),
        plot.add_argument("--y", type=str, default=None),
        plot.add_argument("--out", type=str, default=None),
    ])
    plot.add_argument("--config", type=str, default=None)
    return parser


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
        _merge_config(args)
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
