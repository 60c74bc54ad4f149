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
flags win over the file, unknown keys are a usage error.  DOMAINS gives
each option its cast and the values it takes; a value set outside them, by
flag or by config key, is a usage error before anything runs.  So are a
flow the model does not carry (`sol3u` and `dual` run on t3a only), and an
--out that cannot be written, which flow and density open before the orbit
runs.  Exit codes: 0 success, 1 dynamics or criterion failure, 2 usage or
parse error.

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
    WORD_BALL_RADIUS_CAP,
    GeneratedGroup,
    classify_psl_projection,
    detect_semi_parabolic,
)
from horoflow.models import MODEL_NAMES
from horoflow.moebius import BoundaryPoint, MoebiusElement

FLOW_NAMES = ("u", "geo", "b", "sol3u", "dual")
# the flows defined on the torus bundle, t3a, only; flows refuses them on
# another model too, but only once the stream is read, with --out open
BUNDLE_FLOWS = ("sol3u", "dual")

DEFAULT_DT = {"u": 0.01, "geo": 0.01, "sol3u": 0.037}


class UsageError(Exception):
    pass


class RunError(Exception):
    pass


# -- option domains -------------------------------------------------------------


def ints(text):
    return tuple(int(p) for p in text.split())


def floats(text):
    return tuple(float(p) for p in text.split())


def _max_steps():
    from horoflow.flows import MAX_STEPS  # only --steps loads flows here

    return MAX_STEPS


# Each option's cast, domain test and domain in words, by dest; an option
# not listed is text.  argparse casts a flag with `type=` and _merge_config a
# config value with the same cast; then _check_domains refuses a value set
# outside its domain, and _merge_config one that does not cast, as the usage
# error "--OPTION must be WORDS, got VALUE".  The words for --steps are a
# function so that flows, which holds the cap, loads only when they are
# needed.  Checks that need two options stay with the commands.
DOMAINS = {
    "model": (str, MODEL_NAMES.__contains__, "one of " + ", ".join(MODEL_NAMES)),
    "A": (ints, lambda v: len(v) == 4, "four integers"),
    "flow": (str, FLOW_NAMES.__contains__, "one of " + ", ".join(FLOW_NAMES)),
    "dt": (float, lambda v: 0 < abs(v) < math.inf, "a finite nonzero number"),
    "dalpha": (float, math.isfinite, "a finite number"),
    "dbeta": (float, math.isfinite, "a finite number"),
    "steps": (int, lambda v: 0 <= v <= _max_steps(),
              lambda: "an integer from 0 to %d" % _max_steps()),
    "sample_every": (int, lambda v: v >= 1, "an integer >= 1"),
    "seed": (int, lambda v: True, "an integer"),
    "bins": (ints, lambda v: v and min(v) >= 1, "one or more integers >= 1"),
    "box": (floats, lambda v: all(map(math.isfinite, v)), "finite numbers"),
    "radius": (int, lambda v: 1 <= v <= WORD_BALL_RADIUS_CAP,
               "an integer from 1 to %d" % WORD_BALL_RADIUS_CAP),
    "tol": (float, lambda v: 0 < v < math.inf, "a finite number > 0"),
}


def _outside(dest, value):
    # a text option has no domain; only `--flag=--` is refused for one
    words = DOMAINS[dest][2] if dest in DOMAINS else "a name other than --"
    if isinstance(value, tuple):  # as typed
        value = " ".join(map(str, value))
    return UsageError("--%s must be %s, got %r" % (
        "in" if dest == "infile" else dest.replace("_", "-"),
        words() if callable(words) else words, value))


def _check_domains(args):
    for dest, value in vars(args).items():
        if value == []:  # argparse leaves the value of `--flag=--` uncast
            raise _outside(dest, "--")
    for dest, (_, test, _) in DOMAINS.items():
        value = getattr(args, dest, None)
        if value is not None and not test(value):
            raise _outside(dest, value)


# -- config handling ----------------------------------------------------------


def _lines(path, what):
    """The numbered lines of a text file that are not blank or a `#` comment."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (what, exc)) from None
    numbered = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(lines, 1))
    return [(lineno, line) for lineno, line in numbered if line]


def read_config_file(path):
    """Parse `key = value` lines; `#` comments and blank lines are skipped."""
    values = {}
    for lineno, line in _lines(path, "config file"):
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
    for key, text in read_config_file(args.config).items():
        dest = key.replace("-", "_")
        if dest not in args.config_keys:
            raise UsageError("unknown config key %r" % key)
        if getattr(args, dest) is None:
            try:
                setattr(args, dest, args.config_keys[dest](text))
            except ValueError:
                raise _outside(dest, text) from None


def _require(args, name):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise UsageError("missing required option --%s" % name)
    return value


def _write(out, write):
    """Run write(), which writes `out`; an OSError is a usage error."""
    try:
        write()
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (out, exc.strerror or exc)) from None


# -- model and flow construction ----------------------------------------------


def build_model(name, a, seed):
    """Build a model through horoflow.models.build_model.

    --A is used for t3a only; without --seed the octagon_so3 holonomy
    seed is 0, where the library's default is 7.
    """
    a_mat = (a[:2], a[2:]) if name == "t3a" and a else None
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
    if kind == "dual":
        return DualBoundaryIterate()
    if kind != "b":
        dt = args.dt if args.dt is not None else DEFAULT_DT[kind]
        return {"u": HorocycleU, "geo": GeodesicD, "sol3u": Sol3U}[kind](dt)
    try:
        return BorelB(0.01 if args.dalpha is None else args.dalpha,
                      0.01 if args.dbeta is None else args.dbeta)
    except ValueError as exc:  # both steps zero
        raise UsageError(str(exc)) from None


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
    """The model, the flow and the orbit's chunks, which start the run as
    they are read; a flow the model does not carry is a UsageError, and a
    failure of the run a RunError."""
    name, kind = _require(args, "model"), _require(args, "flow")
    if kind in BUNDLE_FLOWS and name != "t3a":
        raise UsageError("--flow %s runs on --model t3a only, got --model %s"
                         % (kind, name))
    model = build_model(name, args.A, args.seed)
    flow = build_flow(args)
    start = None if args.seed is not None else origin_point(model, flow)
    return model, flow, _run(model, start, flow, _require(args, "steps"),
                             args.seed, args.sample_every or 1)


def _run(model, start, flow, steps, seed, sample_every):
    from horoflow.flows import orbit_chunks

    try:
        for chunk in orbit_chunks(model, start, flow, steps, seed=seed,
                                  sample_every=sample_every):
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
    _write(out, lambda: write_orbit_csv(chunks, out))
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
    counts = _require(args, "bins")
    model, flow, chunks = _integrate(args)
    if args.box is None:
        ranges = _default_ranges(model, flow, len(counts))
    elif len(args.box) != 2 * len(counts):
        raise UsageError("--box needs two numbers per binned axis")
    else:
        ranges = tuple(zip(args.box[::2], args.box[1::2]))
    try:
        spec = BinningSpec(ranges, counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = None

    def measure():  # called with --out open, so the orbit runs only then
        nonlocal report
        try:  # a kernel error reaches here as a RunError, from _run
            report = coverage(chunks, spec)
        except ValueError as exc:  # more binned axes than coordinates
            raise UsageError(str(exc)) from None
        return report

    _write(out, lambda: write_density_json(measure, out))
    print(
        "wrote %s (visited %d of %d cells, fraction %.4f)"
        % (out, report.visited, report.total, report.fraction)
    )
    return 0


_GENERATOR_KINDS = {
    "mat": (4, MoebiusElement),
    "u": (1, MoebiusElement.u),
    "geo": (1, MoebiusElement.geo),
    "rot": (1, MoebiusElement.rot),
    "b": (2, MoebiusElement.b_el),
}


def parse_generator_file(path):
    generators = []
    for lineno, line in _lines(path, "generator file"):
        parts = line.split()
        if len(parts) < 2:
            raise UsageError("%s:%d: expected `name kind args`" % (path, lineno))
        name, kind, *rest = parts
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
            element = maker(*values)
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
    _write(out, lambda: _atomic_write(out, (svg,)))
    print("wrote %s (%d points)" % (out, len(xs)))
    return 0


# -- argument plumbing ---------------------------------------------------------


ORBIT_OPTIONS = ("model", "A", "flow", "dt", "dalpha", "dbeta", "steps",
                 "sample-every", "seed", "out")

# Each subcommand's help and options; all but check take --config too.
COMMANDS = {
    "flow": ("integrate an orbit, write CSV", ORBIT_OPTIONS),
    "density": ("orbit grid coverage as JSON", ORBIT_OPTIONS + ("bins", "box")),
    "classify": ("classify a generator file", ("generators", "radius", "tol")),
    "check": ("run an acceptance suite", None),
    "plot": ("render an orbit CSV as SVG", ("in", "x", "y", "out")),
}

OPTION_HELP = {
    "A": 'integer matrix for t3a, e.g. "2 1 1 1"',
    "bins": 'cells per axis, e.g. "50 50"',
    "box": 'explicit ranges "lo hi" per axis',
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="horoflow",
        description="orbit experiments on foliated homogeneous quotients",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        if flags is None:
            sub.add_argument("suite", nargs="?", default="all")
            continue
        options = []
        for flag in flags:
            dest = "infile" if flag == "in" else flag.replace("-", "_")
            options.append(sub.add_argument(
                "--" + flag, dest=dest, help=OPTION_HELP.get(flag),
                type=DOMAINS[dest][0] if dest in DOMAINS else str))
        sub.add_argument("--config", type=str)
        # a config file may set every option but --config
        sub.set_defaults(config_keys={o.dest: o.type for o in options})
    return parser


_HANDLERS = {
    "flow": cmd_flow,
    "density": cmd_density,
    "classify": cmd_classify,
    "check": cmd_check,
    "plot": cmd_plot,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _merge_config(args)
        _check_domains(args)
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
