"""The benchmark's workloads and the checks their outputs must pass.

A workload is a list of `horoflow` CLI commands built from the benchmark
seed.  Each command names the kind of output it leaves behind, and
`check_output` decides whether that output is correct.  Every input file is
written here, so the program only ever sees generated inputs.

Sizes fit a 2-core, 8 GB machine: at most one child runs at a time, the
densest command keeps 200k samples (about 130 MiB peak), and nothing comes
near `MAX_STEPS` with `sample_every=1`.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

# The suite `check all` runs and the number of criteria it reports.
CHECK_SUITE = "all"
CHECK_CRITERIA = 10

# Sparse runs emit about this many samples per model, whatever the length.
SPARSE_SAMPLES = 1000

_VERDICT = re.compile(
    r"^criterion\s+(\d+)\s+(\S+)\s+(PASS|FAIL)\s+\((\S+)s of (\S+)s budget\)(.*)$"
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `python -m horoflow.cli *argv`."""

    argv: tuple
    kind: str  # "csv", "json" or "check"
    out: str | None = None  # the file the command writes, if any
    rows: int | None = None  # expected CSV data rows (samples)


def _steps(full, scale):
    return max(1000, int(full * scale))


def _flow(model, flow, steps, sample_every, seed, out):
    argv = ("flow", "--model", model, "--flow", flow,
            "--steps", str(steps), "--sample-every", str(sample_every),
            "--seed", str(seed), "--out", out)
    return Command(argv, "csv", out, steps // sample_every + 1)


def dense_octagon(seed, workdir, scale=1.0):
    steps = _steps(200_000, scale)
    out_json = os.path.join(workdir, "density.json")
    density = ("density", "--model", "octagon", "--flow", "u", "--dt", "0.11",
               "--steps", str(steps), "--sample-every", "1", "--seed", str(seed),
               "--bins", "10 10 8", "--out", out_json)
    return [
        Command(density, "json", out_json),
        _flow("octagon_boundary", "b", _steps(100_000, scale), 1, seed,
              os.path.join(workdir, "dense.csv")),
    ]


# (model, flow, steps): every kernel function and every transverse kind.
# The modular and torus-bundle kernels are cheap per step, so they run longer.
SPARSE_RUNS = (
    ("octagon", "u", 150_000),
    ("octagon_boundary", "b", 150_000),
    ("octagon_so3", "geo", 150_000),
    ("modular", "u", 1_000_000),
    ("t3a", "sol3u", 1_000_000),
)


def sparse_all_models(seed, workdir, scale=1.0):
    commands = []
    for model, flow, full in SPARSE_RUNS:
        steps = _steps(full, scale)
        every = max(1, steps // SPARSE_SAMPLES)
        commands.append(_flow(model, flow, steps, every, seed,
                              os.path.join(workdir, model + ".csv")))
    return commands


def check_all(seed, workdir, scale=1.0):
    # The suite's inputs are fixed by SUITE_SEED; the benchmark seed is unused.
    return [Command(("check", CHECK_SUITE), "check")]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, workdir, scale) -> [Command]
    models: tuple  # built through horoflow.models.build_model for setup_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-octagon",
            "every step is a sample, so per-sample objects in flows, "
            "coverage binning and %.17g CSV text carry the load",
            dense_octagon, ("octagon", "octagon_boundary"),
        ),
        Workload(
            "sparse-all-models",
            "the kernel does every step but about 1000 samples per model reach "
            "flows and orbitio; all 5 models, 3 kernels, 3 transverse kinds",
            sparse_all_models, ("octagon", "octagon_boundary", "octagon_so3",
                                "modular", "t3a"),
        ),
        Workload(
            "check-all",
            "certifies the paper's claims; minimal_set_residual, "
            "keylemma_converge and model reductions dominate",
            check_all, ("octagon", "octagon_boundary", "modular", "t3a"),
        ),
    )
}


def stable_output(command, stdout):
    """The bytes that must repeat exactly between runs with one seed."""
    if command.kind in ("csv", "json"):
        with open(command.out, "rb") as handle:
            return handle.read()
    if command.kind == "check":
        # Elapsed times vary, and so do the marks a time budget can flip;
        # the measurements must not.
        return "\n".join(
            "%s %s %s" % (m.group(1), m.group(2), m.group(6))
            for m in map(_VERDICT.match, stdout.splitlines()) if m
        ).encode()
    raise ValueError("unknown command kind %r" % command.kind)


def check_output(command, code, stdout, verdicts=None):
    """Check one command's output.

    Returns (operations attempted, failures, budget overruns), each failure
    and overrun a message.  `verdicts` maps a criterion's number to whether
    it held, as the criterion itself reported it (see _check_suite).
    """
    from horoflow.orbitio import read_orbit_csv

    if command.kind == "check":
        return _check_suite(code, stdout, verdicts or {})
    label = " ".join(command.argv[:3])
    if code != 0:
        return 1, ["%s: exit code %d" % (label, code)], []
    if command.kind == "csv":
        try:
            _, _, rows = read_orbit_csv(command.out)
        except (OSError, ValueError) as exc:
            return 1, ["%s: orbit CSV does not parse: %s" % (label, exc)], []
        if len(rows) != command.rows:
            return 1, ["%s: %d CSV rows, expected %d"
                       % (label, len(rows), command.rows)], []
    elif command.kind == "json":
        try:
            with open(command.out, "r", encoding="utf-8") as handle:
                fraction = json.load(handle)["fraction"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return 1, ["%s: density JSON does not parse: %s" % (label, exc)], []
        if not (isinstance(fraction, (int, float)) and 0.0 <= fraction <= 1.0):
            return 1, ["%s: fraction %r outside [0, 1]" % (label, fraction)], []
    return 1, [], []


def _check_suite(code, stdout, verdicts):
    """A verdict line reads PASS only if its criterion held within its budget.

    A FAIL line within budget is a failed criterion.  A FAIL line past its
    budget is an overrun, and fails only if `verdicts` does not show that the
    criterion held: a loaded machine slows a criterion without making its
    measurements wrong.
    """
    failures, overruns = [], []
    lines = [m for m in map(_VERDICT.match, stdout.splitlines()) if m]
    for m in lines:
        if m.group(3) == "PASS":
            continue
        number, label = int(m.group(1)), "criterion %s %s" % m.group(1, 2)
        if float(m.group(4)) < float(m.group(5)):
            failures.append(label + ": FAIL")
            continue
        overruns.append(label + ": over its time budget")
        if verdicts.get(number) is not True:
            failures.append(label + ": FAIL, and past its budget")
    if len(lines) != CHECK_CRITERIA:
        failures.append("check %s: %d verdict lines, expected %d"
                        % (CHECK_SUITE, len(lines), CHECK_CRITERIA))
    elif code != (0 if all(m.group(3) == "PASS" for m in lines) else 1):
        failures.append("check %s: exit code %d disagrees with the verdicts"
                        % (CHECK_SUITE, code))
    return 1 + CHECK_CRITERIA, failures, overruns
