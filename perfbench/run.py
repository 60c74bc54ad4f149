"""horoflow's benchmark: whole CLI runs on three workloads, timed layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

`--trace 0` measures what a user waits for.  It repeats passes over the
workload's commands while the next pass should end within S seconds, and at
least MIN_PASSES times.  Each
command runs as its own `python -m horoflow.cli` child, one child at a time;
a `check` starts the CLI module through runpy, as `-m` does, after wrapping
its criteria to record whether each held.
`wall_s` is the median time of one pass, and `peak_rss_mb` the largest peak
resident set of any command child.  Before each pass, PROBES_PER_PASS
fresh interpreters import `horoflow.cli` and build the workload's models
through `horoflow.models.build_model`; `setup_s` is the median of their
times.

`--trace 1` runs all the commands through `horoflow.cli.main` in one child
interpreter untraced, then in another with every layer's public functions
wrapped (perfbench/tracer.py).  It prints the per-layer table with self
times, the tracing overhead, the backend comparison and, for dense-octagon,
the baseline row for the README figures.

Every command's output is checked (see workloads.check_output) and must
repeat byte for byte within a run.  An operation is one command or one
acceptance criterion.  A criterion's line reads FAIL also when it held but
overran its time budget, which a loaded machine causes; such a line counts as
a budget overrun, not a failed operation, if the criterion's own verdict,
recorded in the same child, shows that it held.  Each run writes
a result file with its metadata under .bench_out/results/ and prints every
metric by name and unit; the last line of stdout is the JSON summary.
`--all` runs every workload in both modes and fails if the runs disagree on
the kernel backend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

PROBES_PER_PASS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from layers import END_TO_END, PER_LAYER, UNITS, SpanIndex, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_output, stable_output  # noqa: E402

# Imports horoflow and builds the workload's models; prints the backend.
SETUP_PROBE = (
    "import sys, horoflow.cli\n"
    "from horoflow import _kernels\n"
    "from horoflow.models import build_model\n"
    "for name in sys.argv[2:]:\n"
    "    build_model(name, seed=int(sys.argv[1]))\n"
    "print(_kernels.BACKEND)\n"
)

# `python -m horoflow.cli ARGS` that also writes to PATH, as JSON, whether each
# criterion it ran held: a verdict line reads FAIL also when its criterion held
# but overran its time budget.  run_suite looks the criteria up at call time.
CLI_CHILD = (
    "import runpy, sys\n"
    "from horoflow import acceptance\n"
    "held, path = {}, sys.argv.pop(1)\n"
    "def recorded(criterion):\n"
    "    def run():\n"
    "        result = criterion()\n"
    "        held[result.number] = result.passed\n"
    "        return result\n"
    "    return run\n"
    "acceptance.ALL_CRITERIA = tuple(map(recorded, acceptance.ALL_CRITERIA))\n"
    "try:\n"
    "    runpy.run_module('horoflow.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    import json\n"
    "    with open(path, 'w') as out:\n"
    "        json.dump(held, out)\n"
)

README_CLAIM = "README: about 0.15 s native against 4.5 s pure"


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# Starts one child and reports its exit code, wall time, CPU time and peak
# RSS.  Linux charges a child at exec with its parent's peak RSS, so children
# are started from this small interpreter rather than from the driver, whose
# peak grows as it checks outputs.
LAUNCHER = """
import json, os, subprocess, sys, threading, time
timeout, out_path, err_path, *argv = sys.argv[1:]
with open(out_path, "wb") as out, open(err_path, "wb") as err:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err)
    watchdog = threading.Timer(float(timeout), proc.kill)
    watchdog.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0]))
"""


def spawn(argv, workdir):
    """Run one child to completion.

    Returns (exit code, wall s, CPU s, peak RSS MiB, stdout, stderr).
    """
    out_path = os.path.join(workdir, "child.stdout")
    err_path = os.path.join(workdir, "child.stderr")
    launcher = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S), out_path, err_path,
         *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        report, _ = launcher.communicate(timeout=CHILD_TIMEOUT_S + 10)
    except BaseException:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise BenchmarkError("child launcher failed for %s" % " ".join(argv))
    code, wall, cpu, peak = json.loads(report)
    with open(out_path, "r", encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return code, wall, cpu, peak, stdout, stderr


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.overruns = []

    def add(self, attempted, failures, overruns=()):
        self.attempted += attempted
        self.failures.extend(failures)
        self.overruns.extend(overruns)

    @property
    def correct(self):
        return not self.failures


def check_command(tally, command, code, stdout, stderr, verdicts=None):
    """Check one command; returns its stable-output digest, or None if it failed."""
    attempted, failures, overruns = check_output(command, code, stdout, verdicts)
    if code != 0 and stderr.strip():
        failures = [f + " (" + stderr.strip().splitlines()[-1] + ")"
                    for f in failures]
    tally.add(attempted, failures, overruns)
    if failures and command.kind != "check":
        return None
    return hashlib.sha256(stable_output(command, stdout)).hexdigest()


def compare_digests(tally, label, commands, expected, got):
    for command, want, have in zip(commands, expected, got):
        if want is not None and have is not None and want != have:
            tally.add(0, ["%s: %s output differs between runs with one seed"
                          % (label, " ".join(command.argv[:3]))])


def run_command(command, workdir):
    """Run one command as a fresh CLI child.

    Returns (exit code, wall s, CPU s, peak RSS MiB, stdout, stderr, verdicts),
    verdicts mapping each criterion a `check` ran to whether it held.
    """
    if command.out and os.path.exists(command.out):
        os.unlink(command.out)
    if command.kind != "check":
        argv = [sys.executable, "-m", "horoflow.cli", *command.argv]
        return (*spawn(argv, workdir), {})
    held_path = os.path.join(workdir, "held.json")
    if os.path.exists(held_path):
        os.unlink(held_path)
    outcome = spawn([sys.executable, "-c", CLI_CHILD, held_path, *command.argv],
                    workdir)
    try:
        with open(held_path, "r", encoding="utf-8") as handle:
            verdicts = {int(n): held for n, held in json.load(handle).items()}
    except (OSError, ValueError):
        verdicts = {}
    return (*outcome, verdicts)


def one_backend(backends):
    if len(set(backends)) != 1:
        raise BenchmarkError("one set of runs mixes kernel backends: %s"
                             % ", ".join(sorted(set(backends))))
    return backends[0]


def metric(name, value):
    return {"value": value, "unit": UNITS[name]}


def run_untraced(workload, seed, seconds, workdir):
    tally = Tally()
    probe = [sys.executable, "-c", SETUP_PROBE, str(seed), *workload.models]
    setup, backends = [], []

    def set_up():
        code, wall, _, _, stdout, stderr = spawn(probe, workdir)
        if code != 0:
            raise BenchmarkError("set-up probe failed: %s" % stderr.strip())
        backends.append(stdout.strip())
        return wall

    set_up()  # fills the bytecode cache; not timed
    commands = workload.build(seed, workdir)
    walls, cpus, peak, reference = [], [], 0.0, None
    elapsed, start = 0.0, time.perf_counter()
    # Start another pass only if it should end within `seconds`.
    while (len(walls) < MIN_PASSES
           or elapsed * (len(walls) + 1) / len(walls) <= seconds):
        # Probes interleave with the passes so both see the same machine load.
        setup.extend(set_up() for _ in range(PROBES_PER_PASS))
        pass_wall, pass_cpu, digests = 0.0, 0.0, []
        for command in commands:
            code, wall, cpu, rss, stdout, stderr, verdicts = run_command(
                command, workdir)
            pass_wall += wall
            pass_cpu += cpu
            peak = max(peak, rss)
            digests.append(check_command(tally, command, code, stdout, stderr,
                                         verdicts))
        walls.append(pass_wall)
        cpus.append(pass_cpu)
        if reference is None:
            reference = digests
        compare_digests(tally, "pass %d" % len(walls), commands,
                        reference, digests)
        elapsed = time.perf_counter() - start
    metrics = {
        "wall_s": metric("wall_s", statistics.median(walls)),
        "peak_rss_mb": metric("peak_rss_mb", peak),
        "setup_s": metric("setup_s", statistics.median(setup)),
    }
    details = {"passes_wall_s": walls, "passes_cpu_s": cpus,
               "setup_samples_s": setup}
    return one_backend(backends), tally, metrics, details


def run_tracer(argvs, trace, baseline, workdir):
    """Run commands in one tracer.py child; returns its result dict."""
    mode = "traced" if trace else "plain"
    spec_path = os.path.join(workdir, mode + ".spec.json")
    out_path = os.path.join(workdir, mode + ".out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"commands": argvs, "trace": trace, "baseline": baseline},
                  handle)
    code, _, _, _, _, stderr = spawn(
        [sys.executable, os.path.join(HERE, "tracer.py"), spec_path, out_path],
        workdir)
    if code != 0:
        raise BenchmarkError("%s in-process run failed: %s" % (mode, stderr.strip()))
    with open(out_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_traced(workload, seed, workdir):
    tally = Tally()
    runs = {}
    for trace in (False, True):
        outdir = os.path.join(workdir, "traced" if trace else "plain")
        os.makedirs(outdir)
        commands = workload.build(seed, outdir)
        runs[trace] = (commands, run_tracer(
            [c.argv for c in commands], trace,
            trace and workload.name == "dense-octagon", workdir))
    # Whether each criterion held, from the traced run; the plain run must
    # repeat its measurements.
    verdicts = {s[4]["number"]: s[4]["passed"] for s in runs[True][1]["spans"]
                if s[0] == "acceptance.criterion" and s[4]}
    for trace, (commands, result) in runs.items():
        digests = [check_command(tally, c, r["code"], r["stdout"], "", verdicts)
                   for c, r in zip(commands, result["commands"])]
        runs[trace] = (commands, result, digests)
    plain, traced = runs[False], runs[True]
    compare_digests(tally, "traced run", traced[0], plain[2], traced[2])
    backend = one_backend([plain[1]["backend"], traced[1]["backend"]])
    both = traced[1]["backends"]
    if both["available"]:
        tally.add(both["compared"], ["kernel %s: pure and native samples differ" % k
                                     for k in both["mismatches"]])
    values = layer_metrics(traced[1], plain[1])
    metrics = {name: metric(name, values[name]) for name, *_ in PER_LAYER}
    details = {
        "spans": SpanIndex(traced[1]["spans"]).table(),
        "baseline_spans": SpanIndex(
            traced[1].get("baseline", {}).get("spans", [])).table(),
        "backends": both,
        "unpatched": traced[1]["unpatched"],
    }
    return backend, tally, metrics, details


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if trace:
            backend, tally, metrics, details = run_traced(workload, seed, workdir)
        else:
            backend, tally, metrics, details = run_untraced(
                workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "meta": {
            "workload": workload_name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "backend": backend,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(),
        },
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "budget_overruns": tally.overruns,
        "metrics": metrics,
        "details": details,
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                        % (workload_name, seed, int(trace)))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return result


def print_report(result):
    meta, details = result["meta"], result["details"]
    w = print
    w("horoflow benchmark  workload=%s seed=%d trace=%d" % (
        meta["workload"], meta["seed"], meta["trace"]))
    w("  backend=%s python=%s nproc=%s commit=%s" % (
        meta["backend"], meta["python"], meta["nproc"], meta["commit"]))
    w("  cpu=%s" % meta["cpu"])
    w("  operations attempted=%d failed=%d correct=%s" % (
        result["attempted"], result["failed"], result["correct"]))
    for failure in result["failures"]:
        w("  FAILED: %s" % failure)
    for overrun in result["budget_overruns"]:
        w("  overrun: %s" % overrun)
    if not meta["trace"]:
        walls = details["passes_wall_s"]
        w()
        w("%-36s %14s  %s" % ("end-to-end metric", "value", "unit"))
        for name, *_ in END_TO_END:
            m = result["metrics"][name]
            w("%-36s %14.6g  %s" % (name, m["value"], m["unit"]))
        w("  wall_s: median of %d passes, min %.4g, max %.4g (child CPU median "
          "%.4g s); setup_s: median of %d interpreters" % (
              len(walls), min(walls), max(walls),
              statistics.median(details["passes_cpu_s"]),
              len(details["setup_samples_s"])))
        return
    w()
    w("%-36s %7s %11s %11s" % ("span", "calls", "total s", "self s"))
    for name, calls, total, own in details["spans"]:
        w("%-36s %7d %11.4f %11.4f" % (name, calls, total, own))
    w()
    w("%-36s %14s  %-6s %-28s %s" % ("per-layer metric", "value", "unit",
                                     "should move", "on"))
    for name, unit, _, moves, where in PER_LAYER:
        w("%-36s %14.6g  %-6s %-28s %s" % (
            name, result["metrics"][name]["value"], unit, moves, where))
    m = result["metrics"]
    w()
    w("tracing overhead: %.4f s on %.4f s traced, %d spans (one traced and one "
      "untraced pass; a negative value is below run-to-run noise)" % (
          m["trace.overhead_s"]["value"], m["trace.wall_s"]["value"],
          sum(row[1] for row in details["spans"])))
    if details["baseline_spans"]:
        w("baseline (criterion 8: 200k octagon u-steps, sample_every=1, %s): "
          "kernel %.3f s, integrate_orbit %.3f s, coverage %.3f s, CSV text "
          "%.3f s" % (meta["backend"], m["baseline.kernel_s"]["value"],
                      m["baseline.integrate_orbit_s"]["value"],
                      m["baseline.coverage_s"]["value"],
                      m["baseline.csv_text_s"]["value"]))
        w("1M-step surface kernel: %.3f s on %s (%s)" % (
            m["baseline.kernel_1m_s"]["value"], meta["backend"], README_CLAIM))
    both = details["backends"]
    if both["available"]:
        w("kernel calls under both backends (%d compared, %d differ):" % (
            both["compared"], len(both["mismatches"])))
        for label, seconds in both["seconds"].items():
            w("  %-7s %s" % (label, "  ".join(
                "%s %.4f s" % kv for kv in sorted(seconds.items()))))
    else:
        w("native backend not importable: kernel metrics for the pure backend only")
    if details["unpatched"]:
        w("not traced (no binding found): %s" % ", ".join(details["unpatched"]))


def summary_line(result):
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def run_all(seed, seconds):
    results = [run(name, seed, seconds, trace)
               for name in WORKLOADS for trace in (False, True)]
    for result in results:
        print_report(result)
        print()
    one_backend([r["meta"]["backend"] for r in results])
    print("%-20s %-12s %12s %12s %12s %s" % (
        "workload", "backend", "wall_s", "peak_rss_mb", "setup_s", "ops failed"))
    for result in results:
        if result["meta"]["trace"]:
            continue
        m = result["metrics"]
        print("%-20s %-12s %12.4f %12.1f %12.4f %d/%d" % (
            result["meta"]["workload"], result["meta"]["backend"],
            m["wall_s"]["value"], m["peak_rss_mb"]["value"],
            m["setup_s"]["value"], result["failed"], result["attempted"]))
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "horoflow", "cli.py")):
        print("no horoflow source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Turn a termination request into an exception so that running children
    # are killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print_report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
