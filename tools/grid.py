"""Write horoflow's output grid into OUT_DIR: `python tools/grid.py OUT_DIR`.

Each line of commands() runs in OUT_DIR, in a fresh `python -m horoflow.cli`
with this checkout's src first on the path, on the backend the environment
selects (HOROFLOW_PURE=1 for the pure one).  check-all.txt holds `check all`'s
verdict lines, elapsed stripped, and each criterion's details repr, which
must agree at the default CPU affinity, on the first usable CPU and on the
first two.  /dev/null must stay a character device, and each REFUSED line
exit 2 with nothing on stdout and no file left; any failure exits 1.  Two
grids (two backends, or a change and its parent) compare with `diff -r`.
"""

import difflib
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))))
MODELS = ("modular", "octagon", "octagon_boundary", "octagon_so3", "t3a")
CLASSIFY = "classify --generators modular.gens"  # its stdout is a grid file
DEV_NULL = ["flow --model octagon --flow u --steps 100 --out /dev/null",
            'density --model octagon --flow u --steps 100 --bins "8 8" --out /dev/null']
# run beside run.conf, which holds `sample-every = 0`
REFUSED = ["flow --model octagon --flow u --steps -1 --out x.csv",
           "flow --model octagon --flow u --steps 10 --config run.conf --out x.csv",
           "density --model octagon --flow u --steps 10 --bins 8 --out missing/x.json",
           "flow --model modular --flow sol3u --steps 10 --out x.csv",
           "density --model octagon --flow dual --steps 10 --bins 8 --out x.json",
           "flow --model octagon --flow u --steps 10 --out=--"]
# `check all` through the CLI on the CPUs listed after it, then the details
CHECK = """import os, sys
from horoflow import acceptance, cli
os.sched_setaffinity(0, map(int, sys.argv[3:]))
results, run_suite = [], acceptance.run_suite
acceptance.run_suite = lambda *a, **k: results.extend(run_suite(*a, **k)) or results
status = cli.main(sys.argv[1:3])
for r in results:
    print(r.number, r.name, r.passed, r.budget, repr(r.details))
sys.exit(status)
"""


def commands():
    """Every grid command line, in run order."""
    lines = []

    def runs(pairs, name, args, csv=True, density='--bins "8 8"'):
        """flow CSVs and density JSONs of "model:flow ..." pairs, each
        named name.format(model, flow)."""
        for model, flow in (pair.split(":") for pair in pairs.split()):
            spec = "--model %s --flow %s %s" % (model, flow, args)
            out = name.format(model, flow)
            if csv:
                lines.append("flow %s --out %s.csv" % (spec, out))
            if density:
                lines.append("density %s %s --out %s.json" % (spec, density, out))

    every = " ".join("%s:%s" % (m, f) for m in MODELS for f in ("u", "geo", "b"))
    runs(every, "{}-{}-origin", "--steps 5000")
    runs(every, "{}-{}-5", "--steps 5000 --seed 5")
    runs(" ".join(m + ":u" for m in MODELS), "{}-every7",
         "--steps 5000 --sample-every 7 --seed 5")
    runs("t3a:sol3u t3a:dual", "{}-{}", "--steps 5000 --seed 5")
    runs("octagon:u", "steps0", "--steps 0", density=None)
    # times crossing 1e-6 (C's exact digit path) and 1e-4 (%.17g's notation)
    runs("octagon:u", "{}-{}-dt1e-7", "--dt 1e-7 --steps 1200", density=None)
    # a box that clips the orbit, so that most samples are skipped
    runs("octagon:u", "{}-{}-box", "--steps 5000 --seed 5", csv=False,
         density='--bins "10 10" --box "-0.3 0.3 0.5 1.5"')
    # one step, and a sampling interval longer than the run
    short = "octagon_boundary:b octagon_so3:geo modular:u t3a:sol3u"
    runs(short, "{}-{}-steps1", "--steps 1 --seed 5")
    runs(short, "{}-{}-steps5", "--steps 5 --sample-every 7 --seed 5")
    # several kernel calls and binning chunks: dense-octagon's 3-axis grid,
    # and the same orbit on a fine grid, with axes of 100 and 80 cells
    for bins, counts in (("bins3", "10 10 8"), ("bins100", "100 100 80")):
        runs("octagon:u", "{}-{}-" + bins, "--dt 0.11 --steps 20000 --seed 5",
             csv=False, density='--bins "%s"' % counts)
    runs("octagon_boundary:b octagon_so3:geo", "{}-{}-20k", "--steps 20000")  # widths 4, 5
    runs("t3a:sol3u t3a:dual", "{}-{}-20k", "--steps 20000", density=None)
    # 14285 samples in 2048-sample kernel calls, at an interval that does not
    # divide the call; t3a's geo flow shifts levels across those calls
    runs("octagon_so3:u modular:u t3a:sol3u t3a:geo", "{}-{}-100k-every7",
         "--steps 100000 --sample-every 7 --seed 5")
    # classify and plot, so every subcommand runs in a fresh interpreter
    return lines + [CLASSIFY, "plot --in octagon-u-5.csv --x c1 --y c3 --out octagon-u-5.svg"]


def run(line, cwd, code=0, cli=("-m", "horoflow.cli")):
    """Run a command line in a fresh interpreter; its stdout, if it exits `code`."""
    done = subprocess.run([sys.executable, *cli, *shlex.split(line)], cwd=cwd,
                          env=ENV, capture_output=True)
    if done.returncode != code:
        sys.exit("grid: %s exited %d, not %d\n%s" % (
            line, done.returncode, code, done.stderr.decode()))
    return done.stdout


def main(argv):
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit("usage: python tools/grid.py OUT_DIR")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    (out / "modular.gens").write_text("# the modular group\nT u 1\nS rot 1.5707963267948966\n")
    for line in commands():
        stdout = run(line, out)
        if line == CLASSIFY:
            (out / "modular-classify.txt").write_bytes(stdout)
    for line in DEV_NULL:  # a device is written in place, not renamed over
        run(line, out)
    if not stat.S_ISCHR(os.stat("/dev/null").st_mode):
        sys.exit("grid: /dev/null is no longer a character device")
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "run.conf").write_text("sample-every = 0\n")
        for line in REFUSED:
            if run(line, scratch, code=2) or os.listdir(scratch) != ["run.conf"]:
                sys.exit("grid: %s left output" % line)
    cpus = sorted(os.sched_getaffinity(0))
    checks = [re.sub(r"\([0-9.]+s of ", "(s of ", run(
        " ".join(["check all", *map(str, only)]), out, cli=("-c", CHECK)).decode())
        for only in (cpus, cpus[:1], cpus[:2])]
    for other in checks[1:]:
        if other != checks[0]:
            sys.exit("grid: check all differs across CPU counts:\n" + "".join(
                difflib.unified_diff(checks[0].splitlines(True), other.splitlines(True))))
    (out / "check-all.txt").write_text(checks[0])


if __name__ == "__main__":
    main(sys.argv[1:])
