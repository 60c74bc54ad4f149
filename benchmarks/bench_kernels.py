"""Time the compiled orbit kernels against the pure-Python fallback.

Runs the same workload through horoflow._kernels._native and ._pure with
identical inputs, reports wall time and speedup, and exits non-zero unless
the two backends return bit-identical results.  The surface kernel runs
once per transverse kind: none (octagon), the boundary circle
(octagon_boundary) and rotations (octagon_so3).  Usage:

    python3 benchmarks/bench_kernels.py [--steps N] [--repeats K]
"""

import argparse
import time

from horoflow._kernels import TRANS_BOUNDARY, TRANS_NONE, TRANS_ROTATION, _pure
from horoflow.flows import HorocycleU, Sol3U, sol_step_increment, surface_step_element
from horoflow.models import build_model, build_octagon, build_t3a

try:
    from horoflow._kernels import _native
except ImportError:
    _native = None

IDENTITY = (1.0, 0.0, 0.0, 1.0)
NO_TRANS = (0.0, 0.0, 0.0, 0.0)


def make_workloads(steps, sample_every):
    u_step = surface_step_element(HorocycleU(0.01)).entries
    letters = build_octagon().letters
    quats = build_model("octagon_so3", seed=7).trans_quats
    t3a = build_t3a(((2, 1), (1, 1)))
    eigen = (t3a.a_prime, t3a.b_prime, t3a.c_prime, t3a.d_prime)
    sol = sol_step_increment(Sol3U(0.037), t3a.log_lam)
    return [
        ("surface_orbit", "surface_orbit",
         (IDENTITY, u_step, letters, TRANS_NONE, None, NO_TRANS,
          steps, sample_every)),
        ("surface/bound", "surface_orbit",
         (IDENTITY, u_step, letters, TRANS_BOUNDARY, None,
          (0.3, 0.0, 0.0, 0.0), steps, sample_every)),
        ("surface/so3", "surface_orbit",
         (IDENTITY, u_step, letters, TRANS_ROTATION, quats,
          (1.0, 0.0, 0.0, 0.0), steps, sample_every)),
        ("modular_orbit", "modular_orbit",
         (IDENTITY, u_step, TRANS_NONE, None, NO_TRANS, steps, sample_every)),
        ("t3a_orbit", "t3a_orbit",
         ((0.2, 0.3, 0.1), t3a.lam, eigen, sol, steps, sample_every)),
    ]


def best_time(fn, args, repeats):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sample_every = max(1, args.steps // 1000)

    if _native is None:
        print("compiled backend not importable; timing the pure backend only")

    print("%-15s %10s %12s %12s %9s %s"
          % ("kernel", "steps", "pure (s)", "native (s)", "speedup", "match"))
    for label, attr, call_args in make_workloads(args.steps, sample_every):
        pure_t, pure_out = best_time(getattr(_pure, attr), call_args, args.repeats)
        if _native is None:
            print("%-15s %10d %12.3f %12s %9s %s"
                  % (label, args.steps, pure_t, "-", "-", "-"))
            continue
        native_t, native_out = best_time(
            getattr(_native, attr), call_args, args.repeats
        )
        # repr tells -0.0 from 0.0, which == does not
        match = "yes" if repr(pure_out) == repr(native_out) else "NO"
        print("%-15s %10d %12.3f %12.3f %8.1fx %s"
              % (label, args.steps, pure_t, native_t, pure_t / native_t, match))
        if match == "NO":
            raise SystemExit("backend outputs differ for %s" % label)


if __name__ == "__main__":
    main()
