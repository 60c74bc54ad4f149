"""Run a workload's CLI commands in one process, optionally traced.

    python3 perfbench/tracer.py SPEC.json OUT.json

SPEC holds {"commands": [argv, ...], "trace": bool, "baseline": bool}.  Each
argv goes through `horoflow.cli.main` with stdout captured.  With tracing on,
the public functions of every layer are wrapped where their callers bind
them, so each call leaves a span `[name, start, end, parent, info]` in
memory; nothing under src/ is edited.  After the traced commands come:

* an allocation pass: the recorded `integrate_orbit` calls again under
  tracemalloc, each cut to at most ALLOC_STEPS steps, all of them sampled;
* a backend pass: the recorded kernel calls under the pure and the native
  backend, timed and compared sample for sample, when the native backend is
  importable (it is never built from here);
* with "baseline", the criterion-8 workload (200k octagon u-steps, every
  step sampled) and one 1M-step surface kernel call, for the README figures.

OUT receives the backend, the import time, each command's exit code, stdout
and wall time, the spans and the results of the passes above.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import sys
import time
import traceback
import tracemalloc

ALLOC_STEPS = 10_000
BASELINE_STEPS = 200_000
KERNEL_1M_STEPS = 1_000_000
REDUCE_METHODS = ("reduce", "reduce_frame", "reduce_point", "reduce_state",
                  "reduce_primed")
BUILDERS = ("build_modular", "build_octagon", "build_product", "build_t3a",
            "build_model")


class Tracer:
    """In-memory spans plus the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.unpatched = []
        self.kernel_calls = []
        self.orbit_calls = []

    @contextlib.contextmanager
    def region(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            with self.region(name) as record:
                result = fn(*args, **kwargs)
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, name, owners, attr, info=None):
        """Wrap `attr` on every owner that binds it; one wrapper per function."""
        wrapped = {}
        for owner in owners:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original, info)
            self.replace(owner, attr, wrapped[id(original)])
        if not wrapped:
            self.unpatched.append(attr)

    def replace(self, owner, attr, value):
        """Set owner.attr until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer):
    """Wrap each layer's public functions where the callers bind them."""
    import horoflow.acceptance as acceptance
    import horoflow.cli as cli
    import horoflow.diagnostics as diagnostics
    import horoflow.flows as flows
    import horoflow.groups as groups
    import horoflow.models as models
    import horoflow.orbitio as orbitio
    from horoflow import _kernels
    from horoflow._kernels import _pure

    for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        signature = inspect.signature(getattr(_pure, kernel))

        def kernel_info(args, kwargs, result, kernel=kernel, signature=signature):
            tracer.kernel_calls.append((kernel, args, kwargs))
            return {"steps": signature.bind(*args, **kwargs).arguments["steps"]}

        tracer.patch("kernel." + kernel, (_kernels, flows), kernel, kernel_info)

    def orbit_info(args, kwargs, result):
        tracer.orbit_calls.append((args, kwargs))
        return {"model": args[0].name if args else kwargs["model"].name,
                "samples": len(result)}

    tracer.patch("flows.integrate_orbit", (cli, acceptance, flows),
                 "integrate_orbit", orbit_info)
    tracer.patch("flows.keylemma_converge", (acceptance, flows),
                 "keylemma_converge")
    tracer.patch("diagnostics.coverage", (cli, acceptance, diagnostics),
                 "coverage", lambda a, k, r: {"samples": r.samples})
    tracer.patch("diagnostics.minimal_set_residual", (acceptance, diagnostics),
                 "minimal_set_residual")
    text_info = lambda a, k, r: {"bytes": len(r.encode("utf-8"))}  # noqa: E731
    tracer.patch("orbitio.orbit_csv_text", (orbitio,), "orbit_csv_text", text_info)
    tracer.patch("orbitio.density_json_text", (orbitio,), "density_json_text",
                 text_info)
    tracer.patch("orbitio.write_orbit_csv", (cli, orbitio), "write_orbit_csv")
    tracer.patch("orbitio.write_density_json", (cli, orbitio),
                 "write_density_json")
    tracer.patch("groups.word_ball", (groups, diagnostics, acceptance),
                 "word_ball", lambda a, k, r: {"elements": len(r)})
    for builder in BUILDERS:
        tracer.patch("models.build", (cli, acceptance, models), builder)
    for cls in (models.OctagonModel, models.ModularModel, models.ProductModel,
                models.TorusBundleModel):
        for method in REDUCE_METHODS:
            if method in cls.__dict__:
                tracer.patch("models.reduce", (cls,), method)

    def criterion_info(args, kwargs, result):
        return {"number": result.number, "elapsed": result.elapsed,
                "passed": result.passed, "in_budget": result.in_budget}

    # run_suite looks the criteria up in this tuple at call time.
    criteria = getattr(acceptance, "ALL_CRITERIA", None)
    if criteria is None:
        tracer.unpatched.append("ALL_CRITERIA")
        return
    tracer.replace(acceptance, "ALL_CRITERIA", tuple(
        tracer.wrap("acceptance.criterion", fn, criterion_info) for fn in criteria
    ))


def run_commands(cli, commands, tracer):
    results = []
    for argv in commands:
        buffer = io.StringIO()
        region = (tracer.region("cli." + argv[0]) if tracer
                  else contextlib.nullcontext())
        start = time.perf_counter()
        with region, contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an uncaught error exits 1 under `python -m`
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        results.append({"argv": argv, "code": code, "stdout": buffer.getvalue(),
                        "wall_s": wall})
    return results


def alloc_pass(orbit_calls):
    """Bytes kept alive per sample by the segments integrate_orbit returns."""
    from horoflow.flows import integrate_orbit

    signature = inspect.signature(integrate_orbit)
    total_bytes = total_samples = 0
    tracemalloc.start()
    try:
        for args, kwargs in orbit_calls:
            bound = signature.bind(*args, **kwargs)
            bound.arguments["steps"] = min(bound.arguments["steps"], ALLOC_STEPS)
            bound.arguments["sample_every"] = 1
            before = tracemalloc.get_traced_memory()[0]
            segment = integrate_orbit(*bound.args, **bound.kwargs)
            total_bytes += tracemalloc.get_traced_memory()[0] - before
            total_samples += len(segment)
            del segment
    finally:
        tracemalloc.stop()
    return {"bytes": total_bytes, "samples": total_samples}


def backend_pass(kernel_calls):
    """Time each recorded kernel call under both backends and compare samples."""
    from horoflow._kernels import _pure

    try:
        from horoflow._kernels import _native
    except ImportError:
        return {"available": False}
    seconds = {"pure": {}, "native": {}}
    mismatches = []
    for kernel, args, kwargs in kernel_calls:
        outputs = {}
        for label, module in (("pure", _pure), ("native", _native)):
            start = time.perf_counter()
            outputs[label] = getattr(module, kernel)(*args, **kwargs)
            elapsed = time.perf_counter() - start
            seconds[label][kernel] = seconds[label].get(kernel, 0.0) + elapsed
        if outputs["pure"] != outputs["native"]:
            mismatches.append(kernel)
    return {"available": True, "compared": len(kernel_calls),
            "mismatches": mismatches, "seconds": seconds}


def baseline_pass(tracer):
    """The criterion-8 workload through the traced bindings, plus 1M kernel steps."""
    import horoflow.diagnostics as diagnostics
    import horoflow.flows as flows
    import horoflow.orbitio as orbitio
    from horoflow import _kernels
    from horoflow.diagnostics import BinningSpec
    from horoflow.flows import HorocycleU, surface_step_element
    from horoflow.models import build_octagon
    from horoflow.moebius import MoebiusElement

    workload_spans, tracer.spans = tracer.spans, []
    model = build_octagon()
    origin = model.point_from_frame(MoebiusElement.identity())
    segment = flows.integrate_orbit(model, origin, HorocycleU(0.11),
                                    BASELINE_STEPS)
    xbox, ybox = model.coverage_box()
    spec = BinningSpec((xbox, ybox, (0.0, 2.0 * math.pi)), (10, 10, 8))
    diagnostics.coverage(segment, spec)
    orbitio.orbit_csv_text(segment)
    del segment
    baseline_spans, tracer.spans = tracer.spans, workload_spans

    letters = [x for g in model.generators for x in g.entries]
    step = surface_step_element(HorocycleU(0.01)).entries
    kernel = _kernels.surface_orbit
    kernel = getattr(kernel, "__wrapped__", kernel)
    start = time.perf_counter()
    kernel((1.0, 0.0, 0.0, 1.0), step, letters, _kernels.TRANS_NONE, None,
           (0.0, 0.0, 0.0, 0.0), KERNEL_1M_STEPS, KERNEL_1M_STEPS // 1000)
    return {"spans": baseline_spans,
            "kernel_1m_s": time.perf_counter() - start}


def main(spec_path, out_path):
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    import horoflow.cli as cli
    import_s = time.perf_counter() - start
    from horoflow import _kernels

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        install(tracer)
    result = {"backend": _kernels.BACKEND, "import_s": import_s,
              "commands": run_commands(cli, spec["commands"], tracer)}
    if tracer:
        if spec.get("baseline"):
            result["baseline"] = baseline_pass(tracer)
        tracer.restore()
        result["spans"] = tracer.spans
        result["unpatched"] = tracer.unpatched
        result["alloc"] = alloc_pass(tracer.orbit_calls)
        result["backends"] = backend_pass(tracer.kernel_calls)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
