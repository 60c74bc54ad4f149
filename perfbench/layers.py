"""Metric definitions and the arithmetic that turns spans into them.

A span is `[name, start, end, parent index, info]`, recorded by the traced
run around a call into one layer's public function (see tracer.py).  A
span's self time is its duration minus the time covered by its child spans.
A name that nests inside itself (models.reduce calls models.reduce) counts
only its outermost spans.

`END_TO_END` and `PER_LAYER` are the source of BENCHMARK.json's metric
lists; each per-layer row also says which end-to-end metric it should move
and on which workload, so a later change can state its prediction.
"""

from __future__ import annotations

MODELS = ("modular", "octagon", "octagon_boundary", "octagon_so3", "t3a")
KERNELS = ("surface_orbit", "modular_orbit", "t3a_orbit")
COMMANDS = ("flow", "density", "check")
CRITERIA = range(1, 11)

# (name, unit, better, bound): medians over the commands of one workload.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_KERNEL_WHERE = "sparse-all-models, then dense-octagon"
_DENSE_WHERE = "dense-octagon; not sparse-all-models"

# (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    *((("kernel.%s_s" % k, "s", "lower", "wall_s", _KERNEL_WHERE) for k in KERNELS)),
    *((("kernel.%s.ns_per_step" % m, "ns", "lower", "wall_s", _KERNEL_WHERE)
       for m in MODELS)),
    ("kernel.steps", "count", "lower", "none (deterministic counter)", "all"),
    ("flows.integrate_orbit_s", "s", "lower", "wall_s", _DENSE_WHERE),
    ("flows.materialise_s", "s", "lower", "wall_s, peak_rss_mb", _DENSE_WHERE),
    ("flows.samples", "count", "lower", "none (deterministic counter)", "all"),
    ("flows.alloc_bytes_per_sample", "B", "lower", "peak_rss_mb", _DENSE_WHERE),
    ("flows.keylemma_converge_s", "s", "lower", "wall_s", "check-all"),
    ("diagnostics.coverage_s", "s", "lower", "wall_s", "dense-octagon"),
    ("diagnostics.coverage_samples_per_s", "1/s", "higher", "wall_s",
     "dense-octagon"),
    ("diagnostics.minimal_set_residual_s", "s", "lower", "wall_s", "check-all"),
    ("orbitio.orbit_csv_text_s", "s", "lower", "wall_s", _DENSE_WHERE),
    ("orbitio.write_s", "s", "lower", "wall_s", _DENSE_WHERE),
    ("orbitio.csv_bytes", "count", "lower", "none (deterministic counter)", "all"),
    ("groups.word_ball_s", "s", "lower", "wall_s", "check-all (a little)"),
    ("groups.word_ball_elements", "count", "lower",
     "none (deterministic counter)", "check-all"),
    ("models.build_s", "s", "lower", "setup_s, wall_s", "all"),
    ("models.reduce_s", "s", "lower", "wall_s", "check-all (criterion 9)"),
    *((("acceptance.criterion_%02d_s" % n, "s", "lower", "wall_s", "check-all")
       for n in CRITERIA)),
    ("acceptance.budget_overruns", "count", "lower", "wall_s", "check-all"),
    ("cli.import_s", "s", "lower", "setup_s, wall_s", "all"),
    *((("cli.%s_s" % c, "s", "lower", "wall_s", "all") for c in COMMANDS)),
    ("trace.wall_s", "s", "lower", "none (traced in-process run)", "all"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced)", "all"),
    ("baseline.kernel_s", "s", "lower", "wall_s", "dense-octagon"),
    ("baseline.integrate_orbit_s", "s", "lower", "wall_s", "dense-octagon"),
    ("baseline.coverage_s", "s", "lower", "wall_s", "dense-octagon"),
    ("baseline.csv_text_s", "s", "lower", "wall_s", "dense-octagon"),
    ("baseline.kernel_1m_s", "s", "lower", "wall_s", "dense-octagon"),
)

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def benchmark_metrics():
    """BENCHMARK.json's `end_to_end` and `per_layer` lists."""
    return (
        [{"name": n, "unit": u, "better": b, "bound": bound}
         for n, u, b, bound in END_TO_END],
        [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    )


class SpanIndex:
    """Totals over a list of spans, by span name."""

    def __init__(self, spans):
        self.spans = spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(spans, covered)]

    def _nested_in_same_name(self, span):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == span[0]:
                return True
            parent = self.spans[parent][3]
        return False

    def named(self, name):
        return [s for s in self.spans if s[0] == name]

    def total(self, name):
        """Time covered by the outermost spans of this name."""
        return sum(s[2] - s[1] for s in self.named(name)
                   if not self._nested_in_same_name(s))

    def self_total(self, *names):
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] in names)

    def info_sum(self, name, key):
        return sum(s[4][key] for s in self.named(name) if s[4])

    def table(self):
        """(name, calls, total s, self s) rows in first-seen order."""
        rows = {}
        for span, own in zip(self.spans, self.self_time):
            row = rows.setdefault(span[0], [span[0], 0, 0.0, 0.0])
            row[1] += 1
            if not self._nested_in_same_name(span):
                row[2] += span[2] - span[1]
            row[3] += own
        return [tuple(r) for r in rows.values()]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced):
    """Every per-layer metric from the traced and untraced in-process runs."""
    idx = SpanIndex(traced["spans"])
    m = {}
    steps_by_model = {name: [0.0, 0] for name in MODELS}
    for k in KERNELS:
        name = "kernel." + k
        m["kernel.%s_s" % k] = idx.total(name)
        for span in idx.named(name):
            parent = idx.spans[span[3]] if span[3] >= 0 else None
            model = parent[4]["model"] if parent and parent[4] else None
            if model in steps_by_model and span[4]:
                steps_by_model[model][0] += span[2] - span[1]
                steps_by_model[model][1] += span[4]["steps"]
    for model, (seconds, steps) in steps_by_model.items():
        m["kernel.%s.ns_per_step" % model] = _ratio(seconds * 1e9, steps)
    m["kernel.steps"] = sum(idx.info_sum("kernel." + k, "steps") for k in KERNELS)

    m["flows.integrate_orbit_s"] = idx.total("flows.integrate_orbit")
    m["flows.materialise_s"] = idx.self_total("flows.integrate_orbit")
    m["flows.samples"] = idx.info_sum("flows.integrate_orbit", "samples")
    alloc = traced.get("alloc") or {}
    m["flows.alloc_bytes_per_sample"] = _ratio(alloc.get("bytes", 0),
                                               alloc.get("samples", 0))
    m["flows.keylemma_converge_s"] = idx.total("flows.keylemma_converge")

    m["diagnostics.coverage_s"] = idx.total("diagnostics.coverage")
    m["diagnostics.coverage_samples_per_s"] = _ratio(
        idx.info_sum("diagnostics.coverage", "samples"), m["diagnostics.coverage_s"]
    )
    m["diagnostics.minimal_set_residual_s"] = idx.total(
        "diagnostics.minimal_set_residual")

    m["orbitio.orbit_csv_text_s"] = idx.total("orbitio.orbit_csv_text")
    m["orbitio.write_s"] = idx.self_total("orbitio.write_orbit_csv",
                                          "orbitio.write_density_json")
    m["orbitio.csv_bytes"] = idx.info_sum("orbitio.orbit_csv_text", "bytes")

    m["groups.word_ball_s"] = idx.total("groups.word_ball")
    m["groups.word_ball_elements"] = idx.info_sum("groups.word_ball", "elements")

    m["models.build_s"] = idx.total("models.build")
    m["models.reduce_s"] = idx.total("models.reduce")

    criteria = [s for s in idx.named("acceptance.criterion") if s[4]]
    for n in CRITERIA:
        m["acceptance.criterion_%02d_s" % n] = sum(
            s[4]["elapsed"] for s in criteria if s[4]["number"] == n)
    m["acceptance.budget_overruns"] = sum(
        1 for s in criteria if not s[4]["in_budget"])

    m["cli.import_s"] = traced["import_s"]
    for c in COMMANDS:
        m["cli.%s_s" % c] = idx.total("cli." + c)
    m["trace.wall_s"] = sum(c["wall_s"] for c in traced["commands"])
    m["trace.overhead_s"] = m["trace.wall_s"] - sum(
        c["wall_s"] for c in untraced["commands"])

    base = SpanIndex(traced.get("baseline", {}).get("spans", []))
    m["baseline.kernel_s"] = base.total("kernel.surface_orbit")
    m["baseline.integrate_orbit_s"] = base.total("flows.integrate_orbit")
    m["baseline.coverage_s"] = base.total("diagnostics.coverage")
    m["baseline.csv_text_s"] = base.total("orbitio.orbit_csv_text")
    m["baseline.kernel_1m_s"] = traced.get("baseline", {}).get("kernel_1m_s", 0.0)
    return m
