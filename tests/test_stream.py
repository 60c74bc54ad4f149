"""Streamed orbits: flows.orbit_chunks against one whole-run kernel call.

A stream calls the kernel for `rows * sample_every` steps at a time, rows a
multiple of the renormalisation interval, and carries the frame, the
transverse state and the torus-bundle state from call to call.  Its chunks
must join to the whole run's rows bit for bit, end in the same final
state, fail with the same message, and give the CLI the same bytes.
"""

import os
import re
import tracemalloc

import pytest

from horoflow import _kernels, cli, flows
from horoflow._kernels import _pure
from horoflow.diagnostics import (
    BinningSpec,
    FiberWatch,
    coverage,
    fiber_variation,
)
from horoflow.flows import (
    CHUNK_ROWS,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    Sol3U,
    integrate_orbit,
    orbit_chunks,
)
from horoflow.groups import BOUNDARY_CIRCLE, ROTATIONS3
from horoflow.models import build_modular, build_octagon, build_product, build_t3a
from horoflow.orbitio import density_json_text, orbit_csv_text

SEED = 5
ROWS = 64  # the smallest chunk, so that short runs cross several


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(flows, "CHUNK_ROWS", ROWS)


def test_chunk_rows_keep_the_renormalisation_in_phase():
    assert CHUNK_ROWS % _kernels.RENORM_EVERY == 0

# every kernel and transverse kind, and the dual iteration's Python loop
CASES = {
    "surface-none": lambda: (build_octagon(), HorocycleU(0.07)),
    "surface-boundary": lambda: (
        build_product(build_octagon(), BOUNDARY_CIRCLE), GeodesicD(0.05)),
    "surface-rotation": lambda: (
        build_product(build_octagon(), ROTATIONS3, seed=7), HorocycleU(0.07)),
    "modular-none": lambda: (build_modular(), HorocycleU(0.11)),
    "modular-boundary": lambda: (
        build_product(build_modular(), BOUNDARY_CIRCLE), HorocycleU(0.11)),
    "modular-rotation": lambda: (
        build_product(build_modular(), ROTATIONS3, seed=7), HorocycleU(0.11)),
    "t3a-sol3u": lambda: (build_t3a(((2, 1), (1, 1))), Sol3U(0.037)),
    "t3a-dual": lambda: (build_t3a(((2, 1), (1, 1))), DualBoundaryIterate()),
}


def record_final_states(monkeypatch):
    """Wrap the three kernels; the returned list gets each call's final
    state."""
    finals = []
    for name in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        def recorded(*args, real=getattr(_kernels, name)):
            result = real(*args)
            finals.append(result[1:])
            return result

        monkeypatch.setattr(_kernels, name, recorded)
    return finals


def reprs(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("every", [1, 7, 150])
@pytest.mark.parametrize("case", sorted(CASES))
def test_chunks_join_to_the_whole_run_bit_for_bit(
    monkeypatch, small_chunks, case, every
):
    model, flow = CASES[case]()
    finals = record_final_states(monkeypatch)
    per_call = ROWS * every
    # none, below one chunk, exactly two chunks, two chunks and a remainder
    for steps in (0, per_call - 1, 2 * per_call, 2 * per_call + per_call // 2 + 3):
        finals.clear()
        whole = integrate_orbit(model, None, flow, steps, seed=SEED,
                                sample_every=every)
        whole_final = finals[-1:]
        finals.clear()
        chunks = list(orbit_chunks(model, None, flow, steps, seed=SEED,
                                   sample_every=every))
        assert len(chunks) == max(1, -(-steps // per_call))
        assert repr(finals[-1:]) == repr(whole_final)
        assert reprs(v for c in chunks for v in c.values) == reprs(whole.values)
        assert reprs(t for c in chunks for t in c.times()) == reprs(whole.times())
        offset = 0
        for chunk in chunks:
            assert chunk.offset == offset
            assert len(chunk) <= ROWS + 1
            assert (chunk.steps, chunk.seed, chunk.coord_names) == (
                whole.steps, whole.seed, whole.coord_names)
            offset += len(chunk)
        assert offset == len(whole) == steps // every + 1
        # the first chunk's row 0 is the reduced start, as the whole run's
        assert repr(chunks[0].samples[0]) == repr(whole.samples[0])
        assert [repr(p.coords) for _, p in chunks[-1].samples] == [
            repr(p.coords) for _, p in whole.samples[chunks[-1].offset:]]


@pytest.mark.parametrize(
    "case", ["surface-rotation", "modular-none", "t3a-sol3u"])
def test_fiber_variation_of_a_stream_is_the_whole_runs(small_chunks, case):
    model, flow = CASES[case]()
    whole = integrate_orbit(model, None, flow, 1000, seed=SEED)
    for index in range(-1, whole.width):
        chunks = orbit_chunks(model, None, flow, 1000, seed=SEED)
        assert repr(fiber_variation(chunks, index)) == repr(
            fiber_variation(whole, index))


def test_fiber_watch_and_coverage_share_one_pass(small_chunks):
    # the geodesic moves the suspension time t, which the watch measures
    # while coverage bins the torus coordinates of the same chunks
    model, flow = build_t3a(((2, 1), (1, 1))), GeodesicD(0.01)
    spec = BinningSpec(((0.0, 1.0), (0.0, 1.0)), (8, 8))
    whole = integrate_orbit(model, None, flow, 1000, seed=SEED)
    watch = FiberWatch("t")
    report = coverage(watch.passing(
        orbit_chunks(model, None, flow, 1000, seed=SEED)), spec)
    assert report == coverage(whole, spec)
    assert watch.worst > 0.0
    assert repr(watch.worst) == repr(fiber_variation(whole, "t"))


def test_orbit_chunks_checks_its_arguments_before_the_kernel_runs(monkeypatch):
    real = _kernels.surface_orbit
    steps = []

    def recorded(*args):
        steps.append(args[6])
        return real(*args)

    monkeypatch.setattr(_kernels, "surface_orbit", recorded)
    octagon = build_octagon()
    with pytest.raises(ValueError, match="nonnegative"):
        orbit_chunks(octagon, None, HorocycleU(0.1), -1)
    with pytest.raises(ValueError, match="sample times must increase"):
        orbit_chunks(octagon, None, HorocycleU(1e308), 4, sample_every=2)
    chunks = orbit_chunks(octagon, None, HorocycleU(0.1), 10, seed=1)
    assert steps and set(steps) == {1}  # the start's reduction alone
    next(chunks)
    assert steps[-1] == 10


# -- the CLI's streamed outputs ----------------------------------------------


def whole_run_outputs(argv):
    """The CSV text and density JSON of the run argv describes, from one
    whole-run integrate_orbit call, as the CLI wrote them before it
    streamed."""
    args = cli.build_parser().parse_args(["flow"] + argv + ["--out", "x"])
    model = cli.build_model(args.model, args.A, args.seed)
    segment = integrate_orbit(model, None, cli.build_flow(args), args.steps,
                              seed=args.seed,
                              sample_every=args.sample_every or 1)
    if args.steps == 0:
        segment.values = segment.values[:0]
    spec = BinningSpec(model.default_ranges(segment.flow)[:2], (8, 8))
    return orbit_csv_text(segment), density_json_text(coverage(segment, spec))


@pytest.mark.parametrize("argv", [
    ["--model", "octagon_so3", "--flow", "u", "--steps", 2 * CHUNK_ROWS * 7 + 100,
     "--sample-every", 7],
    ["--model", "modular", "--flow", "u", "--steps", 2 * CHUNK_ROWS + 5],
    ["--model", "t3a", "--flow", "sol3u", "--steps", 3 * CHUNK_ROWS * 7,
     "--sample-every", 7],
    ["--model", "t3a", "--flow", "dual", "--steps", CHUNK_ROWS + 1],
    ["--model", "octagon_boundary", "--flow", "b", "--steps", CHUNK_ROWS * 150 - 1,
     "--sample-every", 150],
    ["--model", "octagon", "--flow", "geo", "--steps", 0],
])
def test_cli_streams_write_the_whole_run_bytes(tmp_path, argv):
    argv = [str(a) for a in argv] + ["--seed", str(SEED)]
    csv_text, json_text = whole_run_outputs(argv)
    csv_path, json_path = tmp_path / "orbit.csv", tmp_path / "cover.json"
    assert cli.main(["flow"] + argv + ["--out", str(csv_path)]) == 0
    assert cli.main(["density"] + argv + ["--bins", "8 8",
                                          "--out", str(json_path)]) == 0
    assert csv_path.read_bytes() == csv_text.encode()
    assert json_path.read_bytes() == json_text.encode()


# -- failures ----------------------------------------------------------------


def failure(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_t3a_drift_past_the_first_chunk_names_the_whole_run_step(
    monkeypatch, native_or_none
):
    # t' grows by 64 + 2**-12 a step, exactly: 64 levels come down each
    # step until the fraction reaches 1, and 65 levels at step 4095 are
    # refused.  From the origin x' and y' stay 0, so nothing overflows first.
    model = build_t3a(((2, 1), (1, 1)))
    start = model.reduce((0.0, 0.0, 0.0))
    flow = GeodesicD((64.0 + 2.0 ** -12) * model.log_lam)
    want = (ValueError, "suspension coordinate drifted 65 levels at step 4095")
    for impl in filter(None, (_pure, native_or_none)):
        monkeypatch.setattr(_kernels, "t3a_orbit", impl.t3a_orbit)
        assert failure(lambda: integrate_orbit(model, start, flow, 10_000)) == want
        for rows in (ROWS, CHUNK_ROWS):
            monkeypatch.setattr(flows, "CHUNK_ROWS", rows)
            assert failure(lambda: list(orbit_chunks(
                model, start, flow, 10_000))) == want


@pytest.mark.parametrize("command", ["flow", "density"])
def test_a_kernel_failure_after_the_first_chunk_leaves_no_file(
    tmp_path, capsys, monkeypatch, command
):
    real = _kernels.surface_orbit
    calls = []

    def second_call_fails(*args):
        if args[6] == 1:  # the start's reduction
            return real(*args)
        calls.append(args[-1])
        if len(calls) == 2:
            raise ValueError(
                "reduction did not settle within 10000 descents at step %d"
                % args[-1])
        return real(*args)

    monkeypatch.setattr(_kernels, "surface_orbit", second_call_fails)
    argv = [command, "--model", "octagon", "--flow", "u",
            "--steps", str(3 * CHUNK_ROWS)]
    if command == "density":
        argv += ["--bins", "8 8"]
    target = tmp_path / "target"
    target.mkdir()
    out = target / "out"
    for before in (None, "kept\n"):
        calls.clear()
        if before is not None:
            out.write_text(before)
        else:
            out.unlink(missing_ok=True)
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "run failed: reduction did not settle within 10000 descents "
            "at step %d\n" % CHUNK_ROWS)
        assert calls == [0, CHUNK_ROWS]
        # no temp file is left, and a file that was there is untouched
        assert os.listdir(target) == ([] if before is None else ["out"])
        if before is not None:
            assert out.read_text() == before


# -- memory ------------------------------------------------------------------


def test_streamed_density_holds_no_whole_orbit(tmp_path):
    # 200k rows of 3 doubles are 4.6 MiB, and a whole-run buffer peaked at
    # 4.8 MiB here; the stream holds a few chunks of 2049 rows at a time.
    # The torus bundle's kernel is the cheapest to trace on the pure backend.
    argv = ["density", "--model", "t3a", "--flow", "sol3u", "--seed", "1",
            "--bins", "10 10 8", "--out", str(tmp_path / "d.json")]
    assert cli.main(argv + ["--steps", "5000"]) == 0  # imports, first calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(argv + ["--steps", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert re.search(r'"total": 800,', (tmp_path / "d.json").read_text())


def test_streamed_flow_renders_a_few_hundred_rows_at_a_time(tmp_path):
    # 100k rows of 3 doubles are 2.3 MiB of coordinates and 9.5 MB of text.
    # The CSV is rendered CSV_CHUNK_ROWS = 512 rows at a time, whose texts,
    # argument list and tuple peaked at 0.26 MB here against 0.73 MB for
    # pieces of 2048 rows; the kernel's chunk of 2049 rows is the same
    # either way.
    argv = ["flow", "--model", "t3a", "--flow", "sol3u", "--seed", "1",
            "--out", str(tmp_path / "orbit.csv")]
    assert cli.main(argv + ["--steps", "5000"]) == 0  # imports, first calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(argv + ["--steps", "100000"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 400_000
    assert (tmp_path / "orbit.csv").read_text().count("\n") == 8 + 100_001


def test_criterion_3_streams_its_orbit():
    # 100k rows of 3 doubles are 2.3 MiB, and the whole-run criterion
    # peaked at 3.2 MB here; streamed, the 50x50 cells it visits weigh most.
    from horoflow.acceptance import toroidal_fiber_density

    toroidal_fiber_density()  # imports, first calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = toroidal_fiber_density()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert result.details == {"t_variation": 0.0, "fraction": 1.0}


def test_criterion_6_folds_a_streamed_ball():
    # The radius-4 octagon ball has 3193 elements, 2736 of them in the last
    # layer.  Held as a list it peaked at 1.8 MiB here, streamed with tuple
    # keys at 0.75 MiB; with packed keys it peaks at 0.41 MiB.
    from horoflow.acceptance import cocompact_trace_gap

    cocompact_trace_gap()  # imports, first calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = cocompact_trace_gap()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 600_000
    assert repr(result.details) == (
        "{'ball_size': 3193, 'min_trace_gap': 2.8284271247461703, "
        "'relator_is_identity': True}"
    )
