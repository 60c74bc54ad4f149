"""Orbit kernel tests: backend parity, model agreement, guard behavior."""

import ast
import inspect
import math
import os
import random
import re
import shlex
import subprocess
import sys
import sysconfig
from array import array
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow import _kernels
from horoflow._kernels import _pure
from horoflow.groups import BOUNDARY_CIRCLE, ROTATIONS3
from horoflow.models import build_modular, build_octagon, build_product, build_t3a
from horoflow.models.product import random_unit_quaternion
from horoflow.moebius import (
    BoundaryPoint,
    HalfPlanePoint,
    MoebiusElement,
    TangentFrame,
    hyp_dist,
    tangent_to_frame,
)

IDENTITY = (1.0, 0.0, 0.0, 1.0)
NO_TRANS = (0.0, 0.0, 0.0, 0.0)


def rows_of(values, width):
    """The sample rows of a kernel's flat array, after the zero row 0 that
    the kernel leaves for the caller's start."""
    return list(zip(*[iter(values[width:])] * width))


def octagon_letters():
    flat = []
    for g in build_octagon().generators:
        flat.extend(g.entries)
    return flat


def letter_transverse(model, k):
    """The holonomy image of a product's letter k, built from the images of
    the independent generators: the reference for the packed trans_quats."""
    j, inverted = model.base.letter_generator(k)
    image = model.holonomy[j]
    return model.space.inverse(image) if inverted else image


def rotation_quats(model):
    flat = []
    for k in range(model.base.letter_count()):
        flat.extend(letter_transverse(model, k))
    return flat


def reference_descent(model, f):
    """Independent oracle for the octagon kernel's reduction: the greedy
    descent on the base point's distance to i, applying the first side
    pairing that shortens it by more than 1e-12.  Returns the frame and the
    letters applied, in order."""
    steps = []
    z = f.apply(1.0j)
    dist = hyp_dist(z, 1.0j)
    for _ in range(1000):
        for k, g in enumerate(model.generators):
            cand = g.apply(z)
            cand_dist = hyp_dist(cand, 1.0j)
            if cand_dist < dist - 1e-12:
                f, z, dist = g.mul(f), cand, cand_dist
                steps.append(k)
                break
        else:
            return f, steps
    raise AssertionError("reference descent did not settle")


def reference_fold(model, f, y):
    """Reduce a product pair by the reference descent, moving the transverse
    by each applied letter's holonomy image through the group's own action."""
    f, steps = reference_descent(model.base, f)
    for k in steps:
        y = model.space.act(letter_transverse(model, k), y)
    return f, y


def assert_quats_close(p, q):
    # entrywise up to sign: point_dist's arccos resolves only ~1e-8 here
    assert min(max(abs(a - s * b) for a, b in zip(p, q)) for s in (1, -1)) < 1e-12


def modular_quats(model):
    flat = []
    flat.extend(letter_transverse(model, 0))  # the shift
    flat.extend(letter_transverse(model, 2))  # the inversion
    return flat


# -- backend selection -------------------------------------------------------


def test_backend_constant():
    assert _kernels.BACKEND in ("pure", "native")
    assert _kernels.TRANS_NONE == 0
    assert _kernels.TRANS_BOUNDARY == 1
    assert _kernels.TRANS_ROTATION == 2


def test_env_override_forces_pure():
    env = dict(os.environ, HOROFLOW_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from horoflow import _kernels; print(_kernels.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_pure_backend_is_imported_only_as_the_fallback():
    code = ("import sys; from horoflow import _kernels; "
            "print(_kernels.BACKEND, 'horoflow._kernels._pure' in sys.modules)")
    for pure in ("", "1"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, HOROFLOW_PURE=pure), check=True,
        ).stdout.split()
        assert out in (["native", "False"], ["pure", "True"])
        if pure:
            assert out[0] == "pure"


def test_every_bound_entry_point_exists_in_both_backends(native):
    # each `name = _impl.name` of _kernels/__init__.py, so that a kernel
    # added to one backend only fails here rather than at a user's import
    tree = ast.parse(Path(_kernels.__file__).read_text())
    bound = [node.value.attr for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Attribute)
             and isinstance(node.value.value, ast.Name)
             and node.value.value.id == "_impl"]
    assert {"surface_orbit", "boundary_residual", "boundary_track"} <= set(bound)
    assert [name for name in bound if not hasattr(_pure, name)] == []
    assert [name for name in bound if not hasattr(native, name)] == []


def test_native_keyword_names_follow_the_pure_signatures():
    # perfbench's tracer binds a native kernel call through the pure
    # kernel's signature to count its steps, so each orbit kernel's
    # `static char *names[]` in _native.c lists pure's parameters in order
    source = (Path(_kernels.__file__).parent / "_native.c").read_text()
    for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        match = re.search(r"static PyObject \*%s\(.*?static char \*names\[\] "
                          r"= \{(.*?)\};" % kernel, source, re.S)
        assert match, kernel
        parameters = inspect.signature(getattr(_pure, kernel)).parameters
        assert re.findall(r'"(\w+)"', match.group(1)) == list(parameters)


# -- the C kernel compiled on first import -----------------------------------
# Each test runs fresh interpreters on a copy of the package that holds no
# built extension, so their first import compiles _native.c into the copy's
# __pycache__ (horoflow._kernels._build).  They need the C compiler of the
# parity tests below.

REPORT = [sys.executable, "-m", "horoflow._kernels"]


def kernel_report(root, path=None, pure=None, wait=True):
    """What `python -m horoflow._kernels` prints for the package under
    `root`, with PATH replaced by `path` if given; or, with wait=False, the
    running child."""
    env = dict(os.environ, PYTHONPATH=str(root))
    env.pop("HOROFLOW_PURE", None)
    if path is not None:
        env["PATH"] = path
    if pure is not None:
        env["HOROFLOW_PURE"] = pure
    child = subprocess.Popen(REPORT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, cwd=root,
                             env=env)
    if not wait:
        return child
    out, err = child.communicate()
    assert child.returncode == 0 and err == "", err
    return out


def cached_kernels(root):
    cache = root / "horoflow" / "_kernels" / "__pycache__"
    return sorted(cache.glob("_native.*" + EXTENSION_SUFFIXES[0]))


def compiler_name():
    """The compiler the package's build runs, as PATH finds it."""
    return shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")[0]


def test_the_first_import_compiles_the_kernel_into_the_cache(
    native, unbuilt_checkout
):
    assert cached_kernels(unbuilt_checkout) == []
    report = kernel_report(unbuilt_checkout)
    [cached] = cached_kernels(unbuilt_checkout)
    assert report == "native: %s\n" % cached


def test_a_cached_kernel_loads_without_a_compiler(native, unbuilt_checkout):
    kernel_report(unbuilt_checkout)
    [cached] = cached_kernels(unbuilt_checkout)
    assert kernel_report(unbuilt_checkout, path="") == "native: %s\n" % cached


def test_an_edited_source_compiles_again(native, unbuilt_checkout):
    kernel_report(unbuilt_checkout)
    [before] = cached_kernels(unbuilt_checkout)
    source = unbuilt_checkout / "horoflow" / "_kernels" / "_native.c"
    source.write_text(source.read_text() + "/* edited */\n")
    report = kernel_report(unbuilt_checkout)
    [after] = set(cached_kernels(unbuilt_checkout)) - {before}
    assert report == "native: %s\n" % after


def test_a_built_extension_beside_the_source_is_never_loaded(
    native, unbuilt_checkout
):
    # An importable _native with every kernel, as an extension built from
    # an older source and left beside it would be: the import compiles the
    # current source into the cache and loads that instead.
    stub = unbuilt_checkout / "horoflow" / "_kernels" / "_native.py"
    stub.write_text("".join("def %s(): pass\n" % name for name in (
        "surface_orbit", "modular_orbit", "t3a_orbit", "csv_rows", "bin_cells")))
    report = kernel_report(unbuilt_checkout)
    [cached] = cached_kernels(unbuilt_checkout)
    assert report == "native: %s\n" % cached


def failing_compiler_path(root):
    """A PATH whose first entry holds a compiler that fails, logging each
    call to root/calls.log."""
    fake = root / "bin"
    fake.mkdir()
    script = fake / os.path.basename(compiler_name())
    script.write_text("#!/bin/sh\necho called >> '%s'\n"
                      "echo 'first line' >&2\necho 'no such thing' >&2\n"
                      "exit 1\n" % (root / "calls.log"))
    script.chmod(0o755)
    return os.pathsep.join([str(fake), os.environ.get("PATH", "")])


def test_a_new_build_removes_the_older_builds(native, unbuilt_checkout):
    # A build, then an edit whose compile fails and is recorded, then an
    # edit that builds: only the last build is left, and no record.
    source = unbuilt_checkout / "horoflow" / "_kernels" / "_native.c"
    cache = unbuilt_checkout / "horoflow" / "_kernels" / "__pycache__"
    kernel_report(unbuilt_checkout)
    source.write_text(source.read_text() + "/* fails */\n")
    failing = failing_compiler_path(unbuilt_checkout)
    assert kernel_report(unbuilt_checkout, path=failing).startswith("pure: ")
    assert len(list(cache.glob("_native.*.failed"))) == 1
    source.write_text(source.read_text() + "/* builds */\n")
    report = kernel_report(unbuilt_checkout)
    [cached] = cached_kernels(unbuilt_checkout)
    assert report == "native: %s\n" % cached
    assert list(cache.glob("_native.*")) == [cached]


def test_a_failed_compile_is_recorded_and_not_tried_again(
    native, unbuilt_checkout
):
    # A compiler that fails, first on PATH: the backend is pure, and the
    # second import reads the first's record instead of compiling again.
    calls = unbuilt_checkout / "calls.log"
    path = failing_compiler_path(unbuilt_checkout)
    first = kernel_report(unbuilt_checkout, path=path)
    assert first == "pure: compile failed: no such thing\n"
    second = kernel_report(unbuilt_checkout, path=path)
    assert second.startswith("pure: compile failed: no such thing (recorded in ")
    assert calls.read_text() == "called\n"
    assert cached_kernels(unbuilt_checkout) == []


def test_a_missing_compiler_is_not_recorded(native, unbuilt_checkout):
    # An import with PATH empty compiles nothing, so it records nothing:
    # the next import that finds a compiler builds the kernel.
    assert kernel_report(unbuilt_checkout, path="") == "pure: no compiler on PATH\n"
    report = kernel_report(unbuilt_checkout)
    [cached] = cached_kernels(unbuilt_checkout)
    assert report == "native: %s\n" % cached
    assert not any(cached.parent.glob("*.failed"))
    assert not any(cached.parent.glob("*.tmp"))


def test_an_unwritable_cache_leaves_the_pure_backend(native, unbuilt_checkout):
    # A regular file where the cache directory would be; a read-only
    # directory would not do, since root writes there anyway.
    (unbuilt_checkout / "horoflow" / "_kernels" / "__pycache__").write_text("")
    report = kernel_report(unbuilt_checkout)
    assert report.startswith("pure: cache directory not writable: ")


def test_two_first_imports_side_by_side_both_load_the_kernel(
    native, unbuilt_checkout
):
    children = [kernel_report(unbuilt_checkout, wait=False) for _ in range(2)]
    reports = [child.communicate()[0] for child in children]
    [cached] = cached_kernels(unbuilt_checkout)
    assert reports == ["native: %s\n" % cached] * 2
    assert [child.returncode for child in children] == [0, 0]


def test_the_report_names_why_the_kernel_is_pure(unbuilt_checkout):
    assert kernel_report(unbuilt_checkout, pure="1") == "pure: HOROFLOW_PURE=1\n"
    assert (kernel_report(unbuilt_checkout, path="")
            == "pure: no compiler on PATH\n")
    (unbuilt_checkout / "horoflow" / "_kernels" / "_native.c").unlink()
    assert kernel_report(unbuilt_checkout) == "pure: no _native.c\n"


# -- pure vs compiled parity -------------------------------------------------
# The two backends share expression structure, so results must agree exactly.
# They are compared by repr, which tells -0.0 from 0.0 where `==` does not.
# The `native` fixture compiles _native.c; it skips only without a compiler.


def assert_same_bits(native, kernel, args):
    assert repr(getattr(native, kernel)(*args)) == repr(
        getattr(_pure, kernel)(*args)
    )


def assert_surface_parity(native, kind, padding=0, repeat=1):
    """Compare the backends on an octagon orbit whose letters are `padding`
    identity letters, which never shorten the descent, then the octagon's
    letters `repeat` times."""
    letters = list(IDENTITY) * padding + octagon_letters() * repeat
    quats = None
    tstate = NO_TRANS
    if kind == 1:
        tstate = (0.3, 0.0, 0.0, 0.0)
    elif kind == 2:
        model = build_product(build_octagon(), ROTATIONS3, seed=7)
        quats = [1.0, 0.0, 0.0, 0.0] * padding + rotation_quats(model) * repeat
        tstate = (1.0, 0.0, 0.0, 0.0)
    step = MoebiusElement.u(0.07).entries
    args = (IDENTITY, step, letters, kind, quats, tstate, 4000, 7)
    assert_same_bits(native, "surface_orbit", args)


@pytest.mark.parametrize("kind", [0, 1, 2])
def test_surface_parity_exact(native, kind):
    assert_surface_parity(native, kind)


def test_surface_parity_any_letter_count(native):
    # 24 letters either way: the octagon's 8 three times over, and 16
    # identities before the 8, which a kernel reading only 16 would miss
    assert_surface_parity(native, 2, repeat=3)
    assert_surface_parity(native, 2, padding=16)


@pytest.mark.parametrize("kind", [0, 1, 2])
def test_modular_parity_exact(native, kind):
    quats = None
    tstate = NO_TRANS
    if kind == 1:
        tstate = (-0.4, 0.0, 0.0, 0.0)
    elif kind == 2:
        rng = random.Random(5)
        quats = []
        for _ in range(2):
            q = [rng.gauss(0.0, 1.0) for _ in range(4)]
            n = math.sqrt(sum(v * v for v in q))
            quats.extend(v / n for v in q)
        tstate = (1.0, 0.0, 0.0, 0.0)
    step = MoebiusElement.u(0.11).entries
    args = (IDENTITY, step, kind, quats, tstate, 4000, 3)
    assert_same_bits(native, "modular_orbit", args)


@pytest.mark.parametrize("sol_step", [(0.037, 0.0, 0.0), (0.0, 0.0, 0.01)])
def test_t3a_parity_exact(native, sol_step):
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    x0, y0 = m.primed_from_torus(0.2, 0.7)
    args = ((x0, y0, 0.35), m.lam, eigen, sol_step, 50000, 11)
    assert_same_bits(native, "t3a_orbit", args)


def test_t3a_parity_keeps_zero_signs(native):
    # From the origin x stays -0.0, and x - floor(x) must keep that sign:
    # math.floor returns the int 0, so the pure backend writes -0.0.
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    args = ((0.0, 0.0, 0.0), m.lam, eigen, (0.0, 0.0, 0.01), 50, 1)
    assert repr(_pure.t3a_orbit(*args)[0][3]) == "-0.0"
    assert_same_bits(native, "t3a_orbit", args)


def test_surface_orbit_deterministic():
    letters = octagon_letters()
    step = MoebiusElement.u(0.07).entries
    args = (IDENTITY, step, letters, 0, None, NO_TRANS, 500, 1)
    first = _kernels.surface_orbit(*args)
    second = _kernels.surface_orbit(*args)
    assert first == second


def test_zero_steps_returns_inputs():
    letters = octagon_letters()
    step = MoebiusElement.u(0.07).entries
    samples, frame, trans = _kernels.surface_orbit(
        IDENTITY, step, letters, 0, None, NO_TRANS, 0, 1
    )
    assert type(samples) is array and samples.typecode == "d"
    assert repr(samples) == "array('d', [0.0, 0.0, 0.0])"
    assert frame == IDENTITY
    assert trans == NO_TRANS


@pytest.mark.parametrize("steps, every", [(0, 1), (0, 7), (0, 0), (-4, 3),
                                          (1, 1), (1, 3), (6, 7), (7, 7),
                                          (100, 7), (99, 1), (10, -3), (5, 7)])
def test_kernels_return_exact_flat_arrays(native, steps, every):
    """Each kernel returns one array('d') of (steps // |sample_every| + 1)
    rows of its width, one row when steps <= 0, sized exactly, on both
    backends.  Row 0 is +0.0, left for the caller's start; a negative
    interval samples the steps i with (i + 1) % sample_every == 0, as a
    positive one does."""
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    so3 = build_product(build_octagon(), ROTATIONS3, seed=7)
    quats = modular_quats(build_product(build_modular(), ROTATIONS3, seed=7))
    step = MoebiusElement.u(0.07).entries
    unit = (1.0, 0.0, 0.0, 0.0)
    calls = [
        (3, lambda k: k.surface_orbit(IDENTITY, step, octagon_letters(), 0,
                                      None, NO_TRANS, steps, every)),
        (4, lambda k: k.surface_orbit(IDENTITY, step, octagon_letters(), 1,
                                      None, (0.3, 0.0, 0.0, 0.0), steps, every)),
        (5, lambda k: k.surface_orbit(IDENTITY, step, octagon_letters(), 2,
                                      rotation_quats(so3), unit, steps, every)),
        (3, lambda k: k.modular_orbit(IDENTITY, step, 0, None, NO_TRANS,
                                      steps, every)),
        (4, lambda k: k.modular_orbit(IDENTITY, step, 1, None,
                                      (0.3, 0.0, 0.0, 0.0), steps, every)),
        (5, lambda k: k.modular_orbit(IDENTITY, step, 2, quats, unit,
                                      steps, every)),
        (3, lambda k: k.t3a_orbit((0.1, 0.2, 0.3), m.lam, eigen,
                                  (0.037, 0.0, 0.01), steps, every)),
    ]
    empty = sys.getsizeof(array("d"))
    rows = (steps // abs(every) if steps > 0 else 0) + 1
    for width, call in calls:
        outputs = []
        for impl in (_pure, native):
            values = call(impl)[0]
            assert type(values) is array and values.typecode == "d"
            assert len(values) == rows * width
            # no room allocated past the last row
            assert sys.getsizeof(values) == empty + 8 * len(values)
            # repr tells the +0.0 the kernel leaves from a -0.0
            assert [repr(v) for v in values[:width]] == ["0.0"] * width
            outputs.append(repr(values))
        assert outputs[0] == outputs[1]


# -- agreement with the model-level reduction -------------------------------


def test_models_pack_the_kernel_arguments():
    so3 = build_product(build_octagon(), ROTATIONS3, seed=7)
    assert so3.trans_kind == _kernels.TRANS_ROTATION
    assert list(so3.base.letters) == octagon_letters()
    assert list(so3.trans_quats) == rotation_quats(so3)
    modular = build_product(build_modular(), ROTATIONS3, seed=7)
    assert list(modular.trans_quats) == modular_quats(modular)


def test_surface_kernel_matches_model_reduction():
    oc = build_octagon()
    letters = octagon_letters()
    step_el = MoebiusElement.u(0.07)
    values, kframe, _ = _kernels.surface_orbit(
        IDENTITY, step_el.entries, letters, 0, None, NO_TRANS, 300, 50
    )
    samples = rows_of(values, 3)
    f = MoebiusElement.identity()
    model_points = []
    for i in range(300):
        f = f.mul(step_el)
        f, _ = reference_descent(oc, f)
        if (i + 1) % 50 == 0:
            model_points.append(oc.point_from_frame(f))
    assert len(samples) == len(model_points)
    for coords, expected in zip(samples, model_points):
        got = oc.point_from_frame(
            tangent_to_frame(
                TangentFrame(HalfPlanePoint(coords[0], coords[1]), coords[2])
            )
        )
        assert oc.points_close(got, expected, 1e-8)
    final = oc.point_from_frame(MoebiusElement(*kframe))
    assert oc.points_close(final, oc.point_from_frame(f), 1e-8)


def test_modular_kernel_matches_model_reduction():
    mod = build_modular()
    step_el = MoebiusElement.u(0.11)
    _, kframe, _ = _kernels.modular_orbit(
        IDENTITY, step_el.entries, 0, None, NO_TRANS, 300, 300
    )
    f = MoebiusElement.identity()
    for _ in range(300):
        f = f.mul(step_el)
        f = mod.reduce_frame(f)
    final = mod.point_from_frame(MoebiusElement(*kframe))
    assert mod.points_close(final, mod.point_from_frame(f), 1e-8)


def test_boundary_transverse_tracks_frame_image():
    # A step fixing the boundary point at infinity keeps the graph relation
    # theta == frame(inf) through every left reduction.
    letters = octagon_letters()
    start = (math.pi, 0.0, 0.0, 0.0)
    for step_el in (MoebiusElement.u(0.07), MoebiusElement.geo(math.exp(0.01))):
        _, kframe, ktrans = _kernels.surface_orbit(
            IDENTITY, step_el.entries, letters, 1, None, start, 400, 400
        )
        f = MoebiusElement(*kframe)
        assert BoundaryPoint(ktrans[0]).chordal(f.boundary_image_of_infinity()) < 1e-9
    for step_el in (MoebiusElement.u(0.11), MoebiusElement.geo(math.exp(0.005))):
        _, kframe, ktrans = _kernels.modular_orbit(
            IDENTITY, step_el.entries, 1, None, start, 400, 400
        )
        f = MoebiusElement(*kframe)
        assert BoundaryPoint(ktrans[0]).chordal(f.boundary_image_of_infinity()) < 1e-9


def test_rotation_transverse_matches_model_fold():
    model = build_product(build_octagon(), ROTATIONS3, seed=7)
    letters = octagon_letters()
    quats = rotation_quats(model)
    # not the identity, so a letter folded on the wrong side shows
    start_q = random_unit_quaternion(random.Random(3))
    step_el = MoebiusElement.u(0.07)
    _, kframe, ktrans = _kernels.surface_orbit(
        IDENTITY, step_el.entries, letters, 2, quats, start_q, 200, 200
    )
    f = MoebiusElement.identity()
    y = start_q
    for _ in range(200):
        f = f.mul(step_el)
        f, y = reference_fold(model, f, y)
    assert f.close_to(MoebiusElement(*kframe), 1e-9)
    assert_quats_close(ktrans, y)


def test_model_reductions_match_reference_descent():
    # Unreduced frames, a few side pairings deep, through the models'
    # one-step kernel reductions and through the reference descent.
    oc = build_octagon()
    boundary = build_product(oc, BOUNDARY_CIRCLE)
    so3 = build_product(oc, ROTATIONS3, seed=7)
    rng = random.Random(17)
    for _ in range(200):
        f = MoebiusElement.u(rng.uniform(-2.0, 2.0)).mul(
            MoebiusElement.rot(rng.uniform(-math.pi, math.pi))
        )
        for _ in range(rng.randrange(4)):
            f = oc.generators[rng.randrange(8)].mul(f)
        expected, steps = reference_descent(oc, f)
        assert oc.reduce_frame(f).close_to(expected, 1e-9)
        theta = BoundaryPoint(rng.uniform(-math.pi, math.pi))
        got, moved = boundary.reduce_state(f, theta)
        want_f, want_y = reference_fold(boundary, f, theta)
        assert got.close_to(want_f, 1e-9)
        assert moved.chordal(want_y) < 1e-9
        q = random_unit_quaternion(rng)
        got, moved = so3.reduce_state(f, q)
        want_f, want_y = reference_fold(so3, f, q)
        assert got.close_to(want_f, 1e-9)
        assert_quats_close(moved, want_y)


def test_final_determinant_stays_normalized():
    letters = octagon_letters()
    step = MoebiusElement.u(0.07).entries
    _, kframe, _ = _kernels.surface_orbit(
        IDENTITY, step, letters, 0, None, NO_TRANS, 50000, 50000
    )
    a, b, c, d = kframe
    assert abs(a * d - b * c - 1.0) < 1e-9


# -- guard behavior ----------------------------------------------------------


def failure(call, impl):
    """(exception type, message) of call(impl); fails the test if it returns."""
    with pytest.raises(Exception) as info:
        call(impl)
    return type(info.value), str(info.value)


def test_t3a_level_guard_reports_step(native_or_none):
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    for impl in filter(None, (_pure, native_or_none)):
        got = failure(
            lambda k: k.t3a_orbit(
                (0.0, 0.0, 0.0), m.lam, eigen, (0.0, 0.0, 200.0), 5, 1
            ),
            impl,
        )
        assert got == (
            ValueError, "suspension coordinate drifted 200 levels at step 0"
        )


def test_determinant_collapse_raises(native_or_none):
    letters = octagon_letters()
    cases = [
        ((1.0, 0.0, 0.0, -1.0), "frame determinant collapsed to -1"),
        ((1e-300, 0.0, 0.0, -1e-300), "frame determinant collapsed to -0"),
        ((0.0, 0.0, 0.0, 0.0), "frame determinant collapsed to 0"),
        ((1.0, 0.0, 0.0, -0.1234567891), "frame determinant collapsed to -0.123457"),
        ((1.0, 0.0, 0.0, -12345678.9), "frame determinant collapsed to -1.23457e+07"),
    ]
    for impl in filter(None, (_pure, native_or_none)):
        for bad_step, message in cases:
            assert failure(
                lambda k: k.surface_orbit(
                    IDENTITY, bad_step, letters, 0, None, NO_TRANS, 5, 1
                ),
                impl,
            ) == (ValueError, message)
            assert failure(
                lambda k: k.modular_orbit(
                    IDENTITY, bad_step, 0, None, NO_TRANS, 5, 1
                ),
                impl,
            ) == (ValueError, message)


def test_nonfinite_and_zero_inputs_fail_alike(native):
    # math.floor of NaN or inf, `% 0` and a float division by zero raise in
    # the pure backend; the C kernel must raise the same, not carry NaN on
    # or trap.
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    step = MoebiusElement.u(0.07).entries
    # det 1, but c^2 + d^2 underflows to 0 or overflows to inf
    flat = (1e200, 0.0, 0.0, 1e-200)
    tall = (1e-200, 0.0, 0.0, 1e200)
    model = build_product(build_octagon(), ROTATIONS3, seed=7)
    # an infinite boundary angle reaches math.sin at the first descent
    infinite_angle = [
        *(lambda k, theta=theta: k.surface_orbit(
            build_octagon().generators[0].entries, IDENTITY,
            octagon_letters(), 1, None, (theta, 0.0, 0.0, 0.0), 3, 1,
        ) for theta in (math.inf, -math.inf)),
        *(lambda k, theta=theta: k.modular_orbit(
            MoebiusElement.u(2.0).entries, IDENTITY, 1, None,
            (theta, 0.0, 0.0, 0.0), 3, 1,
        ) for theta in (math.inf, -math.inf)),
    ]
    calls = [
        lambda k: k.surface_orbit(flat, IDENTITY, octagon_letters(), 0, None,
                                  NO_TRANS, 3, 1),
        lambda k: k.surface_orbit(tall, IDENTITY, octagon_letters(), 0, None,
                                  NO_TRANS, 3, 1),
        lambda k: k.modular_orbit(flat, IDENTITY, 0, None, NO_TRANS, 3, 1),
        lambda k: k.modular_orbit(tall, IDENTITY, 0, None, NO_TRANS, 3, 1),
        # a zero quaternion has no norm to divide by
        lambda k: k.surface_orbit(
            build_octagon().generators[0].entries, IDENTITY, octagon_letters(),
            2, rotation_quats(model), NO_TRANS, 3, 1,
        ),
        lambda k: k.modular_orbit(MoebiusElement.u(2.0).entries, IDENTITY, 2,
                                  [0.0] * 8, (1.0, 0.0, 0.0, 0.0), 3, 1),
        # lam ** t underflows to 0
        lambda k: k.t3a_orbit((0.0, 0.0, -1e6), m.lam, eigen,
                              (0.0, 0.0, 0.1), 5, 1),
        lambda k: k.modular_orbit(
            (math.nan, 0.0, 0.0, 1.0), step, 0, None, NO_TRANS, 5, 1
        ),
        lambda k: k.t3a_orbit((0.0, 0.0, math.nan), m.lam, eigen,
                              (0.0, 0.0, 0.1), 5, 1),
        lambda k: k.t3a_orbit((math.nan, 0.0, 0.0), m.lam, eigen,
                              (0.0, 0.0, 0.1), 5, 1),
        lambda k: k.t3a_orbit((0.0, 0.0, 0.0), m.lam, eigen,
                              (0.0, 0.0, math.inf), 5, 1),
        lambda k: k.t3a_orbit((0.0, 0.0, 0.0), m.lam, eigen,
                              (0.0, 0.0, -1e30), 5, 1),
        *infinite_angle,
        lambda k: k.surface_orbit(
            IDENTITY, step, octagon_letters(), 0, None, NO_TRANS, 3, 0
        ),
        lambda k: k.modular_orbit(IDENTITY, step, 0, None, NO_TRANS, 3, 0),
        lambda k: k.t3a_orbit((0.0, 0.0, 0.0), m.lam, eigen,
                              (0.0, 0.0, 0.1), 3, 0),
        # `% 0` is refused before step 0 can fail in its own way
        lambda k: k.surface_orbit((1.0, 0.0, 0.0, -1.0), IDENTITY,
                                  octagon_letters(), 0, None, NO_TRANS, 3, 0),
        lambda k: k.modular_orbit((1.0, 0.0, 0.0, -1.0), IDENTITY, 0, None,
                                  NO_TRANS, 3, 0),
        lambda k: k.t3a_orbit((0.1, 0.1, -0.5), 0.0, eigen,
                              (0.01, 0.0, 0.0), 3, 0),
    ]
    for call in calls:
        assert failure(call, native) == failure(call, _pure)
    assert failure(calls[0], native) == (
        ZeroDivisionError, "float division by zero"
    )
    for call in infinite_angle:
        assert failure(call, native)[0] is ValueError
    for call in calls[-3:]:
        assert failure(call, _pure) == (
            ZeroDivisionError, "integer modulo by zero"
        )


def test_t3a_power_overflow_fails_alike(native):
    # Python's float ** raises where C's pow returns inf: the C kernel must
    # raise the same error, not fail later on the level guard.
    unit = (1.0, 0.0, 0.0, 1.0)
    calls = [
        # lam ** t at the step start
        lambda k: k.t3a_orbit((0.1, 0.1, 1000.0), 2.618, unit,
                              (0.01, 0.0, 0.0), 3, 1),
        # lam ** n when the suspension coordinate is brought back down
        lambda k: k.t3a_orbit((0.1, 0.1, 0.0), 1e300, unit,
                              (0.01, 0.0, 2.0), 3, 1),
        # a zero base to a negative power
        lambda k: k.t3a_orbit((0.1, 0.1, -0.5), 0.0, unit,
                              (0.01, 0.0, 0.0), 3, 1),
    ]
    expected = [
        (OverflowError, "(34, 'Numerical result out of range')"),
        (OverflowError, "(34, 'Numerical result out of range')"),
        (ZeroDivisionError, "0.0 cannot be raised to a negative power"),
    ]
    for call, want in zip(calls, expected):
        assert failure(call, _pure) == want
        assert failure(call, native) == want


def test_t3a_negative_lam_fails_alike(native):
    # a negative base has complex fractional powers: both kernels refuse it
    # before the loop, whatever the steps and the sampling
    unit = (1.0, 0.0, 0.0, 1.0)
    for lam, steps, every, text in ((-2.618, 3, 1, "-2.618"),
                                    (-1e300, 0, 1, "-1e+300"),
                                    (-0.5, 3, 0, "-0.5")):
        call = lambda k: k.t3a_orbit((0.1, 0.1, 0.5), lam, unit,
                                     (0.01, 0.0, 0.3), steps, every)
        want = (ValueError, "lam must not be negative, got " + text)
        assert failure(call, _pure) == want
        assert failure(call, native) == want


def test_pure_reduction_cap_reports_step(monkeypatch):
    monkeypatch.setattr(_pure, "_REDUCE_CAP", 0)
    letters = octagon_letters()
    far = build_octagon().generators[0].entries
    ident_step = (1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="step 0"):
        _pure.surface_orbit(far, ident_step, letters, 0, None, NO_TRANS, 1, 1)
    inside = MoebiusElement.geo(0.5).entries
    with pytest.raises(ValueError, match="step 0"):
        _pure.modular_orbit(inside, ident_step, 0, None, NO_TRANS, 1, 1)


def test_sample_coordinates_well_formed():
    letters = octagon_letters()
    step = MoebiusElement.u(0.07).entries
    values, _, _ = _kernels.surface_orbit(
        IDENTITY, step, letters, 0, None, NO_TRANS, 2000, 1
    )
    assert len(values) == 3 * 2001
    for re, im, direction in rows_of(values, 3):
        assert im > 0.0
        assert 0.0 <= direction < 2.0 * math.pi
        assert math.isfinite(re)


# -- first_step: runs split into calls ---------------------------------------


def split_cases():
    """(kernel, arguments before steps, row width, positions of the state
    arguments) for every kernel and transverse kind.  The torus-bundle
    cases include a drift past 64 levels at step 0 and at step 63."""
    letters = octagon_letters()
    so3 = rotation_quats(build_product(build_octagon(), ROTATIONS3, seed=7))
    mquats = modular_quats(build_product(build_modular(), ROTATIONS3, seed=7))
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    unit = (1.0, 0.0, 0.0, 0.0)
    frame = MoebiusElement.geo(1.3).mul(MoebiusElement.rot(0.4)).entries
    cases = []
    for step in (MoebiusElement.u(0.07).entries, MoebiusElement.geo(1.05).entries):
        for kind, quats, tstate in ((0, None, NO_TRANS),
                                    (1, None, (0.3, 0.0, 0.0, 0.0)),
                                    (2, so3, unit)):
            cases.append(("surface_orbit",
                          (frame, step, letters, kind, quats, tstate),
                          3 + kind, (0, 5)))
        for kind, quats, tstate in ((0, None, NO_TRANS),
                                    (1, None, (-0.4, 0.0, 0.0, 0.0)),
                                    (2, mquats, unit)):
            cases.append(("modular_orbit", (frame, step, kind, quats, tstate),
                          3 + kind, (0, 4)))
    for state, sol in (((0.2, 0.7, 0.35), (0.037, 0.0, 0.0)),
                       ((0.2, 0.7, 0.35), (0.0, 0.0, 0.01)),
                       ((0.0, 0.0, 0.0), (0.0, 0.0, 64.0 + 2.0 ** -6)),
                       ((0.0, 0.0, 0.0), (0.0, 0.0, 200.0))):
        cases.append(("t3a_orbit", (state, m.lam, eigen, sol), 3, (0,)))
    return cases


SPLIT_CASES = split_cases()


def split_outcome(impl, case, steps, every, per_call, first=0):
    """The rows after row 0, and the final state, of the run split into
    calls of per_call steps that carry the state, the first call told that
    `first` steps came before; or the (type, message) of its error."""
    kernel, args, width, state_at = case
    args = list(args)
    rows = []
    try:
        for done in range(0, max(steps, 1), per_call):
            out = getattr(impl, kernel)(*args, min(per_call, steps - done),
                                        every, first + done)
            rows.extend(out[0][width:])
            for position, value in zip(state_at, out[1:]):
                args[position] = value
    except Exception as exc:
        return type(exc), str(exc)
    return repr(rows), repr(out[1:])


def later_steps(message, first):
    return re.sub(r"at step (\d+)",
                  lambda m: "at step %d" % (int(m.group(1)) + first), message)


@st.composite
def split_runs(draw):
    case = draw(st.sampled_from(SPLIT_CASES))
    every = draw(st.integers(1, 9))
    steps = draw(st.integers(0, 700))
    per_call = 64 * every * draw(st.integers(1, 3))
    first = draw(st.integers(0, 2 ** 40))
    return case, steps, every, per_call, first


def assert_split_runs_match(impl, native, run):
    """Split calls give the whole call's rows, final state and error, on
    `impl` and on `native` alike; first_step moves only the step an error
    names."""
    case, steps, every, per_call, first = run
    whole = split_outcome(impl, case, steps, every, max(steps, 1))
    assert split_outcome(impl, case, steps, every, per_call) == whole
    shifted = split_outcome(impl, case, steps, every, per_call, first)
    if isinstance(whole[0], type):
        whole = (whole[0], later_steps(whole[1], first))
    assert shifted == whole
    if native is not None:
        assert split_outcome(native, case, steps, every, per_call, first) == whole


@settings(max_examples=60, deadline=None)
@given(split_runs())
def test_pure_split_runs_match_the_whole_run(run):
    assert_split_runs_match(_pure, None, run)


def test_native_split_runs_match_the_pure_whole_run(native):
    @settings(max_examples=60, deadline=None)
    @given(split_runs())
    def check(run):
        assert_split_runs_match(_pure, native, run)

    check()
