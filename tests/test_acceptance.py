"""The ten acceptance criteria, one test each, with a printed verdict line,
and the suite runner that shares them among forked workers.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test asserts both the measured quantity and the time budget.
"""

import os
import re
import select
import signal
import time

import pytest

from horoflow import acceptance
from horoflow.acceptance import CriterionResult


def _run(criterion):
    result = criterion()
    print()
    print(result.verdict_line())
    return result


def assert_label(result, number, name, budget):
    assert (result.number, result.name, result.budget) == (number, name, budget)


def test_criterion_01_boundary_contraction():
    # 20 seeded hyperbolic elements, 64-point grid minus a 0.01-chordal
    # exclusion around the repelling point: every tracked point comes within
    # 1e-4 of the attracting point by power 200, in under a second
    result = _run(acceptance.boundary_contraction)
    assert_label(result, 1, "boundary_contraction", 1.0)
    assert result.passed
    assert result.details["worst_first_passage"] <= 200
    assert result.elapsed < result.budget


def test_criterion_02_steering_identity():
    # 1000 seeded frames with |c| > 1e-3, alpha in [0.1, 10]: the steered
    # product matches (alpha, 0; c, 1/alpha) entrywise below 1e-9
    result = _run(acceptance.steering_identity)
    assert_label(result, 2, "steering_identity", 1.0)
    assert result.passed
    assert result.details["max_entry_gap"] < 1e-9
    assert result.elapsed < result.budget


def test_criterion_03_toroidal_fiber_density():
    # 1e5 unipotent steps of size 0.037: suspension time exactly constant,
    # 50x50 torus grid at least 99 percent covered, under ten seconds
    result = _run(acceptance.toroidal_fiber_density)
    assert_label(result, 3, "toroidal_fiber_density", 10.0)
    assert result.passed
    assert result.details["t_variation"] == 0.0
    assert result.details["fraction"] >= 0.99
    assert result.elapsed < result.budget


def test_criterion_04_boundary_funneling():
    # 100 seeded boundary-fibre pairs at least 0.01 from the repeller reach
    # within 1e-3 of (infinity, 0) in at most 60 iterations
    result = _run(acceptance.boundary_funneling)
    assert_label(result, 4, "boundary_funneling", 1.0)
    assert result.passed
    assert result.details["worst_passage"] <= 60
    assert result.elapsed < result.budget


def test_criterion_05_graph_minimal_set():
    # 200 on-set points x 50 group words of length <= 3 x 50 triangular grid
    # elements: the worst distance back to the graph set stays below 1e-8
    result = _run(acceptance.graph_minimal_set)
    assert_label(result, 5, "graph_minimal_set", 5.0)
    assert result.passed
    assert result.details["max_residual"] <= 1e-8
    assert result.elapsed < result.budget


def test_criterion_06_cocompact_trace_gap():
    # every non-identity word of length <= 4 keeps |trace| clear of 2 by
    # more than 0.1, and the length-8 relator collapses to the identity
    result = _run(acceptance.cocompact_trace_gap)
    assert_label(result, 6, "cocompact_trace_gap", 30.0)
    assert result.passed
    assert result.details["min_trace_gap"] > 0.1
    assert result.details["relator_is_identity"]
    assert result.elapsed < result.budget


def test_criterion_07_noncompact_contrast():
    # cusped quotient: the unipotent orbit from the identity is 1-periodic
    # to 1e-9 while the geodesic orbit climbs past height 100 by time 6
    result = _run(acceptance.noncompact_contrast)
    assert_label(result, 7, "noncompact_contrast", 1.0)
    assert result.passed
    assert result.details["periodic"]
    assert result.details["peak_height"] > 100.0
    assert result.elapsed < result.budget


def test_criterion_08_compact_surface_density():
    # 2e5 unipotent samples on the compact surface cover at least 90
    # percent of the 10x10x8 position-angle grid (calibration threshold)
    result = _run(acceptance.compact_surface_density)
    assert_label(result, 8, "compact_surface_density", 60.0)
    assert result.passed
    assert result.details["fraction"] >= 0.9
    assert result.elapsed < result.budget


def test_criterion_09_reduction_correctness():
    # 1000 random (point, deck word of length <= 2) pairs per model:
    # reduction is idempotent and deck-invariant to 1e-9 with no failures
    result = _run(acceptance.reduction_correctness)
    assert_label(result, 9, "reduction_correctness", 5.0)
    assert result.passed
    assert set(result.details) == {"octagon", "modular", "t3a", "product"}
    assert all(v == 0 for v in result.details.values())
    assert result.elapsed < result.budget


def test_criterion_10_bundle_structure_identities():
    # 50 seeded integer matrices with 2 < trace <= 50: primed frame has unit
    # determinant to 1e-12; chart conjugation and the triangular-to-solvable
    # embedding hold to 1e-9 on random points and 1000 random pairs
    result = _run(acceptance.bundle_structure_identities)
    assert_label(result, 10, "bundle_structure_identities", 5.0)
    assert result.passed
    assert result.details["max_det_gap"] <= 1e-12
    assert result.details["max_conjugation_gap"] < 1e-9
    assert result.details["max_homomorphism_gap"] < 1e-9
    assert result.elapsed < result.budget


def test_suite_runner_unknown_name():
    with pytest.raises(KeyError):
        acceptance.run_suite("nonsense", report=None)


def test_suite_runner_subsets():
    results = acceptance.run_suite("t3a", report=None)
    assert [r.number for r in results] == [3, 4]
    assert all(r.passed for r in results)


# -- the runner: one queue, forked workers ------------------------------------


def stub_criteria(behave):
    """Ten stub criteria; stub n returns behave(n, in_test_process), or the
    result for n if that is None."""
    here = os.getpid()

    def stub(n):
        def run():
            outcome = behave(n, os.getpid() == here)
            if outcome is None:
                outcome = CriterionResult(n, "stub_%d" % n, n % 3 != 0, 0.0,
                                          1.0, {"square": n * n})
            return outcome
        return run

    return tuple(stub(n) for n in range(1, 11))


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs the runner finds usable."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return use


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def run_lines(name="all"):
    lines = []
    results = acceptance.run_suite(name, report=lines.append)
    return results, lines


def test_runner_keeps_suite_order_across_workers(monkeypatch, cpus, tmp_path):
    # later criteria end sooner, so the workers finish out of suite order
    log = tmp_path / "pids"

    def behave(n, _):
        with open(log, "a") as out:
            out.write("%d\n" % os.getpid())
        time.sleep(0.02 * (10 - n))

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(3)
    results, lines = run_lines()
    assert len(set(log.read_text().split())) == 3  # two workers took some
    assert no_child_left()
    cpus(1)
    in_process, in_process_lines = run_lines()
    assert len(set(log.read_text().split())) == 3
    assert [r.number for r in results] == list(range(1, 11))
    assert results == in_process
    assert lines == in_process_lines == [r.verdict_line() for r in results]
    assert [r.number for r in run_lines("t3a")[0]] == [3, 4]


def test_one_usable_cpu_forks_no_worker(monkeypatch, cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        stub_criteria(lambda n, in_test_process: None))
    cpus(1)
    results, lines = run_lines()
    assert len(results) == len(lines) == 10


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_a_criterion_error_reaches_the_caller(monkeypatch, cpus, tmp_path,
                                              where):
    # every criterion raises in one kind of process and takes a while in the
    # other, so the first criterion that kind of process pulls raises
    log = tmp_path / "started"

    def behave(n, in_parent):
        with open(log, "a") as out:
            out.write("%s\n" % in_parent)
        if in_parent == (where == "parent"):
            raise KeyError("criterion %d went wrong" % n)
        time.sleep(0.05)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    with pytest.raises(KeyError, match=r"criterion (\d+) went wrong") as info:
        acceptance.run_suite("all", report=lines.append)
    failed = int(re.search(r"criterion (\d+)", str(info.value)).group(1))
    assert [line.split()[1] for line in lines] == [
        str(n) for n in range(1, failed)]
    assert no_child_left()
    # The failing process starts no criterion after its failure.  A failing
    # parent empties the queue at once, so its worker starts at most two:
    # the one it is on and one it may pull just before the queue empties.
    started = log.read_text().split()
    assert started.count(str(where == "parent")) == 1
    if where == "parent":
        assert started.count("False") <= 2


class KeywordError(Exception):
    """Pickles, but unpickling calls __init__ without its keyword."""

    def __init__(self, message, *, code):
        super().__init__(message)
        self.code = code


def local_error(message):
    class LocalError(ValueError):
        """Defined in a function, so pickle cannot name it."""

    return LocalError(message)


@pytest.mark.parametrize(
    "make", [local_error, lambda message: KeywordError(message, code=1)],
    ids=["no-pickle", "no-unpickle"])
def test_a_worker_error_that_does_not_cross_the_pipe_is_named(
    monkeypatch, cpus, make
):
    def behave(n, in_parent):
        if not in_parent:
            raise make("criterion %d went wrong" % n)
        time.sleep(0.05)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    pattern = r"^%s: criterion \d+ went wrong$" % type(make("")).__name__
    with pytest.raises(RuntimeError, match=pattern) as info:
        acceptance.run_suite("all", report=lines.append)
    failed = int(re.search(r"criterion (\d+)", str(info.value)).group(1))
    assert [line.split()[1] for line in lines] == [
        str(n) for n in range(1, failed)]
    assert no_child_left()

    # in one process the criterion's own error is raised
    def fails(n, _):
        raise make("criterion %d went wrong" % n)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(fails))
    cpus(1)
    with pytest.raises(Exception, match=r"^criterion 1 went wrong$") as info:
        acceptance.run_suite("all", report=None)
    assert type(info.value).__name__ == type(make("")).__name__


def test_a_dead_worker_names_the_criteria_left_without_result(
    monkeypatch, cpus
):
    def behave(n, in_parent):
        if not in_parent:
            os._exit(3)
        time.sleep(0.05)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    with pytest.raises(RuntimeError) as info:
        acceptance.run_suite("all", report=lines.append)
    message = re.fullmatch(
        r"no result for criteria (\d+) \(worker exit statuses 3\)",
        str(info.value))
    assert message, str(info.value)
    lost = int(message.group(1))
    assert [line.split()[1] for line in lines] == [
        str(n) for n in range(1, lost)]
    assert no_child_left()


def test_a_worker_stops_when_its_parent_is_killed(monkeypatch, cpus, tmp_path):
    # Each criterion logs its start and takes 0.2 s.  The suite runs in a
    # child of the test, killed once two criteria have started; its worker,
    # which holds `write` open until it exits, may finish the criterion it
    # is in but starts none past the one it may have pulled as the kill came.
    log = tmp_path / "started"

    def behave(n, _):
        with open(log, "a") as out:
            out.write("%d %d\n" % (n, os.getpid()))
        time.sleep(0.2)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            acceptance.run_suite("all", report=None)
        finally:
            os._exit(0)
    os.close(write)
    try:
        deadline = time.monotonic() + 10.0
        while len(log.read_text().splitlines() if log.exists() else ()) < 2:
            assert time.monotonic() < deadline, "the criteria did not start"
            time.sleep(0.01)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    started = len(log.read_text().splitlines())
    try:
        assert select.select([read], [], [], 10.0)[0], "the worker lives on"
        assert os.read(read, 1) == b""
    finally:
        os.close(read)
    lines = log.read_text().splitlines()
    assert len({line.split()[1] for line in lines}) == 2
    assert started <= len(lines) <= started + 1 < 10
