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
import tracemalloc

import pytest

from horoflow import _fork, acceptance
from horoflow._fork import fork
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
    # 1e-4 of the attracting point by power 200, in under a second.  The
    # seeded run's counts are pinned, on either backend.
    result = _run(acceptance.boundary_contraction)
    assert_label(result, 1, "boundary_contraction", 1.0)
    assert result.passed
    assert result.details == {"tracked_points": 1278,
                              "worst_first_passage": 20}
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
    # elements: the worst distance back to the graph set stays below 1e-8;
    # the seeded run's residual is pinned to the bit, on either backend
    result = _run(acceptance.graph_minimal_set)
    assert_label(result, 5, "graph_minimal_set", 5.0)
    assert result.passed
    assert result.details["max_residual"] <= 1e-8
    assert repr(result.details["max_residual"]) == "9.440781489900019e-13"
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


def test_suite_runner_subsets(cpus):
    # in this process on one usable CPU, and in two workers on two
    for count in (1, 2):
        cpus(count)
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
    log = tmp_path / "runs"

    def behave(n, _):
        with open(log, "a") as out:
            out.write("%d %d\n" % (n, os.getpid()))
        time.sleep(0.02 * (10 - n))

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(3)
    results, lines = run_lines()
    runs = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(n) for n, _ in runs) == list(range(1, 11))
    pids = {pid for _, pid in runs}
    assert len(pids) == 3 and str(os.getpid()) not in pids  # three workers
    assert no_child_left()
    log.unlink()
    cpus(1)
    in_process, in_process_lines = run_lines()
    assert log.read_text().splitlines() == [
        "%d %d" % (n, os.getpid()) for n in range(1, 11)]
    assert [r.number for r in results] == list(range(1, 11))
    assert results == in_process
    assert lines == in_process_lines == [r.verdict_line() for r in results]
    assert [r.number for r in run_lines("t3a")[0]] == [3, 4]


def test_workers_start_the_longest_criteria_first(monkeypatch, cpus, tmp_path):
    # The second fork fails, so one worker runs the suite and its log is
    # the queue's order; each stub raises if the test process runs it.
    log = tmp_path / "started"

    def behave(n, in_test_process):
        assert not in_test_process
        with open(log, "a") as out:
            out.write("%d\n" % n)

    forks = []

    def one_fork(child):
        forks.append(child)
        return fork(child) if len(forks) == 1 else None

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    monkeypatch.setattr(_fork, "fork", one_fork)
    monkeypatch.setitem(acceptance.SUITES, "some", (2, 5, 7, 8))
    cpus(2)
    assert sorted(acceptance.LONGEST_FIRST) == list(acceptance.SUITES["all"])
    for name, started in [("all", list(acceptance.LONGEST_FIRST)),
                          ("some", [5, 8, 2, 7])]:
        results, lines = run_lines(name)
        assert len(forks) == 2
        assert [int(n) for n in log.read_text().split()] == started
        assert [r.number for r in results] == list(acceptance.SUITES[name])
        assert lines == [r.verdict_line() for r in results]
        assert no_child_left()
        log.unlink()
        forks.clear()


def test_one_usable_cpu_forks_no_worker(monkeypatch, cpus):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                        stub_criteria(lambda n, in_test_process: None))
    cpus(1)
    results, lines = run_lines()
    assert len(results) == len(lines) == 10
    cpus(2)  # a suite of one criterion runs in this process too
    results, lines = run_lines("keylemma")
    assert len(results) == len(lines) == 1


def test_the_parent_only_collects(monkeypatch, cpus):
    # With two usable CPUs the real criteria run in two workers, and the
    # test process, traced by tracemalloc, holds only the results they send
    # back: about 18 KiB at its peak, where criteria 3, 5, 6 and 8 each
    # peak at 0.2 to 0.6 MiB in the process that runs them.  Each worker
    # stops tracing as it starts, so that the criteria run at full speed.
    work = acceptance._work

    def untraced(*args):
        tracemalloc.stop()
        work(*args)

    monkeypatch.setattr(acceptance, "_work", untraced)
    cpus(2)
    tracemalloc.start()
    try:
        results = acceptance.run_suite("all", report=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.number for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
    assert no_child_left()
    assert peak < 48 * 1024


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_a_criterion_error_reaches_the_caller(monkeypatch, cpus, tmp_path,
                                              where):
    # Criterion 9 raises.  On one CPU the test process runs the suite in
    # suite order, so 9 raises after the lines of 1 to 8.  On two, two
    # workers run it in the queue order set here: one is still on 8 when
    # the other has run 5 and then 9, whose failure empties the queue.  No
    # other criterion starts, and 9 raises after the lines of 5 and 8.
    log = tmp_path / "started"

    def behave(n, in_parent):
        with open(log, "a") as out:
            out.write("%d %s\n" % (n, in_parent))
        if n == 9:
            raise KeyError("criterion 9 went wrong")
        if not in_parent:
            time.sleep(0.5 if n == 8 else 0.05)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    monkeypatch.setattr(acceptance, "LONGEST_FIRST",
                        (8, 5, 9, 1, 3, 6, 2, 4, 10, 7))
    cpus(1 if where == "parent" else 2)
    lines = []
    with pytest.raises(KeyError, match="criterion 9 went wrong"):
        acceptance.run_suite("all", report=lines.append)
    assert no_child_left()
    ran = list(range(1, 9)) if where == "parent" else [5, 8]
    assert [line.split()[1] for line in lines] == [str(n) for n in ran]
    started = [line.split() for line in log.read_text().splitlines()]
    assert {in_parent for _, in_parent in started} == {str(where == "parent")}
    assert sorted(int(n) for n, _ in started) == ran + [9]


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
    # criterion 7 comes last in the workers' queue
    def behave(n, in_parent):
        if n == 7 and not in_parent:
            raise make("criterion %d went wrong" % n)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    pattern = r"^%s: criterion 7 went wrong$" % type(make("")).__name__
    with pytest.raises(RuntimeError, match=pattern):
        acceptance.run_suite("all", report=lines.append)
    assert [line.split()[1] for line in lines] == [str(n) for n in range(1, 7)]
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
    # the worker that pulls criterion 5 dies; the other runs the rest
    def behave(n, in_parent):
        if n == 5 and not in_parent:
            os._exit(3)
        time.sleep(0.02)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    with pytest.raises(RuntimeError) as info:
        acceptance.run_suite("all", report=lines.append)
    assert str(info.value) == (
        "no result for criteria 5 (worker exit statuses 3)")
    assert [line.split()[1] for line in lines] == ["1", "2", "3", "4"]
    assert no_child_left()

    # with every worker dead, no criterion has a result
    def dies(n, in_parent):
        if not in_parent:
            os._exit(3)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(dies))
    with pytest.raises(RuntimeError) as info:
        acceptance.run_suite("all", report=lines.append)
    assert str(info.value) == (
        "no result for criteria 1, 2, 3, 4, 5, 6, 7, 8, 9, 10"
        " (worker exit statuses 3, 3)")
    assert len(lines) == 4
    assert no_child_left()


class Dies:
    """Ends the process that pickles it, with status 3."""

    def __reduce__(self):
        os._exit(3)


def test_a_worker_dying_mid_result_names_its_criterion(monkeypatch, cpus):
    # Criterion 6's details are 200 KB, more than a pipe holds, ahead of an
    # object that ends the worker while it pickles them: the test process
    # reads a result cut short.
    def behave(n, _):
        if n == 6:
            return CriterionResult(6, "stub_6", True, 0.0, 1.0,
                                   {"text": "x" * 200_000, "dies": Dies()})

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stub_criteria(behave))
    cpus(2)
    lines = []
    with pytest.raises(RuntimeError) as info:
        acceptance.run_suite("all", report=lines.append)
    assert str(info.value) == (
        "no result for criteria 6 (worker exit statuses 3)")
    assert [line.split()[1] for line in lines] == ["1", "2", "3", "4", "5"]
    assert no_child_left()


def test_a_worker_stops_when_its_parent_is_killed(monkeypatch, cpus, tmp_path):
    # Each criterion logs its start and takes 0.2 s.  The suite runs in a
    # child of the test, killed once two criteria have started; its two
    # workers, which hold `write` open until they exit, may finish the
    # criterion they are in but start none past one they may have pulled
    # as the kill came.
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
