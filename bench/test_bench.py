"""Tests of the benchmark itself: seeded inputs, exact counts, ceilings, checks.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import pytest

import checks
import run
import speed
import tracing
import workloads

# a cheap slice of each workload's pass, enough to exercise its layers
CHEAP = {
    "verify-canonical": lambda job: job.spec[2] == 40,
    "angulate-windows": lambda job: job.spec[1] == 2 and job.spec[3] - job.spec[2] <= 120,
    "present-windows": lambda job: job.spec[1] == 2 and job.spec[3] - job.spec[2] <= 120,
    "cli-readme": lambda job: job.name.startswith("readme"),
}


def _counts(workload: str, seed: int) -> dict:
    jobs = [job for job in workloads.build(workload, seed) if CHEAP[workload](job)]
    tracer, _, failed = run.traced_pass(tracing, workloads, jobs)
    assert not failed
    return tracing.layer_counts(tracer.kept)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs_and_other_seeds_differ(workload):
    specs = [job.spec for job in workloads.build(workload, 11)]
    assert specs == [job.spec for job in workloads.build(workload, 11)]
    assert specs != [job.spec for job in workloads.build(workload, 12)]
    assert sum(job.largest for job in workloads.build(workload, 11)) >= 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_layer_counts(workload):
    first = _counts(workload, 11)
    assert first == _counts(workload, 11)
    assert any(first.values())


def test_counts_see_the_layers_each_workload_exercises():
    verify = _counts("verify-canonical", 3)
    assert verify["intlinalg.nnz_a"] > 0 and verify["k0.relations"] > 0
    assert verify["arcs.candidates"] == 0
    angulate = _counts("angulate-windows", 3)
    assert angulate["angulation.candidates_tested"] > 0 and angulate["intlinalg.rows"] == 0
    cli = _counts("cli-readme", 3)
    assert cli["quiver.nodes"] > 0 and cli["render.svg_bytes"] > 0


def test_ceilings_refuse_before_building():
    # the closed forms decide; nothing near 5e9 arcs is ever allocated
    assert checks.window_arc_count(1, 100_000) == 4_999_950_000
    with pytest.raises(workloads.CeilingExceeded):
        workloads.bound_window(1, 100_000)
    with pytest.raises(workloads.CeilingExceeded):
        workloads.bound_generators(10_000)
    with pytest.raises(workloads.CeilingExceeded):
        workloads.bound_quiver(1, 100_000, 50)
    workloads.bound_window(1, 300)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_window_arc_count_closed_form(n):
    for span in range(0, 40):
        assert checks.window_arc_count(n, span) == len(checks.window_arcs(n, 0, span))


def test_checks_reject_wrong_outputs():
    assert checks.first_crossing([(0, 3), (1, 4)]) is not None
    assert checks.first_crossing([(0, 4), (0, 2), (2, 4), (1, 2)]) is None
    assert checks.check_completion(1, 0, 3, [(1, 3)], [(0, 2), (1, 3)]) is not None
    assert checks.check_completion(1, 0, 3, [], [(0, 2), (0, 3)]) is None
    # one generator, relation 2*e = 0: Z/2, class of e is 1
    assert checks.check_presentation([(2,)], (2,), 0, [(1,)]) is None
    assert checks.check_presentation([(2,)], (), 1, [(1,)]) is not None
    assert checks.canonical_classes(3, 6) == [1, 0, -1, 0, 1, 0]
    assert checks.canonical_classes(2, 4) == [1, 2, 3, 4]


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90, 90.0)
    pct, value = run.tail(samples[:37])
    assert sum(1 for x in samples[:37] if x > value) >= 10 and pct == 72


def test_scaled_times_follow_the_reference_loop():
    nominal = speed.NOMINAL_S
    assert speed.scaled([1.0, 2.0], [nominal] * 3) == [1.0, 2.0]
    # a host at half speed doubles the loop and the job alike
    assert speed.scaled([2.0, 4.0], [2 * nominal] * 3) == [1.0, 2.0]
    # each job takes the mean of the loop times just before and just after it
    assert speed.scaled([3.0], [nominal, 2 * nominal]) == [2.0]
