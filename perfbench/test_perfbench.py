"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def traced_counts(workload, seed, n_cycles):
    cycles, _notes = workloads.build(workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = harness.run_ops(cycles, n_cycles=n_cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    claws = [r.props.get("claws") for r in records]
    return tracer.exact_counts(), claws, records


@pytest.mark.parametrize("workload,n_cycles,expected", [
    ("w16-classical", 1, ("attack.classical_evals.claw",
                          "attack.classical_evals.resolve-k1",
                          "cipher.round_f.evals", "claw.claws_found")),
    ("w12-walksim", 4, ("attack.grover_queries.resolve-k1",
                        "grover.oracle_queries", "walk.tune.sim_steps",
                        "cipher.round_f.evals", "claw.claws_found")),
    ("quantum-sims", 1, ("walk.oracle_queries", "walk.tune.sim_steps",
                         "grover.oracle_queries", "walk.full.matmul_flops",
                         "claw.claws_found")),
])
def test_deterministic_counts_repeat_for_a_seed(workload, n_cycles, expected):
    first, claws_first, records = traced_counts(workload, 7, n_cycles)
    second, claws_second, _ = traced_counts(workload, 7, n_cycles)
    assert all(r.ok for r in records), [r.error for r in records]
    assert first == second
    assert claws_first == claws_second
    for key in expected:
        assert first[key] > 0, key


def test_seed_changes_the_inputs():
    first, claws_first, _ = traced_counts("w12-walksim", 1, 2)
    second, claws_second, _ = traced_counts("w12-walksim", 2, 2)
    assert (first, claws_first) != (second, claws_second)


def test_claw_screen_counts_the_attack_claws():
    from clawbench import attack, claw
    rng = np.random.default_rng(5)
    for _ in range(6):
        for spec, pair_set in (workloads._simeck_instance(8, rng),
                               workloads._simeck_instance(12, rng)):
            problem = attack.build_claw_problem(pair_set, spec)
            claws, _ = claw.find_claws_sorted(problem)
            assert workloads.claw_count(spec, pair_set) == len(claws)


def test_tracer_restores_the_library():
    from clawbench import attack, cipher, walk
    originals = (attack.run_asr_attack, walk.find_claws_exhaustive,
                 cipher.FeistelSpec.round_f, walk.CollapsedWalkSim.run)
    tracer = tracing.Tracer()
    tracer.install()
    assert attack.run_asr_attack is not originals[0]
    tracer.uninstall()
    assert (attack.run_asr_attack, walk.find_claws_exhaustive,
            cipher.FeistelSpec.round_f, walk.CollapsedWalkSim.run) \
        == originals


def test_failed_ops_rank_above_every_success():
    records = [harness.Record("x", t, True) for t in (1.0, 2.0, 3.0)]
    records.append(harness.Record("x", 0.5, False, "AttackError: no key"))
    assert harness.quantile(records, 1.0) >= 3.0
    assert harness.quantile(records, 2 / 3) == 3.0
    assert harness.quantile(records, 0.0) == 1.0
    assert harness.throughput(records) == 3 / 6.5


def test_a_raised_op_makes_the_run_incorrect():
    records = [harness.Record("x", 1.0, True),
               harness.Record("x", 0.5, False, "CapacityError: too big")]
    raw = {**harness.summary(records), "peak_rss_mb": 1.0, "setup_s": 1.0}
    line = run.result_line(raw, trace=0)
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == set(run.metric_units("end_to_end"))


def test_throughput_is_the_median_cycle():
    records = [harness.Record("x", t, True, cycle=c)
               for c, t in enumerate((1.0, 1.0, 9.0))]
    assert harness.throughput(records) == 1.0


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    proc = run_bench(ROOT, "w12-walksim", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == list(run.metric_units(section))
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = run_bench(tmp_path, "w12-walksim", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
