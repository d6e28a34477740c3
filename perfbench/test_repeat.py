"""Tests of the benchmark itself: seeded inputs, the exact-count repeat
check, and the correctness gate.

    python3 -m pytest perfbench/test_repeat.py

The repeat check runs each workload's traced pass in two fresh
interpreters (so hash seeds differ) and needs about a minute.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

import inputs
import workloads
from spans import FastestSteps, HostSpeed, Tracer

SEED = 1

# Counts that must be identical between two runs of the same code and seed.
EXACT = (
    "synth.nodes.n4", "synth.nodes.n6",
    "synth.leaves.n4", "synth.leaves.n6",
    "jsonio.tree_bytes.n4", "jsonio.tree_bytes.n6",
    "mechanism.profiles.n4", "mechanism.profiles.n6",
    "da.calls", "da.calls.n4", "da.calls.n6",
    "sweep.classes",
    "witness.found_ratio",
)


def traced_counts(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    tracer = Tracer()
    out = workload.run_full(tracer)
    gate = workloads.Gate()
    workload.check_full(out, gate)
    workload.probe(tracer, out, gate)
    if gate.failed:
        raise AssertionError(gate.misses)
    metrics = workloads.layer_metrics(tracer.spans, workload.market_sizes)
    return {key: metrics[key][0] for key in EXACT}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name):
    cmd = [sys.executable, __file__, name, str(SEED)]
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outputs = [run.communicate(timeout=600)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(out.splitlines()[-1]) for out in outputs)
    assert first == second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    def digest(seed):
        return inputs.digest(workloads.WORKLOADS[name](seed).digest_payload)

    assert digest(3) == digest(3)
    if name != "sweep4":  # every n = 4 set, whatever the seed
        assert digest(3) != digest(4)


def test_gate_counts_a_wrong_verdict():
    workload = workloads.SynthVerify(SEED)
    good = {"limited_cyclic": True, "round_trip": True, "valid": True,
            "osp": True, "implements": True}
    outcomes = [
        {**good, "checked": m.samples or 24**4} for m in workload.markets
    ]
    gate = workloads.Gate()
    workload.check_full(outcomes, gate)
    assert gate.failed == 0
    outcomes[0]["implements"] = False
    workload.check_full(outcomes, gate)
    assert gate.failed == 1 and "disagrees with DA" in gate.misses[0]


def test_fastest_steps_takes_each_calls_best_pass():
    fastest = FastestSteps()
    fastest.add([("a", 1.0, 0.9), ("b", 5.0, 4.0)])
    fastest.add([("a", 2.0, 1.5), ("b", 3.0, 3.5)])
    assert fastest.passes == 2
    assert fastest.totals() == pytest.approx((4.0, 4.4))
    with pytest.raises(RuntimeError):
        fastest.add([("b", 1.0, 1.0), ("a", 1.0, 1.0)])


def test_host_speed_scales_by_the_fastest_reference():
    speed = HostSpeed()
    speed.sample(reps=3)
    assert 0 < speed.wall < 1 and 0 < speed.cpu < 1
    speed.wall, speed.cpu = 2e-3, 4e-3  # a host at half and a quarter speed
    assert speed.scale(1.0, 1.0) == pytest.approx((0.5, 0.25))


if __name__ == "__main__":
    print(json.dumps(traced_counts(sys.argv[1], int(sys.argv[2]))))
