"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload synth_verify --seed 1 --seconds 35 --trace 0

Each run makes the workload's full part once (it checks the paper's
claims at full size) and then repeats its short timed pass until the
seconds are used up.  With ``--trace 0`` it reports the end-to-end
metrics.  With ``--trace 1`` the full part runs with spans, followed by
the per-layer probes, and the run reports the per-layer metrics.  Every metric is
printed by name and unit; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (run environment, input digest, and the spans of a
traced run) goes to ``.perfbench/`` under the repository root.  The exit
code is 0 only when every correctness check passed.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FastestSteps, HostSpeed, NullTracer, StepClock, Tracer, to_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("sweep4", "synth_verify", "witness")
DEFAULT_SEED = 1
SETUP_SAMPLES = 11
MIN_PASSES = 20


def measure_setup(workload: str) -> list[float]:
    """Cold set-up times, each in its own fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def timed(run, tracer):
    wall0 = time.perf_counter()
    out = run(tracer)
    return time.perf_counter() - wall0, out


def untraced_run(workload, gate, seconds: float, setup: list[float]):
    """The full workload once, then timed passes until ``seconds`` are
    used up (at least ``MIN_PASSES``).

    ``wall_s`` and ``cpu_s`` are one timed pass at the host's quietest:
    each call into the program counts with its fastest time over the
    passes (see ``FastestSteps``), and the sum is put on the scale of
    ``REFERENCE_S`` by the reference unit, timed after every pass (see
    ``HostSpeed``).  On a shared host whole minutes can run half again as
    slow; only calls of a few milliseconds still find the quiet moments
    in between, and a slow stretch that lasts the whole run slows the
    reference unit too (README.md, Noise).  ``setup_s`` is the median of
    the ``setup`` times, in plain seconds.
    """
    start = time.perf_counter()
    gc.collect()
    full_wall, out = timed(workload.run_full, NullTracer())
    workload.check_full(out, gate)
    del out
    fastest, speed, walls = FastestSteps(), HostSpeed(), []
    while True:
        clock = StepClock()
        wall, out = timed(workload.run_pass, clock)
        workload.check_pass(out, gate)
        del out
        fastest.add(clock.steps)
        speed.sample(reps=1 + int(wall / 0.02))  # once per 20 ms of pass, at least once
        walls.append(wall)
        if fastest.passes == 1:  # the full workload and one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif fastest.passes >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            break
    raw_wall, raw_cpu = fastest.totals()
    wall_s, cpu_s = speed.scale(raw_wall, raw_cpu)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"full_wall_s": full_wall, "pass_walls_s": walls,
                     "fastest_pass_s": {"wall": raw_wall, "cpu": raw_cpu},
                     "reference_s": {"wall": speed.wall, "cpu": speed.cpu}}


def traced_run(workload, gate, seconds: float):
    """The full workload once with spans, then the probes; the per-layer
    metrics come from their spans.  Then untraced and traced timed passes
    in turn until ``seconds`` are used up (at least ``MIN_PASSES`` of
    each); ``trace_overhead`` compares the fastest of each kind."""
    from workloads import layer_metrics

    start = time.perf_counter()
    gc.collect()
    tracer = Tracer()
    with tracer.span("perfbench.pass"):
        full_wall, out = timed(workload.run_full, tracer)
    workload.check_full(out, gate)
    workload.probe(tracer, out, gate)
    del out
    metrics = layer_metrics(tracer.spans, workload.market_sizes)
    plain, traced = [], []
    while True:
        for tr, walls in ((NullTracer(), plain), (Tracer(), traced)):
            wall, out = timed(workload.run_pass, tr)
            workload.check_pass(out, gate)
            walls.append(wall)
        if len(plain) >= MIN_PASSES and time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    metrics["trace_overhead"] = (min(traced) / min(plain) - 1, "ratio")
    return metrics, {"full_wall_s": full_wall, "pass_walls_s": plain,
                     "traced_pass_walls_s": traced, "spans": to_records(tracer.spans)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from the files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, digest: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ospmatch" / "__init__.py").is_file():
        print(f"perfbench: no ospmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup(args.workload)
    import inputs
    import workloads

    workloads.warm_up(args.workload)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    digest = inputs.digest(workload.digest_payload)
    gate = workloads.Gate()

    if args.trace:
        metrics, passes = traced_run(workload, gate, args.seconds)
    else:
        metrics, passes = untraced_run(workload, gate, args.seconds, setup)
    reported = list(metrics)
    metrics["failed_ratio"] = (gate.failed / gate.attempted, "ratio")
    if args.trace:
        reported.append("failed_ratio")

    env = environment(args, digest)
    print(f"perfbench {args.workload} seed={args.seed} inputs={digest} "
          f"full={passes['full_wall_s']:.3f}s passes={len(passes['pass_walls_s'])} "
          f"checks={gate.attempted} failed={gate.failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {unit}")
    if "reference_s" in passes:
        print(f"  unscaled: fastest pass {passes['fastest_pass_s']['wall']:.6g} s, "
              f"reference unit {passes['reference_s']['wall']:.6g} s")
    for miss in gate.misses:
        print("perfbench: check failed: " + miss, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "env": env,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "misses": gate.misses,
        "setup_s_samples": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **passes,
    }
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
