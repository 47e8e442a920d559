"""One workload process: set up, run ops in a closed loop, print the result.

    python3 perfbench/harness.py --workload W --seed S --seconds T --trace 0|1
                                 [--setup-only]

run.py starts this with OpenBLAS and OpenMP pinned to one thread.  It
prints READY once the imports and the seeded instances are done (run.py
times set-up up to that line), then runs ops one at a time, each sent
only after the previous one returned, in whole cycles until T seconds
are spent.  The
last line is one JSON object with the raw end-to-end figures.

With --trace 1 the first half of the time runs untraced and the cycles
it reached are then replayed traced, so the two throughputs compare the same
inputs; their difference is the tracing overhead.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from clawbench.attack import AttackError  # noqa: E402
from clawbench.claw import CapacityError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import metric_units  # noqa: E402

OUT_DIR = os.path.join(ROOT, "perfbench", "out")


@dataclass
class Record:
    kind: str
    latency: float
    ok: bool
    error: str | None = None
    props: dict = field(default_factory=dict)
    cycle: int = 0


def run_ops(cycles, seconds=None, n_cycles=None, tracer=None):
    """Closed loop: one op at a time, whole cycles, until the time budget
    is spent or n_cycles are done."""
    records = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    c = 0
    while (c < n_cycles if n_cycles is not None
           else time.perf_counter() < deadline):
        for op in cycles[c % len(cycles)]:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.run_op(len(records), op.run)
            except (AttackError, CapacityError) as exc:
                records.append(Record(op.kind, time.perf_counter() - start,
                                      False, f"{type(exc).__name__}: {exc}",
                                      cycle=c))
                continue
            latency = time.perf_counter() - start
            error, props = op.check(out)
            records.append(Record(op.kind, latency, error is None, error,
                                  props, cycle=c))
        c += 1
    return records


def quantile(records, q):
    """Latency quantile.  A failed op is charged the summed latency of all
    the records, so it ranks at or above every success."""
    charge = sum(r.latency for r in records)
    ordered = sorted(r.latency if r.ok else charge for r in records)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def throughput(records):
    """Successful ops over timed seconds, per cycle; the median cycle.

    Every cycle has the same op mix, and the median keeps a burst of
    load from another process on the machine out of the figure.
    """
    ok = Counter()
    busy = Counter()
    for r in records:
        ok[r.cycle] += r.ok
        busy[r.cycle] += r.latency
    return statistics.median(ok[c] / busy[c] for c in busy)


def input_properties(records):
    """Shares of the input properties the op costs depend on."""
    kinds = Counter(r.kind for r in records)
    claws = Counter(r.props["claws"] for r in records if "claws" in r.props)
    backends = Counter(r.props["claw_backend"] for r in records
                       if "claw_backend" in r.props)
    n_claw_ops = sum(backends.values())
    return {
        "op_kinds": dict(sorted(kinds.items())),
        "claw_count_histogram": {str(k): v for k, v in sorted(claws.items())},
        "claw_stage_backend": dict(sorted(backends.items())),
        "walk_ran_share": (backends["walk-collapsed"] / n_claw_ops
                           if n_claw_ops else 0.0),
        "fallback_share": (sum(v for k, v in backends.items() if "->" in k)
                           / n_claw_ops if n_claw_ops else 0.0),
    }


def summary(records):
    return {
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "errors": sorted({r.error for r in records if r.error})[:5],
        "latency_s.p50": quantile(records, 0.5),
        "latency_s.p90": quantile(records, 0.9),
        "throughput_ops_per_s": throughput(records),
        "input_properties": input_properties(records),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cycles, setup_notes = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"env": {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }}
    if not args.trace:
        records = run_ops(cycles, seconds=args.seconds)
        result.update(summary(records))
    else:
        plain = run_ops(cycles, seconds=args.seconds / 2)
        n_cycles = len(plain) // len(cycles[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(cycles, n_cycles=n_cycles, tracer=tracer)
        finally:
            tracer.uninstall()
        result.update(summary(plain + traced))
        result["input_properties"] = input_properties(traced)
        per_layer = tracer.per_layer(len(traced), metric_units("per_layer"))
        per_layer["trace.overhead"] = 1 - throughput(traced) / throughput(plain)
        per_layer["fail_ratio"] = result["failed"] / result["attempted"]
        result["per_layer"] = per_layer
        # (K2', K6, K5, K4) tuples sent to resolve, over the traced ops
        result["input_properties"]["resolve_tuples"] = sum(
            s[1] == "attack.resolve_k1_k2_k3" for s in tracer.spans)
        result["traced_ops"] = len(traced)
        result["exact_counts"] = tracer.exact_counts()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result["input_properties"]["setup"] = setup_notes
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
