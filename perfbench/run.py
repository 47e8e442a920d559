"""clawbench benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  Starts the workload in its own process
(perfbench/harness.py) with OpenBLAS/OpenMP pinned to one thread, plus
SETUP_PROBES extra processes that only set up, and reports set-up time as
the median over all of them.  Prints a header line (environment, sample
counts, input-property shares) and, last, one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json and perfbench/NOTES.md).  The full
result also goes to perfbench/out/.  Exits non-zero without a result line
when the clawbench sources are missing or the workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 6
PROBE_TIMEOUT_S = 20
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def metric_units(section):
    """{name: unit} of one metric section of BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def result_line(raw, trace):
    """The last stdout line: any failed op, raised or checked, makes the
    run incorrect."""
    values = raw["per_layer"] if trace else raw
    return {"correct": raw["failed"] == 0,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in metric_units(
                            "per_layer" if trace else "end_to_end").items()}}


def git_commit():
    """HEAD commit read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_process(args, setup_only, timeout):
    """Start one harness process; returns (seconds to READY, stdout rest)."""
    argv = [sys.executable, HARNESS, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, env={**os.environ, **PINNED})
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"harness exited {code} "
                         f"({'setup probe' if setup_only else 'workload'})")
    return ready, rest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="checked by harness.py against workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "clawbench",
                                       "__init__.py")):
        print("perfbench: src/clawbench not found; run from a clawbench "
              "checkout", file=sys.stderr)
        return 2
    try:
        setups = [run_process(args, True, PROBE_TIMEOUT_S)[0]
                  for _ in range(SETUP_PROBES)]
        ready, out = run_process(args, False, 2 * args.seconds + 60)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(ready)
    raw = json.loads(out.strip().splitlines()[-1])
    raw["setup_s"] = statistics.median(setups)

    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "nproc": os.cpu_count(),
        **raw["env"],
        "loop": "closed, one client",
        "samples": {"ops": raw["attempted"], "setup": len(setups)},
        "fail_ratio": raw["failed"] / raw["attempted"],
        "errors": raw["errors"],
        "setup_samples_s": setups,
        "input_properties": raw["input_properties"],
    }
    if args.trace:
        header["samples"]["traced_ops"] = raw["traced_ops"]
        header["exact_counts"] = raw["exact_counts"]
    line = result_line(raw, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"header": header, "result": line}, fh, indent=2)
    print(json.dumps({"header": header}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
