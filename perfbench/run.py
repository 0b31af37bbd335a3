"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; ``all`` runs every workload in turn. For a
workload it measures set-up time as the median of a few fresh interpreters
that import ``peereval.cli`` and finish the workload's one-time
initialisation, then runs the workload in a fresh child interpreter
(``perfbench/workloads.py``) with ``PYTHONPATH=src``. Times are scaled to
a reference core by the host speed sampled while they ran (``hostspeed``). It prints a table of
every measured value, then, as the workload's last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
from tracer import package_import_ms, parse_importtime

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SPAWNS = 5
RUN_TIMEOUT_S = 170

# What a fresh interpreter does before the workload's first operation can
# run: import the CLI module, plus the intl tokenizer tables for BLEU.
SETUP_CODE = {
    "peer-corpus": "import peereval.cli",
    "baselines": "import peereval.cli\nfrom peereval import ngram\nngram.bleu(['a .'], ['a .'])",
    "cli-fanout": "import peereval.cli",
}
IMPORT_ROWS = {"import.peereval_ms": "peereval", "import.scipy_ms": "scipy",
               "import.numpy_ms": "numpy"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_spawns(root, workload, trace, env, deadline):
    """Median time (s) of fresh set-up interpreters, scaled and unscaled;
    with ``trace`` also the median per-package import times (ms, scaled)
    from ``-X importtime``."""
    flags = ["-X", "importtime"] if trace else []
    host = hostspeed.HostSpeed()
    times, unscaled, imports = [], [], {name: [] for name in IMPORT_ROWS}
    for _ in range(SETUP_SPAWNS):
        first = len(host.samples)
        with host.sampling():
            start = host.clock()
            proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE[workload]],
                                  cwd=root, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
            elapsed = host.clock() - start
        scale = hostspeed.scale(host.samples[first:])
        times.append(elapsed * scale)
        unscaled.append(elapsed)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        if trace:
            rows = parse_importtime(proc.stderr)
            for name, package in IMPORT_ROWS.items():
                imports[name].append(package_import_ms(rows, package) * scale)
    return (statistics.median(times), statistics.median(unscaled),
            {k: statistics.median(v) for k, v in imports.items() if v})


def run_workload(cmd, root, env, deadline):
    """Run the workload process in its own process group, so that a
    timeout also ends the CLI processes it started."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


def run_one(spec, workload, args, root):
    """Measure one workload; prints its table and result line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    try:
        setup_s, setup_unscaled_s, imports = setup_spawns(
            root, workload, args.trace, env, deadline)
        code, stdout, stderr = run_workload(
            [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            root, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return fail(f"workload process exited with {code}")
    summary = json.loads(lines[-1])

    values = summary["values"]
    values["setup_s"] = setup_s
    values["setup_unscaled_s"] = setup_unscaled_s
    values.update(imports)
    error_rate = summary["failed"] / summary["attempted"]
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in spec["end_to_end"]
               if not args.trace and m["name"] not in values]
    if missing:
        return fail(f"workload did not measure {missing}")

    meta = summary["meta"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {meta['passes']}+{meta['traced_passes']} traced {meta['pass_walls']}  "
          f"fixture {meta['fixture_s']:.2f} s  system-segments/pass {meta['system_segments']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"  {'error_rate':34s} {error_rate:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} ops failed)")
    for name in sorted(values):
        print(f"  {name:34s} {values[name]:.6g} {units.get(name, '')}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}")
    if summary["trace_table"]:
        print(f"  {'traced function':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for fn, (calls, total, own) in summary["trace_table"].items():
            print(f"  {fn:34s} {calls:9d} {total:10.4f} {own:10.4f}")

    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # One core for this process and every process it starts, so that the
    # host speed samples run on the core whose speed they stand for. The
    # bench runs one process at a time, so no work waits for the core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        return fail(f"run from the repository root: {exc}")
    if not os.path.isfile(os.path.join(root, "src", "peereval", "cli.py")):
        return fail(f"no peereval sources under {root}/src")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}")
    codes = [run_one(spec, name, args, root)
             for name in (names if args.workload == "all" else [args.workload])]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
