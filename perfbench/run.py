"""The repository benchmark: seeded closed-loop workloads over the
rewrite pipeline, the executor, the spill path and the journaled server.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc_match --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run, the layer self times and
``unattributed_ms``, and checks the add-up rule. Each run measures in a
fresh child process (``phases.py``), so peak memory and module-global
state (memory broker, span tracer, fault injector) never carry from one
run into the next. The report states the input properties the caches
depend on and the CPU steal seen during the run. The last line of
standard output is one JSON object; the exit code is nonzero when an
answer check fails. Workloads, and why each exists, are in
``workloads.py``; ``python3 -m pytest perfbench`` runs the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("summary_read", "adhoc_match", "base_scan", "spill_scan",
                  "server_mixed")
#: the add-up rule: layer self times within this share of the untraced
#: per-operation time
ADD_UP = 0.10
#: whole-run limit, seconds
RUN_LIMIT = 170.0

END_TO_END = (
    ("setup_s", "s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
    ("throughput_ops", "ops/s"), ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("sql.parse_ms", "ms"), ("sql.parses_per_op", "count"),
    ("qgm.bind_ms", "ms"), ("qgm.fingerprint_ms", "ms"),
    ("rewrite.ms", "ms"), ("rewrite.decision_hit_ratio", "ratio"),
    ("rewrite.prune_ratio", "ratio"), ("rewrite.answered_ratio", "ratio"),
    ("rewrite.errors", "count"),
    ("matching.cold_ms", "ms"), ("matching.attempts_per_miss", "count"),
    ("engine.execute_ms", "ms"), ("engine.rows_in_per_row_out", "ratio"),
    ("engine.batches", "count"),
    ("resources.spills", "count"), ("resources.spill_runs", "count"),
    ("resources.spill_bytes", "B"), ("resources.peak_reserved_bytes", "B"),
    ("server.request_ms", "ms"), ("server.wire_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_invalidations_per_write", "count"),
    ("server.admission_wait_ms", "ms"),
    ("replication.wal_stage_ms", "ms"), ("replication.wal_fsync_ms", "ms"),
    ("replication.checkpoints", "count"),
    ("replication.bytes_written_per_insert", "B"),
    ("replication.write_p50_ms", "ms"), ("replication.write_p90_ms", "ms"),
    ("asts.maintain_ms", "ms"), ("asts.recompute_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"), ("unattributed_ms", "ms"),
)


# ----------------------------------------------------------------------
# parent: spawn the measuring phase, print the report

def _steal() -> tuple[int, int]:
    """(steal jiffies, all jiffies) from ``/proc/stat``; zeros elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def spawn_phase(phase: str, args, deadline: float) -> dict:
    """Run one phase in a fresh interpreter; returns its JSON result and
    the CPU steal seen while it ran."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    steal0, total0 = _steal()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    steal1, total1 = _steal()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["steal"] = (steal1 - steal0, total1 - total0)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, result: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    attempted, failed = result["attempted"], result["failed"]
    workload = result["workload"]
    print(f"  why: {workload['why']}")
    print(f"  loads {workload['loads']}; bypasses {workload['bypasses']}")
    if args.trace == 0:
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            **{k: result[k] for k in ("p50_ms", "p90_ms", "throughput_ops",
                                      "cpu_ms_per_op", "peak_rss_mb")},
        }
        reads = result["reads"]
        notes = {
            "setup_s": f"median of {len(result['setup_s'])} set-ups",
            "p50_ms": f"{reads} reads; median of {result['windows']} "
                      f"{result['window_s']:g}-s windows, as the last two",
            "p90_ms": f"~{reads // 10} reads beyond it, all windows pooled",
            "throughput_ops": f"{attempted - failed} ops in {result['wall_s']:.2f} s"
                              " (answer checks left out)",
            "cpu_ms_per_op": "process CPU time",
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:<16} {_fmt(values[name]):>12} {unit:<6} "
                  f"{notes.get(name, '')}")
        # Reported but not gated: only server_mixed writes, and a failed
        # operation shows in the JSON's "failed" against "attempted".
        if result["writes"]:
            note = (f"{result['writes']} journaled INSERTs until ACK (WAL "
                    f"sync=fsync, {result['checkpoints']} checkpoints crossed)")
            for name in ("write_p50_ms", "write_p90_ms"):
                print(f"  {name:<16} {_fmt(result[name]):>12} {'ms':<6} {note}")
                note = ""
        else:
            print(f"  {'write_p50_ms':<16} {'n/a':>12} {'ms':<6} no writes "
                  "in this workload (also write_p90_ms)")
        if result["rewrite_errors"]:
            print(f"  rewrite errors sandboxed to base tables: "
                  f"{result['rewrite_errors']} ({result['last_rewrite_error']})")
    else:
        values = result["metrics"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {_fmt(values[name]):>12} {unit}")
        print("  layer self time per operation (traced blocks, mean ms):")
        for layer, ms in result["layers_ms"].items():
            if ms:
                print(f"    {layer:<12} {ms:.4f}")
        print(f"    {'unattributed':<12} {values['unattributed_ms']:.4f}")
        base = result["untraced_op_ms"]
        share = abs(result["layer_sum_ms"] - base) / base
        print(f"  add-up rule {'holds' if share <= ADD_UP else 'FAILS'}: "
              f"layers sum to {result['layer_sum_ms']:.4f} ms, untraced "
              f"per-op {base:.4f} ms ({share:.1%} apart, limit {ADD_UP:.0%}); "
              f"they cover {result['layer_sum_ms'] / result['traced_op_ms']:.1%}"
              f" of the traced per-op {result['traced_op_ms']:.4f} ms; "
              f"{result['spans']} spans, {result['spans_dropped']} dropped")
        if result["first_rewrite_error"]:
            print("  rewrite error sandboxed to base tables: "
                  f"{result['first_rewrite_error']}")
    hit = result["cache_hit_share"]
    print(f"  input: {result['repeat_share']:.1%} of statements repeat an "
          "already-seen fingerprint (rewrite decision cache); server "
          "result-cache hits: "
          + ("n/a, no server" if hit is None else f"{hit:.1%} of reads"))
    print(f"  {'error_ratio':<16} {_fmt(failed / max(1, attempted)):>12} "
          f"{'ratio':<6} {failed} of {attempted} operations failed")
    steal, total = result["steal"]
    print(f"  steal: {steal} jiffies, "
          f"{steal / total if total else 0.0:.1%} of all CPU time in the run")
    for line in result["wrong"][:20]:
        print(f"  WRONG: {line}")
    return {"correct": not result["wrong"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None, spawn=spawn_phase) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("untraced", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.phase is not None:
        # One CPU for the measuring process: with the interpreter lock the
        # program computes on one core anyway, and on a shared VM every
        # hand-off between threads on different CPUs waits for a vCPU
        # wake-up whose cost swings with the host's load.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import phases

        measure = phases.untraced if args.phase == "untraced" else phases.traced
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
        return 0
    phase = "traced" if args.trace else "untraced"
    try:
        result = spawn(phase, args, time.monotonic() + RUN_LIMIT)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    final = report(args, result)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
