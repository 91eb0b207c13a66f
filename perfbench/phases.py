"""The benchmark's measuring side: one phase runs in a fresh process.

``untraced`` sets the workload up ``SETUPS`` times (``setup_s`` is the
median), runs one timed closed loop and reports the end-to-end metrics,
each the median over ``WINDOW_S`` windows. ``traced`` alternates
untraced and traced blocks on one set-up, so both see the same machine
conditions: per-layer numbers come from the traced blocks; the tracing
overhead and the add-up rule's reference come from the untraced ones.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from pathlib import Path

import layers
from repro.engine import database
from repro.obs import spans as program_spans
from repro.replication.wal import WriteAheadLog
from repro.resources.broker import BROKER
from repro.rewrite import rewriter
from repro.server import server
from repro.server.client import ReproClient
from workloads import (
    MIN_CHECKPOINTS,
    STRETCH,
    WORKLOADS,
    LibraryRun,
    ServerRun,
    check_server,
    merge,
    ratio,
    repeat_share,
    run_library,
    run_server,
)

OUT = Path(__file__).resolve().parent / "out"
#: set-ups per untraced run; setup_s is their median
SETUPS = 7
#: end-to-end metrics are medians over windows of this many seconds
WINDOW_S = 2.0
#: length of each alternating untraced / traced block of a traced run
BLOCK_S = 0.5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed operations)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _windows(out: dict, size: int | None) -> list[dict]:
    """Split the timed loop into windows of about WINDOW_S seconds.

    Library runs cut at round boundaries, so every window holds whole
    rounds and the same statement mix: a percentile that sits between
    two statements' latencies would otherwise jump from one to the
    other as the mix wobbles. Server runs, whose two clients interleave,
    cut by wall time and split process CPU time by its samples."""
    lat, done = out["read_ms"], out["read_done"]
    if size:
        rounds = len(lat) // size
        count = max(1, min(rounds, int(out["wall_s"] // WINDOW_S)))
        step = max(1, rounds // count) * size if rounds else len(lat)
        windows = []
        for start in range(0, max(1, count * step), step):
            end = min(len(lat), start + step)
            began = done[start - 1] if start else 0.0
            windows.append({"reads": lat[start:end], "ops": end - start,
                            "failed": lat[start:end].count(float("inf")),
                            "cpu": sum(out["cpu_s"][start:end]),
                            "seconds": done[end - 1] - began})
        return windows
    count = max(1, int(out["wall_s"] // WINDOW_S))
    width = out["wall_s"] / count
    windows = [{"reads": [], "ops": 0, "failed": 0, "cpu": 0.0,
                "seconds": width} for _ in range(count)]

    def slot(t):
        return windows[min(count - 1, int(t // width))]

    for t, ms in zip(done, lat):
        slot(t)["reads"].append(ms)
    for t, ms in zip(done + out["write_done"], lat + out["write_ms"]):
        window = slot(t)
        window["ops"] += 1
        window["failed"] += ms == float("inf")
    marks = out["cpu_marks"]
    edges = [max((c for t, c in marks if t <= i * width), default=0.0)
             for i in range(count + 1)]
    for i, window in enumerate(windows):
        window["cpu"] = edges[i + 1] - edges[i]
    return windows


def window_medians(out: dict, round_len: int | None) -> dict:
    """p50, throughput and CPU per operation, each the median over the
    run's windows: on a shared VM the CPU speed can drift by a fifth
    within seconds, and the median window reads the typical speed where
    a whole-run figure mixes in the fast and slow phases. p90 pools the
    reads of all those windows: a window holds as few as ~100 reads, so
    its p90 rests on ~10 reads beyond it and jumps between neighbouring
    statements' latencies."""
    full = [w for w in _windows(out, round_len)
            if w["reads"] and w["ops"] > w["failed"]]
    return {
        "p50_ms": statistics.median(statistics.median(w["reads"]) for w in full),
        "p90_ms": percentile([ms for w in full for ms in w["reads"]], 0.90),
        "throughput_ops": statistics.median(
            (w["ops"] - w["failed"]) / w["seconds"] for w in full),
        "cpu_ms_per_op": statistics.median(
            w["cpu"] * 1e3 / (w["ops"] - w["failed"]) for w in full),
        "windows": len(full),
    }


def mix_matched_mean(base: dict, traced: dict) -> float:
    """Mean untraced time per operation, weighted to the traced blocks'
    statement mix, so the add-up rule compares like with like."""
    by_name: dict = {}
    for name, ms in zip(base["names"], base["read_ms"] + base["write_ms"]):
        if ms != float("inf"):
            by_name.setdefault(name, []).append(ms)
    means = {name: statistics.fmean(v) for name, v in by_name.items()}
    weighted = [means[name] for name in traced["names"] if name in means]
    return statistics.fmean(weighted) if weighted else 0.0


def make_run(workload: str, seed: int, rep: int):
    if workload == "server_mixed":
        return ServerRun(seed, OUT, rep)
    return LibraryRun(workload, seed)


def block(workload: str, run, seconds: float, rec=None, min_checkpoints=None):
    if workload == "server_mixed":
        if min_checkpoints is None:
            min_checkpoints = MIN_CHECKPOINTS
        return run_server(run, seconds, min_checkpoints)
    return run_library(run, seconds, rec)


def _finish(workload: str, run, out: dict) -> None:
    """After the timed loop: the input properties the caches depend on,
    and the server's answer checks."""
    reads = len(out["read_ms"])
    if workload == "server_mixed":
        out["wrong"] += check_server(run, out["acked"])
        # every read is one of the five TPC-D texts, all seen in warm-up;
        # every insert is a unique row, so only reads repeat a statement
        out["repeat_share"] = ratio(reads, out["ops"])
        out["cache_hit_share"] = ratio(out["hits"], reads)
    else:
        out["wrong"] += run.final_check()
        out["repeat_share"] = repeat_share(run, out["executed"])
        out["cache_hit_share"] = None


def _common(out: dict) -> dict:
    return {
        "attempted": out["ops"],
        "failed": out["failed"],
        "wrong": out["wrong"],
        "repeat_share": out["repeat_share"],
        "cache_hit_share": out["cache_hit_share"],
        "rewrite_errors": out["counters"].get("rw.rewrite_errors", 0),
    }


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setup_s, run = [], None
    for rep in range(SETUPS):
        if run is not None:
            run.close()
        started = time.perf_counter()
        run = make_run(workload, seed, rep)
        setup_s.append(time.perf_counter() - started)
    try:
        out = block(workload, run, seconds)
        _finish(workload, run, out)
        errors = [db.last_rewrite_error for db in getattr(run, "dbs", {}).values()
                  if db.last_rewrite_error]
    finally:
        run.close()
    return {
        **_common(out),
        **window_medians(out, getattr(run, "round_len", None)),
        "workload": dataclasses.asdict(WORKLOADS[workload]),
        "setup_s": setup_s,
        "reads": len(out["read_ms"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "write_p50_ms": statistics.median(out["write_ms"]) if out["write_ms"] else None,
        "write_p90_ms": percentile(out["write_ms"], 0.90),
        "writes": len(out["write_ms"]),
        "checkpoints": out["counters"].get("checkpoints"),
        "wall_s": out["wall_s"],
        "window_s": WINDOW_S,
        "last_rewrite_error": errors[0] if errors else None,
    }


def _install_wrappers(workload: str, run, rec, reports: list) -> list:
    """Timed wrappers around layer functions the program calls
    internally; returns their undo callables (a name the program no
    longer has is skipped, and its metric reads 0)."""
    undo = [
        layers.wrap(database, "fingerprint", "qgm.fingerprint", rec),
        layers.wrap(rewriter, "rewrite_query", "matching", rec),
    ]
    if workload == "server_mixed":
        undo += [
            layers.wrap(server, "parse_statement", "sql.parse", rec),
            layers.wrap(server, "build_graph", "qgm.bind", rec),
            layers.wrap(server, "fingerprint", "qgm.fingerprint", rec),
            layers.wrap(WriteAheadLog, "checkpoint", "wal.checkpoint", rec),
            layers.wrap(run.db, "insert_rows", "asts.maintain", rec,
                        on_result=reports.append),
        ]
    return [u for u in undo if u is not None]


def traced_block(workload: str, run, seconds: float, rec, reports: list):
    """One block with spans on; returns (result, program spans, dropped)."""
    undo = _install_wrappers(workload, run, rec, reports)
    tracer = None
    try:
        if workload == "server_mixed":
            # a ring large enough for every span of the block
            tracer = program_spans.install(sample_rate=1.0, capacity=1 << 18)
            with ReproClient(*run.address) as client:
                client.set("SET TRACE SAMPLE 1")
            tracer.buffer.clear()
        out = block(workload, run, seconds, rec, min_checkpoints=0)
        if tracer is None:
            return out, [], 0
        spans = (layers.program_span_dicts(tracer.buffer.snapshot())
                 + rec.normalized(joined=True))
        rec.joined.clear()
        return out, spans, tracer.buffer.dropped
    finally:
        if tracer is not None:
            program_spans.uninstall()
        for restore in undo:
            restore()


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced blocks on one set-up, so both see
    the same machine conditions; per-layer numbers come from the traced
    blocks, the add-up reference and overhead base from the others."""
    run = make_run(workload, seed, 0)
    rec = layers.Recorder()
    reports: list = []
    plain, timed, spans = [], [], []
    dropped = crossed = 0
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if elapsed >= STRETCH * seconds or (elapsed >= seconds and (
                    workload != "server_mixed" or crossed >= MIN_CHECKPOINTS)):
                break
            plain.append(block(workload, run, BLOCK_S, min_checkpoints=0))
            out, block_spans, block_dropped = traced_block(
                workload, run, BLOCK_S, rec, reports)
            timed.append(out)
            spans += block_spans
            dropped += block_dropped
            crossed += (plain[-1]["counters"].get("checkpoints", 0)
                        + out["counters"].get("checkpoints", 0))
        base, out = merge(plain), merge(timed)
        both = merge(plain + timed)
        _finish(workload, run, both)
    finally:
        run.close()
    if workload != "server_mixed":
        spans = rec.normalized()
    OUT.mkdir(exist_ok=True)
    layers.write_spans(OUT / f"trace-{workload}-{seed}.json", spans)
    out["counters"]["checkpoints"] = both["counters"].get("checkpoints", 0)
    result = _layer_metrics(workload, out, spans, reports)
    result.update(_common(both))
    result["workload"] = dataclasses.asdict(WORKLOADS[workload])
    base_mean = mix_matched_mean(base, out)
    result["untraced_op_ms"] = base_mean
    result["traced_op_ms"] = statistics.fmean(
        ms for ms in out["read_ms"] + out["write_ms"] if ms != float("inf"))
    result["metrics"]["obs.trace_overhead"] = (
        statistics.median(out["read_ms"]) / statistics.median(base["read_ms"]) - 1)
    result["metrics"]["unattributed_ms"] = base_mean - result["layer_sum_ms"]
    result["spans"] = len(spans)
    result["spans_dropped"] = dropped
    return result


def _layer_metrics(workload: str, out: dict, spans: list, reports: list) -> dict:
    med = layers.median
    c = out["counters"]
    ops = out["ops"]
    per_op = layers.self_times(spans)
    if workload == "server_mixed":
        # one operation per client.request trace root
        roots = {s["op"] for s in spans if s["name"] == "client.request"}
        per_op = {op: v for op, v in per_op.items() if op in roots}
        answered = sum(1 for s in spans if s["name"] == "db.rewrite"
                       and s["attrs"].get("rewritten"))
        errors = c.get("rw.rewrite_errors", 0)
    else:
        answered, errors = out["answered"], out["rewrite_errors"]
    layer_ms = {
        layer: statistics.fmean(v.get(layer, 0.0) for v in per_op.values()) * 1e3
        for layer in layers.LAYERS
    }
    # cold decisions: the operations whose rewrite ran the navigator
    cold_ops = {s["op"] for s in spans if s["name"] == "matching"}
    cold = [(s["end"] - s["start"]) * 1e3 for s in spans
            if s["name"] in ("rewrite", "db.rewrite") and s["op"] in cold_ops]
    maintained = sum(len(r.incremental) + len(r.recomputed) for r in reports)
    recomputed = sum(len(r.recomputed) for r in reports)
    writes = len(out["write_ms"])
    parses = layers.call_ms(spans, "sql.parse")
    metrics = {
        "sql.parse_ms": med(parses),
        "sql.parses_per_op": ratio(len(parses), ops),
        "qgm.bind_ms": med(layers.call_ms(spans, "qgm.bind", "db.bind")),
        "qgm.fingerprint_ms": med(layers.call_ms(spans, "qgm.fingerprint")),
        "rewrite.ms": med(layers.call_ms(spans, "rewrite", "db.rewrite")),
        "rewrite.decision_hit_ratio": ratio(
            c.get("rw.cache_hits", 0) + c.get("rw.cache_negative_hits", 0),
            c.get("rw.queries", 0)),
        "rewrite.prune_ratio": ratio(c.get("rw.candidates_pruned", 0),
                                     c.get("rw.candidates_considered", 0)),
        "rewrite.answered_ratio": ratio(answered, ops),
        "rewrite.errors": errors,
        "matching.cold_ms": med(cold),
        "matching.attempts_per_miss": ratio(c.get("rw.matches_attempted", 0),
                                            c.get("rw.cache_misses", 0)),
        "engine.execute_ms": med(layers.call_ms(spans, "engine.execute", "db.execute")),
        "engine.rows_in_per_row_out": ratio(c.get("executor_batch_rows", 0),
                                            c.get("executor_rows_sum", 0)),
        "engine.batches": ratio(c.get("executor_batch_count", 0),
                                c.get("executor_runs", 0)),
        "resources.spills": c.get("executor_spill_count", 0),
        "resources.spill_runs": c.get("executor_spill_runs", 0),
        "resources.spill_bytes": c.get("executor_spill_bytes", 0),
        "resources.peak_reserved_bytes": BROKER.peak(),
        "server.request_ms": med(out.get("server_ms", [])),
        "server.wire_ms": med(out.get("wire_ms", [])),
        "server.cache_hit_ratio": ratio(out.get("hits", 0), len(out["read_ms"])),
        "server.cache_invalidations_per_write": ratio(
            c.get("cache.invalidations", 0), writes),
        "server.admission_wait_ms": med(layers.call_ms(spans, "admission.wait")),
        "replication.wal_stage_ms": med(layers.call_ms(spans, "wal.stage")),
        "replication.wal_fsync_ms": med(layers.call_ms(spans, "wal.fsync")),
        "replication.checkpoints": c.get("checkpoints", 0),
        "replication.bytes_written_per_insert": ratio(c.get("wchar", 0), writes),
        "replication.write_p50_ms": med(out["write_ms"]),
        "replication.write_p90_ms": percentile(out["write_ms"], 0.90),
        "asts.maintain_ms": med(layers.call_ms(spans, "asts.maintain")),
        "asts.recompute_ratio": ratio(recomputed, maintained),
    }
    return {
        "metrics": metrics,
        "layers_ms": layer_ms,
        "layer_sum_ms": sum(layer_ms.values()),
        "first_rewrite_error": out.get("first_rewrite_error"),
    }
