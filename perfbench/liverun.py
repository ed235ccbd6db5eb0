"""``live-kv-800``: the real cluster.

Untraced, a run measures :data:`MEASURED` fresh clusters one after the
other, each for its share of ``--seconds``, and pools what the clients saw
in their windows.  Before each it boots throwaway clusters, so set-up is
sampled across the whole run.  Each cluster's
replica files are audited; ``req_per_cpu_s`` divides the acknowledged
operations by the CPU time the replicas spent in the windows.  The
``modelled_*`` figures of a live run come from the simulator on the
identical ``ISSConfig`` (``workloads.live_config``) at 800 req/s: the
reference the live numbers are compared with.

Traced, it measures the workload twice, on a plain cluster and then on one
whose replicas run with every layer wrapped; node CPU per acknowledged op
of the two gives ``trace.overhead_ratio``.  The traced cluster then loses
one replica to ``kill -9`` and the restart is timed (the recovery tail).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import livebench
import simbench
import workloads as W
from layers import install_protocol, layer_metrics
from simbench import CheckFailed
from spans import SpanTable, merge_snapshots, percentile

#: Clusters measured in one run, each loaded for an equal share of
#: ``--seconds``: two 15 s windows rather than one of 30 s, since latency
#: grows with the log's length (every checkpoint rewrites the snapshot).
MEASURED = 2
#: Cluster boots timed before each measured cluster's load, its own boot
#: included; the fastest is that cluster's set-up time, as interference
#: from other work on the host only ever slows a boot down.
BOOTS_PER_MEASURED = 3
#: Simulator reference repetitions in one run.
REFERENCE_REPS = 3


@dataclass
class Phase:
    """One cluster's lifetime: boot, load, optional recovery tail, audit."""

    setup_s: float
    load: livebench.LoadResult
    counters: List[Dict[str, object]]
    restarted: List[Dict[str, object]]
    tail: Dict[str, float]
    loadgen_spans: Optional[Dict[str, object]] = None

    def window(self, key: str) -> List[float]:
        return [c["window"]["deltas"].get(key, 0) for c in self.counters]

    def node_cpu_per_op(self) -> float:
        return sum(self.window("cpu_s")) / max(1, self.load.completed_in_window)


def _phase(workload, seed, seconds, data_dir, traced, tail=False) -> Phase:
    cluster, setup_s = livebench.start_cluster(data_dir, traced)
    table = None
    try:
        generator = livebench.LoadGenerator(cluster, workload, seed, seconds)
        if traced:
            table = SpanTable()
            install_protocol(table, time.monotonic)
            generator.table = table
        try:
            load = asyncio.run(generator.run())
        finally:
            if table is not None:
                table.restore()
        if not cluster.all_alive():
            raise CheckFailed("a replica exited during the run")
        tail_metrics = livebench.recovery_tail(cluster) if tail else {}
    finally:
        cluster.stop()
    livebench.check_outputs(cluster.spec, load)
    counters = cluster.counters(0)
    if len(counters) != W.LIVE_NODES or any(c["window"] is None for c in counters):
        raise CheckFailed("a replica did not report its measurement window")
    return Phase(
        setup_s=setup_s,
        load=load,
        counters=counters,
        restarted=cluster.counters(1),
        tail=tail_metrics,
        loadgen_spans=generator.window_spans if traced else None,
    )


def _reference(seed: int) -> Dict[str, float]:
    config = W.live_config()
    runs = [
        simbench.run_once(lambda s: simbench.reference_deployment(config, s), s)
        for s in simbench.sub_seeds(seed, REFERENCE_REPS)
    ]
    return simbench.summarise(runs)


def run(workload, seed: int, seconds: int, traced: bool, run_dir: str) -> Dict[str, object]:
    try:
        reference = _reference(seed)
        if traced:
            return _traced(workload, seed, seconds, run_dir, reference)
        return _untraced(workload, seed, seconds, run_dir, reference)
    finally:
        # Every path out, the deadline's included, ends every replica.
        livebench.stop_all()


def _untraced(workload, seed, seconds, run_dir, reference) -> Dict[str, object]:
    setups, phases = [], []
    for index in range(MEASURED):
        boots = []
        for boot in range(BOOTS_PER_MEASURED - 1):
            data_dir = os.path.join(run_dir, f"boot{index}.{boot}")
            cluster, setup_s = livebench.start_cluster(data_dir, False)
            cluster.stop()
            boots.append(setup_s)
        data_dir = os.path.join(run_dir, f"measured{index}")
        phases.append(_phase(workload, seed, seconds / MEASURED, data_dir, False))
        boots.append(phases[-1].setup_s)
        setups.append(min(boots))
    load = livebench.pooled([phase.load for phase in phases])
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_cpu_s": load.completed_in_window / sum(sum(p.window("cpu_s")) for p in phases),
        "modelled_tput_rps": reference["modelled_tput_rps"],
        "modelled_p50_s": reference["modelled_p50_s"],
        "modelled_p99_s": reference["modelled_p99_s"],
        "completed_frac": 1.0 - load.failed / load.attempted,
        "peak_rss_mb": max(sum(c["peak_rss_kb"] for c in p.counters) for p in phases) / 1024.0,
    }
    metrics.update(livebench.latency_metrics(load))
    return {"metrics": metrics, "attempted": load.attempted, "failed": load.failed}


def _traced(workload, seed, seconds, run_dir, reference) -> Dict[str, object]:
    window = seconds / MEASURED
    plain = _phase(workload, seed, window, os.path.join(run_dir, "plain"), False)
    traced = _phase(workload, seed, window, os.path.join(run_dir, "traced"), True, tail=True)
    load = traced.load
    ops = max(1, load.completed_in_window)
    spans = merge_snapshots([c["window"]["spans"] for c in traced.counters] + [traced.loadgen_spans])
    cpu = traced.window("cpu_s")
    wall = traced.window("wall_s")
    gauges = {
        "iss.epochs": max(traced.window("iss.epochs")),
        "net.bytes_per_op": sum(traced.window("net.bytes_sent")) / ops,
        "net.frames_received": sum(traced.window("net.frames_received")),
        "node.cpu_frac_max": max(c / w for c, w in zip(cpu, wall)),
        "wal.fsyncs_per_op": sum(traced.window("wal.fsyncs")) / ops,
        "client.retries_per_op": load.retries / max(1, load.submitted),
        "net.dropped": sum(traced.window("net.messages_dropped")) + load.loadgen_dropped,
        "loadgen.late_p99_s": percentile(load.late, 99),
        "loadgen.cpu_s": load.loadgen_cpu_s,
        "trace.overhead_ratio": traced.node_cpu_per_op() / plain.node_cpu_per_op(),
        "ref.modelled_p50_s": reference["modelled_p50_s"],
        "ref.live_over_model_p50": (
            livebench.latency_metrics(plain.load)["p50_s"] / reference["modelled_p50_s"]
        ),
    }
    if traced.tail:
        restarted = merge_snapshots([c["spans_total"] for c in traced.restarted])
        gauges.update(traced.tail)
        gauges["recovery.recover_s"] = restarted["total_s"].get("recovery.recover", 0.0)
        gauges["recovery.wal_records"] = restarted["counts"].get("recovery.wal_records", 0)
    return {
        "metrics": layer_metrics(spans, gauges),
        "attempted": plain.load.attempted + load.attempted,
        "failed": plain.load.failed + load.failed,
    }
