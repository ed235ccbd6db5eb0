"""``sim-pbft-16``: the simulator at the Fig. 5 configuration.

Untraced, a run makes a fixed number of repetitions of one seed derived
from ``--seed`` (each must give the same results), times bursts of set-up
between them and reports medians; throughput per CPU second takes each slice of
the run at its fastest repetition (``simbench.fastest_cpu_s``).  On this
workload the latency and throughput a client sees are the modelled ones,
so ``p50_s``, ``p99_s`` and ``tput_ops_s`` equal the ``modelled_*``
figures.

Traced, it runs one repetition untraced and the same seed again with every
layer wrapped; the two must agree exactly (the wrappers change no
behaviour), and the wall-time ratio is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict

import simbench
from layers import install_protocol, install_sim, layer_metrics
from simbench import CheckFailed
from spans import SpanTable, peak_rss_kb

#: Wall seconds one repetition takes on a 2-core host, roughly; with
#: ``--seconds`` it fixes the repetition count (never the clock).
REP_WALL_S = 5.0
#: Deployment constructions timed after each repetition, so that host
#: speed drift over the run hits set-up and run alike.  The fastest of each
#: burst is its set-up time: other work on the host only ever slows a
#: construction down.
SETUPS_PER_REP = 20


def run(workload, seed: int, seconds: int, traced: bool, run_dir: str) -> Dict[str, object]:
    if traced:
        return _traced(seed)
    reps = max(1, round(seconds / REP_WALL_S))
    runs, setups = [], []
    extra_seeds = iter(simbench.sub_seeds(seed + 7919, SETUPS_PER_REP * reps))
    (rep_seed,) = simbench.sub_seeds(seed, 1)
    for _ in range(reps):
        runs.append(simbench.run_once(simbench.fig5_deployment, rep_seed))
        if _outcome(runs[-1]) != _outcome(runs[0]):
            raise CheckFailed("two runs of one seed gave different results")
        burst = [runs[-1].setup_s]
        for _ in range(SETUPS_PER_REP - 1):
            gc.collect()
            t0 = time.perf_counter()
            simbench.fig5_deployment(next(extra_seeds))
            burst.append(time.perf_counter() - t0)
        setups.append(min(burst))
    summary = simbench.summarise(runs)
    submitted, completed = summary["submitted"], summary["completed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_cpu_s": completed / reps / simbench.fastest_cpu_s(runs),
        "modelled_tput_rps": summary["modelled_tput_rps"],
        "modelled_p50_s": summary["modelled_p50_s"],
        "modelled_p99_s": summary["modelled_p99_s"],
        "p50_s": summary["modelled_p50_s"],
        "p99_s": summary["modelled_p99_s"],
        "tput_ops_s": summary["modelled_tput_rps"],
        "completed_frac": completed / submitted,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }
    return {"metrics": metrics, "attempted": submitted, "failed": submitted - completed}


def _outcome(run: simbench.SimRun):
    return (run.submitted, run.completed, run.p50_s, run.p99_s)


def _traced(seed: int) -> Dict[str, object]:
    (rep_seed,) = simbench.sub_seeds(seed, 1)
    plain = simbench.run_once(simbench.fig5_deployment, rep_seed)

    table = SpanTable()
    current = {}
    install_protocol(table, lambda: current["sim"].now)
    install_sim(table)
    try:
        deployment = simbench.fig5_deployment(rep_seed)
        current["sim"] = deployment.sim
        traced = simbench.run_once(lambda _seed: deployment, rep_seed)
    finally:
        table.restore()
    if _outcome(traced) != _outcome(plain):
        raise CheckFailed("the traced simulation diverged from the untraced one")

    network = deployment.network
    batcher = network.batcher.stats
    frames = batcher.batches_flushed + batcher.singletons_flushed
    clients = deployment.clients
    gauges = {
        "sim.events": deployment.sim.events_executed,
        "sim.network.bytes_per_req": network.stats.bytes_sent / traced.completed,
        "wire.payloads_per_frame": batcher.payloads_enqueued / frames if frames else 0.0,
        "iss.epochs": max(node.epochs_completed for node in deployment.nodes),
        "client.retries_per_op": sum(c.requests_retried for c in clients) / traced.submitted,
        # Arrivals fire at their due virtual time, so the generator is never late.
        "loadgen.late_p99_s": 0.0,
        "loadgen.cpu_s": table.self_s.get("loadgen.submit", 0.0),
        "trace.overhead_ratio": traced.run_s / plain.run_s,
    }
    return {
        "metrics": layer_metrics(table.snapshot(), gauges),
        "attempted": traced.submitted,
        "failed": traced.submitted - traced.completed,
    }
