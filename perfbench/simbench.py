"""Simulator runs: the ``sim-pbft-16`` workload and the live-config reference.

A repetition builds one :class:`~repro.harness.runner.Deployment` (timed
as set-up), runs it (timed as the measured work) and checks its safety
invariants.  The modelled figures are virtual-time results and depend only
on the seed; the wall figures are what a change to the simulator's hot
path moves.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time
from typing import Dict, List

from repro.core.config import ISSConfig, NetworkConfig, SimConfig, WorkloadConfig
from repro.harness.invariants import check_invariants
from repro.harness.runner import Deployment
from repro.harness.scenarios import PAYLOAD_BYTES, iss_config, wan_regions
from repro.obs import ObsConfig

import workloads as W


class CheckFailed(RuntimeError):
    """An output check failed; the run reports no metrics."""


@dataclasses.dataclass
class SimRun:
    """One repetition's wall times and modelled figures."""

    setup_s: float
    run_s: float
    #: CPU seconds of ``Deployment.run`` for each :data:`SLICE_S` of
    #: virtual time, in order (the simulator is single-threaded).
    slice_cpu_s: List[float]
    submitted: int
    completed: int
    tput_rps: float
    p50_s: float
    p99_s: float


def fig5_deployment(seed: int) -> Deployment:
    """The ``sim-pbft-16`` deployment: Fig. 5's ISS-PBFT point at 16 nodes."""
    config = iss_config("pbft", W.SIM_NODES, random_seed=seed)
    network = dataclasses.replace(
        wan_regions(W.SIM_REGIONS, batch_flush_interval=W.SIM_FLUSH_INTERVAL),
        random_seed=seed,
    )
    workload = WorkloadConfig(
        num_clients=W.SIM_CLIENTS,
        total_rate=W.WORKLOADS["sim-pbft-16"].rate,
        duration=W.SIM_DURATION,
        payload_size=PAYLOAD_BYTES,
        random_seed=seed,
    )
    return _deployment(config, network, workload)


def reference_deployment(config: ISSConfig, seed: int) -> Deployment:
    """The live cluster's config in the simulator, on a one-site LAN."""
    network = NetworkConfig(num_datacenters=1, random_seed=seed)
    workload = WorkloadConfig(
        num_clients=W.LIVE_CLIENTS,
        total_rate=W.REFERENCE_RATE,
        duration=W.SIM_DURATION,
        payload_size=32,
        random_seed=seed,
    )
    return _deployment(config, network, workload)


def _deployment(config, network, workload) -> Deployment:
    # Engine and observability are pinned so REPRO_* variables in the
    # environment cannot change what is measured.
    return Deployment(
        config,
        network_config=network,
        workload=workload,
        drain_time=W.SIM_DRAIN,
        sim_config=SimConfig(),
        obs=ObsConfig.disabled(),
    )


#: Virtual seconds of one timed slice of a run (~30 ms of CPU on a 2-core VM).
SLICE_S = 0.05


def _time_slices(sim, slice_cpu_s: List[float]) -> None:
    """Make ``sim.run(until=...)`` run slice by slice, timing each slice.

    Stopping at a slice boundary and going on executes the same events in
    the same order, so the run's results do not change.
    """
    run = sim.run

    def sliced(until: float) -> float:
        start = sim.now
        for index in range(1, math.ceil((until - start) / SLICE_S) + 1):
            c0 = time.process_time()
            run(until=min(until, start + index * SLICE_S))
            slice_cpu_s.append(time.process_time() - c0)
        return sim.now

    sim.run = sliced


def run_once(build, seed: int) -> SimRun:
    """Build, run and check one deployment."""
    # Free the previous repetition's object graph so its collection is not
    # charged to this one.
    gc.collect()
    t0 = time.perf_counter()
    deployment = build(seed)
    t1 = time.perf_counter()
    slice_cpu_s: List[float] = []
    _time_slices(deployment.sim, slice_cpu_s)
    result = deployment.run()
    t2 = time.perf_counter()
    violations = check_invariants(result)
    if violations:
        raise CheckFailed("; ".join(violations))
    report = result.report
    return SimRun(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        slice_cpu_s=slice_cpu_s,
        submitted=report.submitted,
        completed=report.completed,
        tput_rps=report.throughput,
        p50_s=report.latency.p50,
        p99_s=report.latency.p99,
    )


def sub_seeds(seed: int, count: int) -> List[int]:
    """Distinct deployment seeds for the repetitions of one run."""
    return [seed * 1009 + rep for rep in range(count)]


def fastest_cpu_s(runs: List[SimRun]) -> float:
    """CPU seconds of a run of one seed, each slice at its fastest repetition.

    Repetitions of one seed execute the same events slice by slice, and
    interference from other work on the host only ever slows a slice down,
    so the fastest time of each slice is the least disturbed measure of the
    code's own speed.  Much of that interference comes in short bursts,
    which one of several repetitions of a short slice escapes; a slowdown
    that lasts the whole run is not removed.
    """
    return sum(min(times) for times in zip(*(r.slice_cpu_s for r in runs)))


def summarise(runs: List[SimRun]) -> Dict[str, float]:
    """The simulator's modelled figures over repetitions."""
    return {
        "modelled_tput_rps": statistics.median(r.tput_rps for r in runs),
        "modelled_p50_s": statistics.median(r.p50_s for r in runs),
        "modelled_p99_s": statistics.median(r.p99_s for r in runs),
        "submitted": sum(r.submitted for r in runs),
        "completed": sum(r.completed for r in runs),
    }
