"""The load behind each workload ``BENCHMARK.json`` declares, and the one live config.

Every figure a later change is judged by comes from one of the workloads.
Each stresses a different set of layers, so a change to one layer has a
workload that exercises it and one that bypasses it (on which the
prediction is no change); why each exists is declared with its name in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

from repro.core.config import ISSConfig, PROTOCOL_PBFT

#: The benchmark's declaration: workload names and why each exists, metric
#: names, units and bounds.  Nothing here restates it.
DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    """One named input set: which backend runs it, at what load, and why."""

    name: str
    backend: str  # "sim" or "live"
    why: str
    #: Open-loop offered rate (requests or ops per second).
    rate: float
    #: Share of linearizable gets among live operations.
    get_share: float = 0.0


#: The load of each declared workload.
_LOADS: Dict[str, Dict[str, object]] = {
    "sim-pbft-16": dict(backend="sim", rate=1800.0),
    "live-kv-800": dict(backend="live", rate=800.0, get_share=0.1),
}

WORKLOADS: Dict[str, Workload] = {
    w["name"]: Workload(name=w["name"], why=w["why"], **_LOADS[w["name"]])
    for w in DECLARED["workloads"]
}

#: Simulated Fig. 5 point: ISS over PBFT with 16 nodes on a 4-region WAN.
SIM_NODES = 16
SIM_CLIENTS = 16
SIM_REGIONS = 4
SIM_FLUSH_INTERVAL = 0.02
#: Virtual seconds of offered load per repetition, then the drain.
SIM_DURATION = 4.0
SIM_DRAIN = 3.0

#: The live cluster.
LIVE_NODES = 4
LIVE_CLIENTS = 16
#: Client ids the replicas accept; the final-read client sits past the
#: load clients so its timestamps never interleave with theirs.
LIVE_CLIENT_IDS = tuple(range(LIVE_CLIENTS + 1))
#: Open-loop rate of the simulator reference run on the live config.
REFERENCE_RATE = 800.0


def live_config() -> ISSConfig:
    """The live ISSConfig, pacing included, in one place.

    ``bench_live_wallclock``'s cluster with the ``kv_server`` client retries
    (0.5 s doubling to 4 s) and the batch timeout set explicitly: with the
    4 s default every leader waits out the timeout and latency measures a
    constant.  The simulator reference runs this same object.
    """
    return ISSConfig(
        num_nodes=LIVE_NODES,
        protocol=PROTOCOL_PBFT,
        epoch_length=16,
        random_seed=21,
        client_retry_timeout=0.5,
        client_retry_max_timeout=4.0,
        max_batch_timeout=0.05,
    )
