"""Live runs: a real 4-process PBFT KV cluster and one load generator.

The cluster is :class:`repro.net.deploy.LiveDeployment` with each replica
a plain child process running ``nodeproc.py`` (:func:`nodeproc.node_entry`)
and waited for when it stops.  The load generator is this process: one
asyncio loop, one :class:`~repro.net.transport.TcpTransport` (one
connection per replica) shared by all logical clients, no threads.  The seed generates the key and operation sequence; the
cluster receives only the operations.

The load is an open loop: operation *i* is issued at ``start + i / rate``
and timed from that due time, so a stalled generator or cluster charges
the wait to every operation behind it; the generator's own lateness is
reported.

After the window every run checks its outputs from the replicas' files:
the durable logs agree on every shared position, every acknowledged
operation is in every log exactly once, and replaying the log reproduces
the value every acknowledged get returned, including a final
``f+1``-confirmed get on sampled keys.
"""

from __future__ import annotations

import asyncio
import collections
import glob
import json
import os
import pickle
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.app.kv import KVClient, KVStateMachine
from repro.core.types import is_nil
from repro.crypto.signatures import KeyStore
from repro.net.clock import WallClock
from repro.net.deploy import (
    LiveClusterSpec,
    LiveDeployment,
    durable_entries,
    durable_prefix,
    durable_prefix_len,
    prefixes_identical,
)
from repro.net.transport import TcpTransport

import workloads as W
from simbench import CheckFailed
from spans import percentile

#: Open-loop warm-up before the window opens (connections, first epochs).
WARMUP_S = 2.0
#: An open-loop operation not acknowledged within this fails.
OPEN_TIMEOUT_S = 5.0
#: Distinct keys; small enough that keys are overwritten and read back.
KEY_SPACE = 512
#: Keys read back with a final confirmed get, and how long each may take.
FINAL_GETS = 16
FINAL_GET_TIMEOUT_S = 30.0
#: Victim of the recovery tail (a non-zero node, so node 0's log is a survivor's).
VICTIM = 1
CATCHUP_TIMEOUT_S = 60.0


HERE = os.path.dirname(os.path.abspath(__file__))
NODE_SCRIPT = os.path.join(HERE, "nodeproc.py")
#: The replicas import the program and the benchmark's own modules.
NODE_PYTHONPATH = os.pathsep.join([os.path.join(os.path.dirname(HERE), "src"), HERE])


class NodeProcess:
    """One replica as a direct child process, with the handle LiveDeployment drives.

    Not a ``multiprocessing`` spawn: that also starts multiprocessing's
    resource-tracker process, which nothing waits for and which outlives
    the run.  Replica output goes to standard error, so the result line
    stays the last line of standard output.
    """

    def __init__(self, args: List[str]):
        self._popen = subprocess.Popen(
            [sys.executable, NODE_SCRIPT, str(os.getpid()), *args],
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,
            env=dict(os.environ, PYTHONPATH=NODE_PYTHONPATH),
        )
        self.pid = self._popen.pid

    def is_alive(self) -> bool:
        return self._popen.poll() is None

    def terminate(self) -> None:
        self._popen.terminate()

    def kill(self) -> None:
        self._popen.kill()

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self._popen.wait(timeout)
        except subprocess.TimeoutExpired:
            pass


#: Every cluster this process built; :func:`stop_all` stops what is left.
_CLUSTERS: List["BenchCluster"] = []


class BenchCluster(LiveDeployment):
    """A :class:`LiveDeployment` whose replicas are :class:`NodeProcess` children."""

    def __init__(self, spec: LiveClusterSpec, traced: bool):
        super().__init__(spec)
        self.traced = traced
        self._incarnations: Dict[int, int] = collections.Counter()
        self._spec_path = os.path.join(spec.data_dir, "spec.pickle")
        with open(self._spec_path, "wb") as handle:
            pickle.dump(spec, handle)
        _CLUSTERS.append(self)

    def _spawn(self, node_id: int) -> None:
        incarnation = self._incarnations[node_id]
        self._incarnations[node_id] += 1
        path = os.path.join(self.spec.data_dir, f"counters-{node_id}-{incarnation}.json")
        self._procs[node_id] = NodeProcess(
            [self._spec_path, str(node_id), path, "1" if self.traced else "0"]
        )

    def signal_all(self, signum: int) -> None:
        for process in self._procs.values():
            if process.is_alive():
                os.kill(process.pid, signum)

    def all_alive(self) -> bool:
        return all(process.is_alive() for process in self._procs.values())

    def counters(self, incarnation: int = 0) -> List[Dict[str, object]]:
        """The counters files written by one incarnation of every replica."""
        out = []
        for path in sorted(glob.glob(os.path.join(self.spec.data_dir, f"counters-*-{incarnation}.json"))):
            with open(path) as handle:
                out.append(json.load(handle))
        return out


def stop_all() -> None:
    """Stop every replica of every cluster and wait for each to end."""
    while _CLUSTERS:
        _CLUSTERS[-1].stop()
        _CLUSTERS.pop()


def _free_base_port(first: int = 27400) -> int:
    """A base port with ``LIVE_NODES`` consecutive free ports above it."""
    for base in range(first, first + 2000, 10):
        try:
            for offset in range(W.LIVE_NODES):
                with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    probe.bind(("127.0.0.1", base + offset))
            return base
        except OSError:
            continue
    raise RuntimeError("no free port range for the cluster")


def make_spec(data_dir: str) -> LiveClusterSpec:
    """The live cluster: fsync on every WAL append, no wire batching."""
    os.makedirs(data_dir, exist_ok=True)
    return LiveClusterSpec(
        config=W.live_config(),
        data_dir=data_dir,
        base_port=_free_base_port(),
        host="127.0.0.1",
        client_ids=W.LIVE_CLIENT_IDS,
        batch_flush_interval=0.0,
        fsync="always",
    )


def start_cluster(data_dir: str, traced: bool) -> Tuple[BenchCluster, float]:
    """Boot a fresh cluster; returns it and its set-up time in seconds."""
    spec = make_spec(data_dir)
    cluster = BenchCluster(spec, traced)
    t0 = time.perf_counter()
    try:
        cluster.start()
    except BaseException:
        cluster.stop()
        raise
    return cluster, time.perf_counter() - t0


# ------------------------------------------------------------------ load
@dataclass
class Op:
    client: int
    key: str
    value: Optional[str]  # None for a get


def op_sequence(seed: int, get_share: float):
    """The seeded, endless sequence of operations (keys, values, clients)."""
    rng = random.Random(seed)
    index = 0
    while True:
        key = f"k{rng.randrange(KEY_SPACE)}"
        is_get = rng.random() < get_share
        yield Op(
            client=index % W.LIVE_CLIENTS,
            key=key,
            value=None if is_get else f"v{seed}.{index}",
        )
        index += 1


@dataclass
class LoadResult:
    """What the generator saw during one live run."""

    window_s: float = 0.0
    #: Latencies (s) of window operations; a failed one counts as the
    #: timeout its client waited, which is above the p99 limit.
    latencies: List[float] = field(default_factory=list)
    completed_in_window: int = 0
    attempted: int = 0
    failed: int = 0
    late: List[float] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0
    retries: int = 0
    submitted: int = 0
    loadgen_dropped: int = 0
    #: Every acknowledged operation's request id.
    acked: List[Tuple[int, int]] = field(default_factory=list)
    #: rid -> (ok, value) of every f+1-confirmed get.
    gets: Dict[Tuple[int, int], Tuple[bool, Optional[str]]] = field(default_factory=dict)


def pooled(results: List[LoadResult]) -> LoadResult:
    """Several clusters' windows as one: durations, counts and latencies pooled."""
    return LoadResult(
        window_s=sum(r.window_s for r in results),
        latencies=[latency for r in results for latency in r.latencies],
        completed_in_window=sum(r.completed_in_window for r in results),
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
    )


class LoadGenerator:
    """Drives one workload against a running cluster from this process."""

    def __init__(self, cluster: BenchCluster, workload: W.Workload, seed: int, seconds: float):
        self.cluster = cluster
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.result = LoadResult(window_s=seconds)
        self._ops = op_sequence(seed, workload.get_share)
        self._keys_written = set()
        #: Traced runs: this process's span table, reset when the window
        #: opens and copied to :attr:`window_spans` when it closes.
        self.table = None
        self.window_spans = None

    async def run(self) -> LoadResult:
        spec = self.cluster.spec
        self.loop = asyncio.get_running_loop()
        clock = WallClock(seed=self.seed)
        transport = TcpTransport(clock, peers=spec.peer_map())
        await transport.start()
        key_store = KeyStore(deployment_seed=spec.config.random_seed)
        self.clients = [
            KVClient(cid, spec.config, clock, transport, key_store)
            for cid in range(W.LIVE_CLIENTS)
        ]
        try:
            await self._open_loop()
        finally:
            self.result.retries = sum(c.client.requests_retried for c in self.clients)
            self.result.submitted = sum(c.client.requests_submitted for c in self.clients)
            self.result.loadgen_dropped = transport.stats.messages_dropped
            await transport.close()
        await self._final_gets(clock, key_store)
        return self.result

    # ------------------------------------------------------------ windows
    def _open_window(self) -> None:
        self.cluster.signal_all(signal.SIGUSR1)
        if self.table is not None:
            self.table.reset()
        self._cpu0 = time.process_time()

    def _close_window(self) -> None:
        self.cluster.signal_all(signal.SIGUSR2)
        self.result.loadgen_cpu_s = time.process_time() - self._cpu0
        if self.table is not None:
            self.window_spans = self.table.snapshot()

    async def _execute(self, op: Op, timeout: float):
        client = self.clients[op.client]
        if op.value is None:
            outcome = await client.get(op.key, timeout=timeout)
            self.result.gets[(outcome.rid.client, outcome.rid.timestamp)] = (outcome.ok, outcome.value)
        else:
            outcome = await client.put(op.key, op.value, timeout=timeout)
            self._keys_written.add(op.key)
        self.result.acked.append((outcome.rid.client, outcome.rid.timestamp))
        return outcome

    async def _open_loop(self) -> None:
        loop, result, rate = self.loop, self.result, self.workload.rate
        start = loop.time() + 0.05
        window_start = start + WARMUP_S
        window_end = window_start + self.seconds
        total = int(round((WARMUP_S + self.seconds) * rate))
        loop.call_at(window_start, self._open_window)
        loop.call_at(window_end, self._close_window)

        async def one(op: Op, due: float) -> None:
            in_window = due >= window_start
            if in_window:
                result.late.append(loop.time() - due)
            try:
                await self._execute(op, OPEN_TIMEOUT_S)
            except asyncio.TimeoutError:
                if in_window:
                    result.failed += 1
                    result.latencies.append(OPEN_TIMEOUT_S)
                return
            done = loop.time()
            if in_window:
                result.latencies.append(done - due)
            if window_start <= done < window_end:
                result.completed_in_window += 1

        tasks = []
        index = 0
        while index < total:
            now = loop.time()
            while index < total and start + index / rate <= now:
                due = start + index / rate
                tasks.append(loop.create_task(one(next(self._ops), due)))
                if due >= window_start:
                    result.attempted += 1
                index += 1
            if index < total:
                await asyncio.sleep(max(0.0, start + index / rate - loop.time()))
        await asyncio.gather(*tasks)
        if loop.time() < window_end:
            await asyncio.sleep(window_end - loop.time())

    async def _final_gets(self, clock: WallClock, key_store: KeyStore) -> None:
        """Read back sampled keys through a fresh connection and client id."""
        spec = self.cluster.spec
        transport = TcpTransport(clock, peers=spec.peer_map())
        await transport.start()
        try:
            reader = KVClient(W.LIVE_CLIENTS, spec.config, clock, transport, key_store)
            keys = sorted(self._keys_written)
            sample = random.Random(self.seed + 1).sample(keys, min(FINAL_GETS, len(keys)))
            outcomes = await asyncio.gather(
                *[reader.get(key, timeout=FINAL_GET_TIMEOUT_S) for key in sample]
            )
        except asyncio.TimeoutError:
            raise CheckFailed("a final get was not confirmed in time") from None
        finally:
            await transport.close()
        for outcome in outcomes:
            rid = (outcome.rid.client, outcome.rid.timestamp)
            self.result.gets[rid] = (outcome.ok, outcome.value)
            self.result.acked.append(rid)


# ---------------------------------------------------------------- checks
def check_outputs(spec: LiveClusterSpec, result: LoadResult) -> None:
    """Audit the replicas' files against what the clients were told."""
    nodes = range(spec.config.num_nodes)
    prefixes = [durable_prefix(spec, node) for node in nodes]
    if not prefixes_identical(prefixes):
        raise CheckFailed("durable logs disagree on a shared position")
    acked = set(result.acked)
    if len(acked) != len(result.acked):
        raise CheckFailed("an operation was acknowledged under a reused id")
    for node, prefix in zip(nodes, prefixes):
        ids = set(prefix)
        if len(ids) != len(prefix):
            raise CheckFailed(f"node {node} delivered a request twice")
        missing = acked - ids
        if missing:
            raise CheckFailed(f"node {node} lacks {len(missing)} acknowledged operations")
    # Replay node 0's log: every confirmed get must have read what the
    # ordered puts before it left in place.
    machine = KVStateMachine()
    entries = durable_entries(spec, 0)
    sn = 0
    while sn in entries:
        entry = entries[sn]
        if not is_nil(entry):
            for request in entry.requests:
                applied = machine.apply(request.payload)
                rid = (request.rid.client, request.rid.timestamp)
                seen = result.gets.get(rid)
                if seen is not None and applied is not None and seen != (applied.ok, applied.value):
                    raise CheckFailed(f"get {rid} returned {seen}, log replay gives {applied}")
        sn += 1


# ------------------------------------------------------------ recovery tail
def recovery_tail(cluster: BenchCluster) -> Dict[str, float]:
    """``kill -9`` one replica, restart it and time its catch-up."""
    spec = cluster.spec
    cluster.kill(VICTIM)
    t0 = time.perf_counter()
    cluster.restart(VICTIM)
    survivors = [n for n in range(spec.config.num_nodes) if n != VICTIM]
    target = min(durable_prefix_len(spec, n) for n in survivors)
    deadline = time.monotonic() + CATCHUP_TIMEOUT_S
    while durable_prefix_len(spec, VICTIM) < target:
        if time.monotonic() > deadline:
            raise CheckFailed(f"restarted node {VICTIM} did not catch up")
        time.sleep(0.05)
    return {"recovery.catchup_s": time.perf_counter() - t0}


# ------------------------------------------------------------------ metrics
def latency_metrics(result: LoadResult) -> Dict[str, float]:
    if not result.latencies:
        raise CheckFailed("no operation completed in the window")
    return {
        "p50_s": statistics.median(result.latencies),
        "p99_s": percentile(result.latencies, 99),
        "tput_ops_s": result.completed_in_window / result.window_s,
    }
