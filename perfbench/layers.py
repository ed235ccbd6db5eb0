"""Timing wrappers around each layer's public calls, and the per-layer table.

:func:`install_protocol` covers the layers both backends run (core.iss,
pbft, core.checkpoint, core.validation, crypto, core.buckets and pacing,
core.client, app.kv); :func:`install_sim` adds the simulator and the wire
batcher, :func:`install_node` the live transport codec, durable storage and
recovery.  Nothing here changes what a call does: each wrapper calls the
original and books counts and self time in a :class:`~spans.SpanTable`.

:data:`SHOULD_MOVE` records, for every layer's per-layer metrics, the
end-to-end metric and workload they should move.
"""

from __future__ import annotations

import pickle
import types
from typing import Callable, Dict, Tuple

from repro.app.kv import KVStateMachine
from repro.core.buckets import BucketPool
from repro.core.checkpoint import CheckpointProtocol
from repro.core.client import Client
from repro.core.iss import ISSNode
from repro.core.validation import RequestValidator
from repro.crypto.signatures import KeyStore
from repro.pbft.pbft import PbftSB

from spans import SpanTable, percentile
from workloads import DECLARED

SIM = "sim-pbft-16"
LIVE = "live-kv-800"

#: What each layer's per-layer metrics should move: the end-to-end metric
#: and workload, keyed by metric-name prefix (the longest prefix applies).
#: The metric names, units and better directions are in ``BENCHMARK.json``.
SHOULD_MOVE: Dict[str, str] = {
    "sim.": f"req_per_cpu_s on {SIM}; no change on {LIVE}",
    "wire.": f"req_per_cpu_s on {SIM}; no change on {LIVE}",
    "iss.": f"req_per_cpu_s on {SIM} and on {LIVE}",
    "pbft.": f"req_per_cpu_s on {SIM} and on {LIVE}",
    "checkpoint.": f"req_per_cpu_s on {SIM} and on {LIVE}",
    "validation.": f"req_per_cpu_s on {SIM} and on {LIVE}",
    "crypto.": f"req_per_cpu_s on {SIM} and on {LIVE}",
    "buckets.": f"p50_s on {LIVE}; modelled_p50_s on {SIM}",
    "pacing.": f"p50_s on {LIVE}; modelled_p50_s on {SIM}",
    "net.": f"p99_s and req_per_cpu_s on {LIVE}; no change on {SIM}",
    "node.": f"p99_s and req_per_cpu_s on {LIVE}; no change on {SIM}",
    "wal.": f"p50_s on {LIVE}",
    "snapshot.": f"p50_s on {LIVE}",
    "client.": f"p99_s and completed_frac on {LIVE}",
    "net.dropped": f"p99_s and completed_frac on {LIVE}, where it is ~0",
    "kv.": f"p99_s on {LIVE}",
    "loadgen.": "validity check on every workload",
    "trace.": "validity check on every workload",
    "ref.": f"simulator reference on the live config at 800 req/s ({LIVE})",
    "recovery.": f"WAL-replay baseline after kill -9 on {LIVE}",
}

#: The per-layer metric names, as declared.
PER_LAYER: Tuple[str, ...] = tuple(m["name"] for m in DECLARED["per_layer"])


def should_move(metric: str) -> str:
    """The end-to-end metric and workload ``metric`` should move."""
    prefix = max((p for p in SHOULD_MOVE if metric.startswith(p)), key=len)
    return SHOULD_MOVE[prefix]


def _wrap_all(table: SpanTable, specs) -> None:
    for owner, attr, name, *hooks in specs:
        table.wrap(owner, attr, name, *hooks)


def install_protocol(table: SpanTable, now: Callable[[], float]) -> None:
    """Wrap the layers both backends run.

    ``now`` is the clock of the bucket queue waits: virtual time in the
    simulator, wall time live.
    """
    counts = table.counts
    waits = table.samples["buckets.queue_wait_s"]
    added_at: Dict[Tuple[int, object], float] = {}

    def note_validity(valid, *args, **kwargs):
        if not valid:
            counts["validation.rejected"] += 1

    def probe_verify(store, identity, message, signature):
        if (identity, message) in store._expected:
            counts["crypto.verify.memo_hits"] += 1

    def probe_verify_digest(store, identity, digest, signature, message_fn):
        if (identity, digest, signature) in store._verified:
            counts["crypto.verify.memo_hits"] += 1

    def note_added(added, pool, request):
        if added:
            added_at[(id(pool), request.rid)] = now()

    def note_cut(requests, pool, buckets, max_size):
        counts["pacing.proposals"] += 1
        counts["pacing.requests"] += len(requests)
        if requests:
            counts["pacing.nonempty"] += 1
        t = now()
        key = id(pool)
        for request in requests:
            start = added_at.pop((key, request.rid), None)
            if start is not None:
                waits.append(t - start)

    _wrap_all(table, [
        (ISSNode, "on_message", "iss.on_message"),
        (PbftSB, "handle_message", "pbft.handle"),
        (PbftSB, "_start_view_change", "pbft.view_change"),
        (CheckpointProtocol, "handle_message", "checkpoint"),
        (CheckpointProtocol, "local_epoch_complete", "checkpoint"),
        (RequestValidator, "is_valid", "validation", None, note_validity),
        # On a memo miss verification signs to compare: that is verify work.
        (KeyStore, "sign", "crypto.sign", None, None, "crypto.verify"),
        (KeyStore, "verify", "crypto.verify", probe_verify),
        (KeyStore, "verify_digest", "crypto.verify", probe_verify_digest),
        (BucketPool, "add_request", "buckets.add", None, note_added),
        (BucketPool, "cut_batch", "buckets.cut", None, note_cut),
        (Client, "submit", "client.submit"),
        (KVStateMachine, "apply", "kv.apply"),
    ])


def install_sim(table: SpanTable) -> None:
    """Wrap the simulator's event loop, network and the wire batcher."""
    from repro.runtime.wire import MessageBatcher
    from repro.sim.network import Network
    from repro.sim.simulator import Simulator
    from repro.workload.generator import WorkloadGenerator

    _wrap_all(table, [
        (Simulator, "run", "sim.run"),
        (Network, "send", "sim.network.send"),
        # The wire batcher's flush hands frames to the immediate path.
        (Network, "_send_now", "sim.network.send_now"),
        (MessageBatcher, "enqueue", "wire.enqueue"),
        (MessageBatcher, "_flush_tick", "wire.flush"),
        (WorkloadGenerator, "_submit", "loadgen.submit"),
    ])


def install_node(table: SpanTable) -> None:
    """Wrap a live replica's codec, durable storage and recovery."""
    from repro.net import transport
    from repro.storage.durable import FileSnapshotStore, FileWriteAheadLog
    from repro.storage.recovery import RecoveryManager
    from repro.storage.wal import WriteAheadLog

    counts = table.counts

    def note_recovery(info, *args, **kwargs):
        counts["recovery.wal_records"] += info.wal_entries_replayed

    # The transport unpickles frames through its module's ``pickle`` name;
    # a stand-in module whose ``loads`` is timed leaves ``dumps`` untouched.
    codec = types.SimpleNamespace(
        loads=pickle.loads, dumps=pickle.dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL
    )
    table.wrap(codec, "loads", "net.decode")
    transport.pickle = codec

    _wrap_all(table, [
        (transport, "encode_frame", "net.encode"),
        (WriteAheadLog, "append_commit", "wal.append"),
        (WriteAheadLog, "append_checkpoint", "wal.append"),
        (WriteAheadLog, "append_epoch_start", "wal.append"),
        (WriteAheadLog, "append_membership", "wal.append"),
        (FileWriteAheadLog, "truncate_below", "wal.compact"),
        (FileSnapshotStore, "install", "snapshot.install"),
        (RecoveryManager, "recover", "recovery.recover", None, note_recovery),
    ])


def layer_metrics(spans: Dict[str, Dict], gauges: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged spans plus measured gauges.

    A layer that did no work on a workload reports 0 (for example ``net.*``
    in the simulator, ``sim.*`` live).
    """
    calls = spans.get("calls", {})
    self_s = spans.get("self_s", {})
    counts = spans.get("counts", {})
    samples = spans.get("samples", {})
    waits = samples.get("buckets.queue_wait_s", [])
    proposals = counts.get("pacing.proposals", 0)
    verifies = calls.get("crypto.verify", 0)
    out = {name: 0.0 for name in PER_LAYER}
    for name in ("iss.on_message", "pbft.handle", "validation",
                 "crypto.sign", "crypto.verify", "buckets.add", "net.encode",
                 "wal.append", "client.submit", "kv.apply"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("sim.run", "checkpoint", "net.decode", "wal.compact", "snapshot.install"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out.update({
        "sim.network.send.calls": calls.get("sim.network.send", 0),
        "sim.network.send.self_s": (
            self_s.get("sim.network.send", 0.0) + self_s.get("sim.network.send_now", 0.0)
        ),
        "wire.enqueue.calls": calls.get("wire.enqueue", 0),
        "wire.self_s": self_s.get("wire.enqueue", 0.0) + self_s.get("wire.flush", 0.0),
        "pbft.view_changes": calls.get("pbft.view_change", 0),
        "validation.rejected": counts.get("validation.rejected", 0),
        "crypto.verify.memo_hit_ratio": counts.get("crypto.verify.memo_hits", 0) / verifies if verifies else 0.0,
        "buckets.queue_wait_p50_s": percentile(waits, 50),
        "buckets.queue_wait_p99_s": percentile(waits, 99),
        "pacing.proposals": proposals,
        "pacing.reqs_per_batch": counts.get("pacing.requests", 0) / proposals if proposals else 0.0,
        "pacing.nonempty_ratio": counts.get("pacing.nonempty", 0) / proposals if proposals else 0.0,
        "net.loop_lag_p99_s": percentile(samples.get("net.loop_lag_s", []), 99),
    })
    out.update(gauges)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    for name in out:
        should_move(name)  # every metric has a recorded purpose
    return out
