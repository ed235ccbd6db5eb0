"""Benchmark-owned entry point of one live replica process.

:func:`node_entry` runs in place of :func:`repro.net.host.node_main` in
each replica the benchmark's cluster starts, as
``python3 nodeproc.py PARENT_PID SPEC_PICKLE NODE_ID COUNTERS_JSON TRACED``.
Traced, it installs the layer wrappers (and an event-loop lag probe) and
keeps a reference to the node, transport and storage it builds, for their
totals, before calling ``node_main``.  Untraced it calls ``node_main``
unchanged and reports only the process's CPU time and peak RSS.

The parent marks the measurement window with signals: SIGUSR1 opens it
(counters reset, CPU and transport/WAL totals noted) and SIGUSR2 closes it
(everything frozen and written out).  When SIGTERM ends ``node_main``, the
process writes its counters, CPU time and peak RSS to the same JSON file
again; the parent merges the files of all replicas.  A replica killed with
``kill -9`` leaves the file it wrote when the window closed.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import pickle
import signal
import sys
import time
from typing import Dict, List, Optional

from repro.core.iss import ISSNode
from repro.net.clock import WallClock
from repro.net.host import node_main
from repro.net.transport import TcpTransport
from repro.storage.durable import DurableNodeStorage

from layers import install_node, install_protocol
from spans import SpanTable, peak_rss_kb

#: Period of the event-loop lag probe in traced replicas (seconds).
LAG_PROBE_INTERVAL = 0.01


class NodeCounters:
    """What one replica reports: window CPU, transport/WAL totals, spans."""

    def __init__(self, table: Optional[SpanTable], path: str):
        self.table = table
        self.path = path
        self.registry: Dict[str, List] = {}
        self._opened: Optional[Dict[str, float]] = None
        self.window: Optional[Dict[str, object]] = None

    def totals(self) -> Dict[str, float]:
        """Cumulative process and layer totals at this instant."""
        out = {"cpu_s": time.process_time(), "wall_s": time.monotonic()}
        for transport in self.registry.get("transports", []):
            for name, value in transport.stats.as_dict().items():
                out[f"net.{name}"] = out.get(f"net.{name}", 0) + value
        for storage in self.registry.get("storages", []):
            out["wal.fsyncs"] = out.get("wal.fsyncs", 0) + storage.wal.fsyncs
        nodes = self.registry.get("nodes", [])
        out["iss.epochs"] = max((node.epochs_completed for node in nodes), default=0)
        return out

    def open_window(self, *_args) -> None:
        if self.table is not None:
            self.table.reset()
        self._opened = self.totals()

    def close_window(self, *_args) -> None:
        if self._opened is None:
            return
        closed = self.totals()
        self.window = {
            "deltas": {k: closed[k] - self._opened.get(k, 0) for k in closed},
            "spans": self.table.snapshot() if self.table is not None else None,
        }
        # Written now as well as at exit: a replica killed later (the
        # recovery tail) still leaves its window behind.
        self.write()

    def write(self) -> None:
        with open(self.path, "w") as handle:
            json.dump(self.report(), handle)

    def report(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "spans_total": self.table.snapshot() if self.table is not None else None,
            "peak_rss_kb": peak_rss_kb(),
        }


def _start_lag_probe(table: SpanTable) -> None:
    """Sample how late the replica's event loop runs a due callback."""
    loop = asyncio.get_running_loop()
    lags = table.samples["net.loop_lag_s"]

    def tick(due: float) -> None:
        now = loop.time()
        lags.append(now - due)
        loop.call_at(now + LAG_PROBE_INTERVAL, tick, now + LAG_PROBE_INTERVAL)

    first = loop.time() + LAG_PROBE_INTERVAL
    loop.call_at(first, tick, first)


def node_entry(spec, node_id: int, counters_path: str, traced: bool) -> None:
    """Run one replica until SIGTERM, then write its counters file."""
    table = SpanTable() if traced else None
    counters = NodeCounters(table, counters_path)
    if table is not None:
        _capture_instances(counters.registry)
        install_protocol(table, time.monotonic)
        install_node(table)
        # The host builds its WallClock first thing on the running loop.
        table.wrap(WallClock, "__init__", "clock.init",
                   after=lambda *_a, **_k: _start_lag_probe(table))
    signal.signal(signal.SIGUSR1, counters.open_window)
    signal.signal(signal.SIGUSR2, counters.close_window)
    node_main(spec, node_id)
    counters.write()


def _capture_instances(registry: Dict[str, List]) -> None:
    """Keep a reference to the node, transport and storage the host builds."""
    for cls, key in (
        (ISSNode, "nodes"),
        (TcpTransport, "transports"),
        (DurableNodeStorage, "storages"),
    ):
        original = cls.__init__

        def init(self, *args, _original=original, _key=key, **kwargs):
            _original(self, *args, **kwargs)
            registry.setdefault(_key, []).append(self)

        cls.__init__ = init


#: ``prctl`` option: signal this process when its parent exits.
PR_SET_PDEATHSIG = 1


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel kill this replica if the benchmark exits first (Linux)."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent_pid:
        sys.exit(1)


def main(argv: List[str]) -> None:
    parent_pid, spec_path, node_id, counters_path, traced = argv
    _die_with_parent(int(parent_pid))
    with open(spec_path, "rb") as handle:
        spec = pickle.load(handle)
    node_entry(spec, int(node_id), counters_path, traced == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
